"""Fixtures shared across test files."""

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import ResultStore
from repro.obs.fleet import BENCH_ROOT_ENV

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_SRC = os.path.join(REPO_ROOT, "src")
REAL_BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")


@pytest.fixture
def suite(tmp_path, monkeypatch):
    """A fixture bench dir with the real harness/schema copied in."""
    monkeypatch.delenv(BENCH_ROOT_ENV, raising=False)
    bench_dir = str(tmp_path / "suite")
    os.makedirs(bench_dir)
    shutil.copy(os.path.join(REAL_BENCH_DIR, "_harness.py"), bench_dir)
    shutil.copy(os.path.join(REAL_BENCH_DIR, "schema.json"), bench_dir)
    yield bench_dir
    # Stems repeat across tests (alpha, beta, ...); the fleet's module
    # cache is checked against the file path, so only the path entry
    # needs undoing.
    if bench_dir in sys.path:
        sys.path.remove(bench_dir)


@pytest.fixture
def sigkill_mid_campaign():
    """The crash drill of the campaign, pipeline and fleet suites.

    ``drill(module_argv, store_dir)`` starts ``python -m <module_argv>``,
    waits until ``store_dir``'s crash ledger holds three shards, SIGKILLs
    the coordinator alone (no atexit, no cleanup: the §2.1 failure) and
    returns the fingerprints the ledger holds afterwards.  The pool
    workers the kill orphans are reaped with their process group.
    """

    def drill(module_argv: list[str], store_dir, timeout: float = 120.0) -> set[str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        store = ResultStore(str(store_dir))
        proc = subprocess.Popen(
            [sys.executable, "-m", *module_argv], env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + timeout
            while len(store.load_ledger()) < 3:
                assert proc.poll() is None, "run finished before we could kill it"
                assert time.time() < deadline, f"no progress within {timeout} s"
                time.sleep(0.02)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        return set(store.load_ledger())

    return drill
