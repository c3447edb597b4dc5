"""Fixtures shared across test files."""

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import ResultStore

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
