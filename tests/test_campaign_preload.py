"""Warm workers: what the campaign coordinator imports, and when.

Three contracts.  The ``repro.campaign`` and ``repro.pipeline`` packages
import none of the physics they drive, so only a run that really forks
a pool pays for it.  What a kind declares (``ScenarioSpec.preload``) is
everything a shard of that kind imports, so a forked worker imports
nothing.  And a kind that cannot be preloaded still fails as shard
rows, the same rows ``workers=1`` writes, never as an exception.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.campaign import ClusterSpec, SupernovaSpec, run_campaign, sweep
from repro.campaign.spec import SPEC_KINDS, ScenarioSpec

from .conftest import REPO_SRC

#: One scenario per kind, as small as its spec allows.
SMALL = {
    "cosmology": {"n_side": 4},
    "supernova": {"n_particles": 16, "n_steps": 2, "with_neutrinos": True},
    "cluster": {},
    "pipeline": {"n_side": 6, "a_final": 0.5, "sn_particles": 16, "sn_steps": 2},
}


def fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_campaign_and_pipeline_packages_import_no_physics():
    heavy = json.loads(fresh_interpreter(
        "import json, sys\n"
        "import repro.campaign, repro.pipeline\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('scipy', 'repro.cosmology', 'repro.sph')))))\n"
    ))
    assert heavy == []


def test_a_cold_pipeline_and_pooled_campaign_load_no_scipy(tmp_path):
    # Importing scipy raises here, in the workers too (they fork from
    # this process), so a shard that needs it fails and is counted.
    loaded = json.loads(fresh_interpreter(
        "import dataclasses, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.campaign import PipelineSpec, run_campaign\n"
        "from repro.pipeline import run_pipeline\n"
        f"spec = PipelineSpec(**{SMALL['pipeline']!r})\n"
        "run_pipeline(spec)\n"
        "catalog = [dataclasses.replace(spec, seed=seed) for seed in (1, 2, 3)]\n"
        f"report = run_campaign(catalog, {str(tmp_path)!r}, workers=2)\n"
        "assert (report.computed, report.failed) == (3, 0), report.errors\n"
        "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
        "                        if name.startswith('scipy') and module is not None)))\n"
    ))
    assert loaded == []


def test_small_scenarios_cover_every_kind_but_bench():
    assert set(SMALL) == set(SPEC_KINDS) - {"bench"}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_preload_declares_everything_a_shard_imports(kind):
    late = json.loads(fresh_interpreter(
        "import json, sys\n"
        "from repro.campaign.spec import SPEC_KINDS\n"
        f"cls = SPEC_KINDS[{kind!r}]\n"
        "cls.preload()\n"
        "before = set(sys.modules)\n"
        f"cls(**{SMALL[kind]!r}).run()\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m.split('.')[0] in ('repro', 'scipy', 'numpy'))))\n"
    ))
    assert late == [], f"add to {SPEC_KINDS[kind].__name__}._lazy_modules"


class TestWhenThePreloadRuns:
    CATALOG = list(sweep(ClusterSpec(), n_nodes=[32, 64, 128]))

    @pytest.fixture
    def preloads(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ClusterSpec, "preload",
                            classmethod(lambda cls: calls.append(cls.kind)))
        return calls

    def test_once_per_pending_kind_before_a_pool_forks(self, tmp_path, preloads):
        run_campaign(self.CATALOG + [SupernovaSpec(n_particles=16, n_steps=1)],
                     str(tmp_path), workers=2)
        assert preloads == ["cluster"]

    def test_not_for_a_serial_run(self, tmp_path, preloads):
        run_campaign(self.CATALOG, str(tmp_path), workers=1)
        assert preloads == []

    def test_not_for_a_single_pending_shard(self, tmp_path, preloads):
        run_campaign(self.CATALOG[:1], str(tmp_path), workers=2)
        assert preloads == []

    def test_not_for_a_cached_rerun(self, tmp_path, preloads):
        run_campaign(self.CATALOG, str(tmp_path), workers=1)
        report = run_campaign(self.CATALOG, str(tmp_path), workers=2)
        assert report.cache_hits == 3 and preloads == []


@dataclass(frozen=True)
class UnimportableSpec(ScenarioSpec):
    """A kind whose code cannot be imported, by coordinator or worker."""

    kind = "unimportable"
    tag: int = 0

    @staticmethod
    def _entry_point():
        raise ImportError("No module named 'absent_dependency'")


def test_a_kind_that_cannot_be_preloaded_fails_as_shard_rows(tmp_path, monkeypatch):
    monkeypatch.setitem(SPEC_KINDS, "unimportable", UnimportableSpec)
    catalog = [UnimportableSpec(tag=1), ClusterSpec(n_nodes=32), UnimportableSpec(tag=2)]
    rows = {}
    for workers in (1, 2):
        root = tmp_path / str(workers)
        report = run_campaign(catalog, str(root), workers=workers)
        assert (report.failed, report.computed) == (2, 1)
        with open(root / "shards.jsonl") as fh:
            rows[workers] = [{k: v for k, v in json.loads(line).items() if k != "seconds"}
                             for line in fh]
    assert rows[1] == rows[2]
    assert [row["status"] for row in rows[2]] == ["failed", "computed", "failed"]
    assert "ImportError: No module named 'absent_dependency'" == rows[2][0]["error"]
