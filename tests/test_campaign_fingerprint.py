"""Property tests for content-addressed scenario fingerprints.

The campaign engine's dedupe and resume are only sound if a
fingerprint is a *name* for physics content: identical scenarios must
collide always (across key orderings, encodings, and process
restarts), distinct scenarios must collide never (in any corpus we
can sample).  Hypothesis drives both directions; a subprocess with a
different ``PYTHONHASHSEED`` pins restart stability the way the spec
of :func:`repro.core.cellserver.content_fingerprint` promises.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    SPEC_KINDS,
    BenchSpec,
    ClusterSpec,
    CosmologySpec,
    PipelineSpec,
    SupernovaSpec,
    scenario_fingerprint,
    scenario_fingerprint_hex,
    spec_from_dict,
    sweep,
)
from repro.campaign.fingerprint import canonical_json

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

cluster_specs = st.builds(
    ClusterSpec,
    n_nodes=st.integers(min_value=1, max_value=4096),
    work_hours=st.floats(min_value=0.1, max_value=1e4, allow_nan=False, allow_infinity=False),
    state_gb_per_node=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    restart_hours=st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
)

supernova_specs = st.builds(
    SupernovaSpec,
    n_particles=st.integers(min_value=8, max_value=512),
    n_steps=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=2**31),
    omega0=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    pressure_deficit=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)

any_spec = st.one_of(cluster_specs, supernova_specs)


def _around_the_defaults(cls):
    """Specs of ``cls`` with every field drawn: numbers at or near the
    default on the side every range check allows, any bench-like stem."""
    draws = {}
    for f in dataclasses.fields(cls):
        if isinstance(f.default, bool):
            draws[f.name] = st.booleans()
        elif isinstance(f.default, int):
            draws[f.name] = st.integers(0, 50).map(lambda k, d=f.default: d + k)
        elif isinstance(f.default, float):
            draws[f.name] = st.floats(0.5, 1.0).map(lambda x, d=f.default: d * x)
        else:
            draws[f.name] = st.text("abcdefghijklmnopqrstuvwxyz0123456789",
                                    min_size=1, max_size=12)
    return st.builds(cls, **draws)


every_kind = st.one_of([_around_the_defaults(cls) for cls in SPEC_KINDS.values()])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


class TestIdenticalContentCollides:
    @given(any_spec)
    def test_deterministic_within_process(self, spec):
        assert scenario_fingerprint(spec) == scenario_fingerprint(spec)
        assert len(scenario_fingerprint(spec)) == 16

    @given(any_spec)
    def test_dict_form_matches_object_form(self, spec):
        assert scenario_fingerprint(spec.to_dict()) == scenario_fingerprint(spec)

    @given(any_spec)
    def test_key_order_is_irrelevant(self, spec):
        d = spec.to_dict()
        reversed_d = dict(reversed(list(d.items())))
        assert list(reversed_d) != list(d)  # genuinely shuffled
        assert scenario_fingerprint(reversed_d) == scenario_fingerprint(d)

    @given(any_spec)
    def test_json_round_trip_preserves_identity(self, spec):
        rebuilt = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert scenario_fingerprint(rebuilt) == scenario_fingerprint(spec)

    def test_stable_across_process_restarts(self):
        """A fresh interpreter — with adversarial hash randomization —
        must reproduce fingerprints byte for byte."""
        specs = [
            ClusterSpec(n_nodes=64),
            CosmologySpec(n_side=4, seed=7),
            SupernovaSpec(n_particles=40),
        ]
        expected = [scenario_fingerprint_hex(s) for s in specs]
        code = (
            "from repro.campaign import (ClusterSpec, CosmologySpec,"
            " SupernovaSpec, scenario_fingerprint_hex)\n"
            "specs = [ClusterSpec(n_nodes=64), CosmologySpec(n_side=4, seed=7),"
            " SupernovaSpec(n_particles=40)]\n"
            "print('\\n'.join(scenario_fingerprint_hex(s) for s in specs))\n"
        )
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=REPO_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, timeout=60, check=True,
            )
            assert out.stdout.split() == expected, f"PYTHONHASHSEED={hashseed}"


class TestFingerprintKeptPerObject:
    """A spec computes its fingerprint once (``ScenarioSpec.fingerprint``,
    a cached property outside the fields): the kept value is the one its
    dict form encodes to, and nothing else about the spec sees it."""

    @given(any_spec)
    def test_kept_value_is_the_dict_forms(self, spec):
        first = scenario_fingerprint_hex(spec)
        assert first == scenario_fingerprint_hex(spec.to_dict())
        assert first == scenario_fingerprint_hex(types.MappingProxyType(spec.to_dict()))
        assert scenario_fingerprint_hex(spec) == first
        assert spec.fingerprint is spec.fingerprint is scenario_fingerprint(spec)

    @given(any_spec, st.integers(min_value=1, max_value=2**31))
    def test_replace_computes_its_own(self, spec, value):
        name = "seed" if hasattr(spec, "seed") else "n_nodes"
        before = scenario_fingerprint_hex(spec)
        changed = dataclasses.replace(spec, **{name: value})
        fresh = spec_from_dict({**spec.to_dict(), name: value})
        assert scenario_fingerprint_hex(changed) == scenario_fingerprint_hex(fresh)
        assert (scenario_fingerprint_hex(changed) == before) == (getattr(spec, name) == value)

    @given(any_spec)
    def test_copies_keep_it(self, spec):
        unread = [copy.copy(spec), pickle.loads(pickle.dumps(spec))]
        fp = spec.fingerprint
        for twin in unread + [copy.copy(spec), pickle.loads(pickle.dumps(spec))]:
            assert twin == spec
            assert twin.fingerprint == fp

    @given(any_spec)
    def test_nothing_else_sees_it(self, spec):
        rebuilt = spec_from_dict(spec.to_dict())
        spec.fingerprint
        assert "fingerprint" in vars(spec) and "fingerprint" not in vars(rebuilt)
        assert spec == rebuilt and hash(spec) == hash(rebuilt)
        assert repr(spec) == repr(rebuilt)
        assert spec.to_dict() == rebuilt.to_dict()
        assert dataclasses.asdict(spec) == dataclasses.asdict(rebuilt)
        assert "fingerprint" not in {f.name for f in dataclasses.fields(spec)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.fingerprint = bytes(16)


class TestDistinctContentNeverCollides:
    @given(cluster_specs, cluster_specs)
    @settings(max_examples=200)
    def test_sampled_cluster_corpus(self, a, b):
        if a.to_dict() != b.to_dict():
            assert scenario_fingerprint(a) != scenario_fingerprint(b)

    @given(supernova_specs, supernova_specs)
    @settings(max_examples=200)
    def test_sampled_supernova_corpus(self, a, b):
        if a.to_dict() != b.to_dict():
            assert scenario_fingerprint(a) != scenario_fingerprint(b)

    @given(cluster_specs, supernova_specs)
    def test_kinds_never_alias(self, a, b):
        assert scenario_fingerprint(a) != scenario_fingerprint(b)


class TestEveryParameterIsLoadBearing:
    """Perturbing any single physical parameter must move the digest."""

    @pytest.mark.parametrize("base", [
        ClusterSpec(), CosmologySpec(), SupernovaSpec(),
    ], ids=lambda s: s.kind)
    def test_sensitive_to_each_field(self, base):
        original = scenario_fingerprint(base)
        for field in dataclasses.fields(base):
            value = getattr(base, field.name)
            if isinstance(value, bool):
                bumped = not value
            elif isinstance(value, int):
                bumped = value + 1
            elif isinstance(value, float):
                bumped = value * 1.0000001 + 1e-9
            else:  # pragma: no cover — specs hold scalars only
                raise AssertionError(f"unhandled field type for {field.name}")
            try:
                perturbed = dataclasses.replace(base, **{field.name: bumped})
            except ValueError:
                # Validation rejected the bump (e.g. omega flatness);
                # try the other direction before giving up.
                perturbed = dataclasses.replace(base, **{field.name: value * 0.999})
            assert scenario_fingerprint(perturbed) != original, field.name


class TestSpecDict:
    """``to_dict`` reads the fields; ``dataclasses.asdict`` is the
    reference it must keep equalling."""

    @given(every_kind)
    def test_is_asdict_plus_kind_and_round_trips(self, spec):
        d = spec.to_dict()
        want = {"kind": spec.kind, **dataclasses.asdict(spec)}
        assert d == want
        assert list(d) == list(want)
        assert [type(v) for v in d.values()] == [type(v) for v in want.values()]
        assert spec_from_dict(d) == spec
        assert spec.to_dict() is not d  # the caller's to change


class TestPinnedFingerprints:
    """Written by the commit before ``to_dict`` and ``canonical_json``
    were made cheaper: a store filled then is still all cache hits."""

    PINS = [
        (ClusterSpec(), "890b98cf35fa19b5514c2e2a5b45e30c"),
        (CosmologySpec(), "52a0dcb767c6b60a6d03575466ef798a"),
        (SupernovaSpec(), "747bb26edc26f16f47a77a3ffab70fef"),
        (PipelineSpec(), "74e693f3ea4c4ef63dfcfebb7b04f4f4"),
        (BenchSpec(bench="fig7_cosmology"), "5e196b4d957eebad8a44a102e1bcb476"),
        (ClusterSpec(n_nodes=64, work_hours=1e-7), "0e7fcaa1fd36283a89ff9629dc44fa0d"),
        (BenchSpec(bench="a", smoke=False), "8311e432a54a0daa6e0b52d93daf9fc5"),
    ]

    #: ``sweep(ClusterSpec(), n_nodes=[64, 128], work_hours=[1.0, 24.0])``
    #: in the order it yields, written before a spec kept its fingerprint.
    SWEEP_PINS = [
        "409750c10e8b32e16a6fe4d617a196d0",
        "32c7a672c7eb251e3567f10f75d8d3a4",
        "73985bec24f1b2e279fc966cfd7096c9",
        "fb84cdcdfeb79f6e994b84057f4e71b9",
    ]

    @pytest.mark.parametrize("spec,pin", PINS, ids=lambda v: getattr(v, "kind", None))
    def test_pinned(self, spec, pin):
        assert scenario_fingerprint_hex(spec) == pin

    def test_every_kind_pinned(self):
        assert {spec.kind for spec, _ in self.PINS} == set(SPEC_KINDS)

    def test_pinned_sweep(self):
        catalog = list(sweep(ClusterSpec(), n_nodes=[64, 128], work_hours=[1.0, 24.0]))
        assert [scenario_fingerprint_hex(s) for s in catalog] == self.SWEEP_PINS


class TestCanonicalEncoding:
    def test_compact_sorted_ascii(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            for obj in (bad, {"x": bad}, [1, {"y": [bad]}]):
                with pytest.raises(ValueError):
                    canonical_json(obj)

    @given(json_values)
    @example({"big": 2**200, "neg": -(2**63) - 1, "\u00e9\u4e16\U0001f680": ["\x00\n\"", 1e-320]})
    def test_is_the_json_dumps_it_replaced(self, obj):
        assert canonical_json(obj) == json.dumps(
            obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)
