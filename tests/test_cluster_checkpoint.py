"""Tests for repro.cluster.checkpoint: checkpoint/restart economics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ClusterSpec
from repro.cluster import (
    CheckpointPlan,
    expected_runtime,
    job_mtbf_hours,
    young_interval,
)
from repro.cluster.checkpoint import run_campaign_scenario


class TestJobMtbf:
    def test_scales_inversely_with_nodes(self):
        assert job_mtbf_hours(32) == pytest.approx(job_mtbf_hours(64) * 2.0)

    def test_full_cluster_mtbf_matches_observation(self):
        # Section 2.1: 23 service failures in 9 months over the whole
        # cluster -> MTBF ~ 9*30*24/23 ~ 280 hours.
        mtbf = job_mtbf_hours(294)
        assert mtbf == pytest.approx(9 * 30 * 24 / 23.0, rel=0.02)

    def test_single_node_mtbf_years(self):
        # 23 failures / 9 months / 294 nodes ~ 0.10 failures per node
        # per year: a single node fails about once a decade.
        assert 8.0 < job_mtbf_hours(1) / 8766.0 < 11.0

    def test_validation(self):
        with pytest.raises(ValueError):
            job_mtbf_hours(0)


class TestYoungInterval:
    def test_formula(self):
        assert young_interval(0.02, 200.0) == pytest.approx(math.sqrt(2 * 0.02 * 200.0))

    def test_cheaper_dumps_mean_more_frequent_checkpoints(self):
        assert young_interval(0.01, 200.0) < young_interval(0.1, 200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            young_interval(0.0, 100.0)


class TestExpectedRuntime:
    def test_no_failures_limit(self):
        # Huge MTBF: expected time -> work * (1 + dump/tau).
        t = expected_runtime(100.0, 0.05, 1e12, interval_hours=5.0)
        assert t == pytest.approx(100.0 * (1 + 0.05 / 5.0), rel=1e-6)

    def test_failures_add_rework(self):
        short = expected_runtime(100.0, 0.05, 100.0)
        long = expected_runtime(100.0, 0.05, 10_000.0)
        assert short > long

    def test_young_interval_near_optimal(self):
        # The Young interval beats 4x-off intervals.
        work, dump, mtbf = 500.0, 0.05, 300.0
        opt = expected_runtime(work, dump, mtbf)
        assert opt <= expected_runtime(work, dump, mtbf, interval_hours=4 * young_interval(dump, mtbf))
        assert opt <= expected_runtime(work, dump, mtbf, interval_hours=young_interval(dump, mtbf) / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_runtime(0.0, 0.1, 100.0)
        with pytest.raises(ValueError):
            expected_runtime(10.0, 0.1, 100.0, interval_hours=-1.0)


class TestCheckpointPlan:
    def test_supernova_campaign(self):
        # Section 4.4: 32-processor runs lasting "roughly 4 months".
        # 1M SPH particles over 32 nodes, ~100 bytes/particle state.
        plan = CheckpointPlan(
            n_nodes=32, work_hours=4 * 30 * 24.0, state_bytes_per_node=1e6 / 32 * 100
        )
        # Several failures expected over four months on 32 nodes...
        assert plan.expected_failures > 1.0
        # ...but local-disk checkpoints keep overhead tiny.
        assert plan.overhead_fraction < 0.02
        assert plan.expected_wall_hours < 4 * 30 * 24.0 * 1.02

    def test_cosmology_run_fits_between_failures(self):
        # Section 4.3: the 24-hour 250-processor run completed "in a
        # single run" — plausible: expected failures below ~1.
        plan = CheckpointPlan(
            n_nodes=250, work_hours=24.0, state_bytes_per_node=134e6 / 250 * 48
        )
        assert plan.expected_failures < 1.0

    def test_dump_cost_from_disk_model(self):
        plan = CheckpointPlan(n_nodes=10, work_hours=100.0, state_bytes_per_node=2.8e9)
        # 2.8 GB at 28 MB/s local disk = 100 s.
        assert plan.dump_hours == pytest.approx(100.0 / 3600.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPlan(n_nodes=0, work_hours=1.0, state_bytes_per_node=1.0)

    @pytest.mark.parametrize("field, value", [
        ("n_nodes", 0),
        ("n_nodes", math.nan),
        ("work_hours", 0.0),
        ("work_hours", -1.0),
        ("work_hours", math.nan),
        ("work_hours", math.inf),
        ("state_bytes_per_node", 0.0),
        ("state_bytes_per_node", math.nan),
        ("state_bytes_per_node", math.inf),
        ("restart_hours", -0.5),
        ("restart_hours", math.nan),
        ("restart_hours", math.inf),
    ])
    def test_bad_field_refused_by_name(self, field, value):
        """Every derived number is cached from the fields, so a field
        none of them could be right for is refused up front."""
        fields = {"n_nodes": 8, "work_hours": 10.0, "state_bytes_per_node": 1e9,
                  "restart_hours": 0.5, field: value}
        with pytest.raises(ValueError, match=rf"^CheckpointPlan\.{field} must be "):
            CheckpointPlan(**fields)

    def test_zero_restart_is_allowed(self):
        plan = CheckpointPlan(n_nodes=8, work_hours=10.0, state_bytes_per_node=1e9,
                              restart_hours=0.0)
        assert plan.expected_wall_hours > 10.0


class TestPinnedBits:
    """What a cluster shard computes, pinned to the bit: a campaign's
    ``results.jsonl`` carries these numbers, so a change to how a plan
    derives them must leave every one of them equal."""

    PINS = [
        ({"n_nodes": 294, "work_hours": 24.0, "state_gb_per_node": 6.0, "restart_hours": 0.5},
         {"n_nodes": 294, "mtbf_hours": 281.7391304347826,
          "dump_hours": 0.059527142857142855, "optimal_interval_hours": 5.791567225861841,
          "expected_wall_hours": 24.538921511656255,
          "overhead_fraction": 0.022455062985677232, "expected_failures": 0.0870980238839651}),
        ({"n_nodes": 1, "work_hours": 0.25, "state_gb_per_node": 6.0, "restart_hours": 0.5},
         {"n_nodes": 1, "mtbf_hours": 82831.30434782608,
          "dump_hours": 0.059527142857142855, "optimal_interval_hours": 99.30469160071462,
          "expected_wall_hours": 0.2503013195182603,
          "overhead_fraction": 0.0012052780730411605,
          "expected_failures": 3.021820330960773e-06}),
        ({"n_nodes": 32, "work_hours": 2880.0, "state_gb_per_node": 0.003125,
          "restart_hours": 0.5},
         {"n_nodes": 32, "mtbf_hours": 2588.478260869565,
          "dump_hours": 3.433531746031746e-05, "optimal_interval_hours": 0.4216069800799957,
          "expected_wall_hours": 2881.025465370137,
          "overhead_fraction": 0.00035606436463098134,
          "expected_failures": 1.1130189922484783}),
        ({"n_nodes": 250, "work_hours": 24.0, "state_gb_per_node": 25.728,
          "restart_hours": 0.0},
         {"n_nodes": 250, "mtbf_hours": 331.3252173913043,
          "dump_hours": 0.25524142857142856, "optimal_interval_hours": 13.005223705011433,
          "expected_wall_hours": 24.95129573457998,
          "overhead_fraction": 0.03963732227416572, "expected_failures": 0.07530756617632217}),
        ({"n_nodes": 4095, "work_hours": 99.5, "state_gb_per_node": 64.0, "restart_hours": 3.0},
         {"n_nodes": 4095, "mtbf_hours": 20.22742474916388,
          "dump_hours": 0.6349239682539684, "optimal_interval_hours": 5.068111441019753,
          "expected_wall_hours": 142.59792841082592,
          "overhead_fraction": 0.4331450091540292, "expected_failures": 7.049732241209813}),
        ({"n_nodes": 7, "work_hours": 10000.0, "state_gb_per_node": 1e-06,
          "restart_hours": 0.125},
         {"n_nodes": 7, "mtbf_hours": 11833.043478260868,
          "dump_hours": 3.3432539682539686e-06, "optimal_interval_hours": 0.28128586727817445,
          "expected_wall_hours": 10000.343351248013,
          "overhead_fraction": 3.4335124801332384e-05,
          "expected_failures": 0.8451201391780729}),
    ]

    @pytest.mark.parametrize("fields, result", PINS, ids=[str(p[0]["n_nodes"]) for p in PINS])
    def test_shard_result(self, fields, result):
        assert run_campaign_scenario(fields) == result
        spec = ClusterSpec(**fields)
        assert spec.run() == result

    @settings(max_examples=300, deadline=None)
    @given(
        n_nodes=st.integers(1, 10_000),
        work_hours=st.floats(1e-3, 1e6),
        state_bytes_per_node=st.floats(1.0, 1e13),
        restart_hours=st.floats(0.0, 100.0),
    )
    def test_every_property_is_the_functions_on_the_fields(
            self, n_nodes, work_hours, state_bytes_per_node, restart_hours):
        plan = CheckpointPlan(n_nodes=n_nodes, work_hours=work_hours,
                              state_bytes_per_node=state_bytes_per_node,
                              restart_hours=restart_hours)
        dump = plan.node.disk.write_time_s(state_bytes_per_node / 1e6) / 3600.0
        mtbf = job_mtbf_hours(n_nodes)
        interval = young_interval(dump, mtbf)
        wall = expected_runtime(work_hours, dump, mtbf, interval, restart_hours)
        assert plan.dump_hours == dump
        assert plan.mtbf_hours == mtbf
        assert plan.optimal_interval_hours == interval
        assert plan.expected_wall_hours == wall
        assert plan.overhead_fraction == wall / work_hours - 1.0
        assert plan.expected_failures == wall / mtbf
