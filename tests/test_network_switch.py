"""Tests for repro.network.switch and topology: the Section 3.1 fabric."""

import pytest

from repro.network import (
    FASTIRON_800,
    FASTIRON_1500,
    SPACE_SIMULATOR_FABRIC,
    FabricModel,
    Flow,
    PortLocation,
    SwitchSpec,
    bisection_flows,
    cross_module_flows,
    effective_pairwise_mbits,
    hypercube_pairs,
    pair_flows,
)


class TestSwitchSpecs:
    def test_fabric_has_at_least_294_ports(self):
        # Paper: "304 Gigabit ports" across the 1500 + 800.
        assert SPACE_SIMULATOR_FABRIC.total_ports == 304
        assert SPACE_SIMULATOR_FABRIC.total_ports >= 294

    def test_module_port_counts(self):
        assert FASTIRON_1500.ports == 224  # the 224 cables in Fig 1
        assert FASTIRON_800.ports == 80


class TestLocate:
    def test_first_switch_first_module(self):
        loc = SPACE_SIMULATOR_FABRIC.locate(0)
        assert loc == PortLocation(0, 0, 0)

    def test_module_boundaries(self):
        assert SPACE_SIMULATOR_FABRIC.locate(15).module == 0
        assert SPACE_SIMULATOR_FABRIC.locate(16).module == 1

    def test_switch_boundary(self):
        assert SPACE_SIMULATOR_FABRIC.locate(223).switch == 0
        assert SPACE_SIMULATOR_FABRIC.locate(224).switch == 1
        assert SPACE_SIMULATOR_FABRIC.locate(224).module == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SPACE_SIMULATOR_FABRIC.locate(304)
        with pytest.raises(ValueError):
            SPACE_SIMULATOR_FABRIC.locate(-1)

    @pytest.mark.parametrize("fabric", [
        SPACE_SIMULATOR_FABRIC,
        FabricModel((FASTIRON_800,)),
        FabricModel((SwitchSpec("a", 2, 3), SwitchSpec("b", 1, 7), SwitchSpec("c", 3, 2))),
    ], ids=["installed", "one-switch", "three-switch"])
    def test_port_table_is_locate_for_every_port(self, fabric):
        """The table the cost model reads is `locate`, precomputed."""
        assert fabric.total_ports == sum(s.ports for s in fabric.switches)
        assert len(fabric.port_table) == fabric.total_ports
        for i, entry in enumerate(fabric.port_table):
            loc = fabric.locate(i)
            assert entry == (loc.switch, loc.module)
        for bad in (-1, fabric.total_ports):
            with pytest.raises(ValueError):
                fabric.locate(bad)

    def test_port_table_of_a_small_fabric_written_out(self):
        fabric = FabricModel((SwitchSpec("a", 2, 3), SwitchSpec("b", 1, 7), SwitchSpec("c", 3, 2)))
        assert fabric.port_table == (
            ((0, 0),) * 3 + ((0, 1),) * 3 + ((1, 0),) * 7
            + ((2, 0),) * 2 + ((2, 1),) * 2 + ((2, 2),) * 2)


class TestFlowRates:
    def test_single_flow_gets_line_rate(self):
        fabric = SPACE_SIMULATOR_FABRIC
        flows = [Flow(fabric.locate(0), fabric.locate(1))]
        assert fabric.flow_rates(flows) == [pytest.approx(1000.0)]

    def test_intra_module_pairs_nonblocking(self):
        # "Within a 16-port switch module, the messages are non-blocking."
        fabric = SPACE_SIMULATOR_FABRIC
        flows = [Flow(fabric.locate(2 * i), fabric.locate(2 * i + 1)) for i in range(8)]
        for rate in fabric.flow_rates(flows):
            assert rate == pytest.approx(1000.0)

    def test_cross_module_16_streams_saturate_at_6000(self):
        # "with 16 processors on one module sending to 16 on another
        # module, the total throughput was about 6000 Mbits."
        fabric = SPACE_SIMULATOR_FABRIC
        flows = cross_module_flows(fabric, 0, 1, n_streams=16)
        assert fabric.aggregate_mbits(flows) == pytest.approx(6000.0, rel=0.01)

    def test_few_cross_module_streams_uncontended(self):
        fabric = SPACE_SIMULATOR_FABRIC
        flows = cross_module_flows(fabric, 0, 1, n_streams=4)
        for rate in fabric.flow_rates(flows):
            assert rate == pytest.approx(1000.0)

    def test_trunk_limits_cross_switch_traffic(self):
        # 32 streams from switch 0 to switch 1 share the 8 Gbit trunk.
        fabric = SPACE_SIMULATOR_FABRIC
        flows = [Flow(fabric.locate(i), fabric.locate(224 + i)) for i in range(32)]
        total = fabric.aggregate_mbits(flows)
        assert total <= 8000.0 + 1e-6
        assert total == pytest.approx(8000.0, rel=0.05)

    def test_empty_flow_list(self):
        assert SPACE_SIMULATOR_FABRIC.flow_rates([]) == []

    def test_max_min_fairness_mixed_traffic(self):
        # One intra-module flow and sixteen cross-module flows: the
        # intra-module flow must keep full line rate.
        fabric = SPACE_SIMULATOR_FABRIC
        cross = cross_module_flows(fabric, 1, 2, n_streams=16)
        local = Flow(PortLocation(0, 0, 0), PortLocation(0, 0, 1))
        rates = fabric.flow_rates([local] + cross)
        assert rates[0] == pytest.approx(1000.0)
        assert sum(rates[1:]) == pytest.approx(6000.0, rel=0.01)

    def test_invalid_flow_rejected(self):
        fabric = SPACE_SIMULATOR_FABRIC
        bad = Flow(PortLocation(0, 99, 0), PortLocation(0, 0, 1))
        with pytest.raises(ValueError):
            fabric.flow_rates([bad])

    def test_backplane_efficiency_validation(self):
        with pytest.raises(ValueError):
            FabricModel(backplane_efficiency=0.0)
        with pytest.raises(ValueError):
            FabricModel(switches=())


class TestTopology:
    def test_hypercube_pairs_dimension_zero(self):
        assert hypercube_pairs(4, 0) == [(0, 1), (2, 3)]

    def test_hypercube_pairs_dimension_one(self):
        assert hypercube_pairs(4, 1) == [(0, 2), (1, 3)]

    def test_hypercube_pairs_skip_out_of_range(self):
        # 6 ranks, dimension 2: 2^2=4 partner of 0 is 4 (ok), of 1 is 5
        # (ok), of 2 is 6 (out), of 3 is 7 (out).
        assert hypercube_pairs(6, 2) == [(0, 4), (1, 5)]

    def test_pair_flows_bidirectional(self):
        flows = pair_flows(SPACE_SIMULATOR_FABRIC, [(0, 1)])
        assert len(flows) == 2

    def test_bisection_validation(self):
        with pytest.raises(ValueError):
            bisection_flows(SPACE_SIMULATOR_FABRIC, 3)

    def test_bisection_within_switch_vs_across_trunk(self):
        fabric = SPACE_SIMULATOR_FABRIC
        # 32 ranks: module 0 mirrors onto module 1 — one backplane hop,
        # so the aggregate is the 6000 Mbit/s cross-module ceiling.
        small = fabric.aggregate_mbits(bisection_flows(fabric, 32))
        # 294 ranks: 70 of the 147 mirror flows cross the 8 Gbit trunk.
        large = fabric.aggregate_mbits(bisection_flows(fabric, 294))
        assert small == pytest.approx(6000.0, rel=0.01)
        # Per-rank bisection bandwidth collapses at full scale.
        assert large / 147 < small / 16

    def test_effective_pairwise_degrades_past_256(self):
        # "This limits the scaling of codes running on more than about
        # 256 processors": hypercube exchanges at 294 ranks cross the
        # trunk and see far less than line rate.
        fabric = SPACE_SIMULATOR_FABRIC
        small = effective_pairwise_mbits(fabric, 16)
        full = effective_pairwise_mbits(fabric, 294)
        assert small == pytest.approx(1000.0, rel=0.01)
        assert full < 300.0
