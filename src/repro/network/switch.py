"""Model of the Foundry FastIron switch fabric.

Section 3.1 characterizes the fabric with a purpose-built MPI test that
drives simultaneous pair traffic along hypercube edges and observes:

* within a 16-port switch module, messages are non-blocking (each pair
  gets full gigabit line rate);
* the backplane capacity from one module to another is 8 Gbit/s raw,
  of which 16 simultaneous streams sustain about 6000 Mbit/s;
* the Space Simulator's fabric is a FastIron 1500 trunked to a FastIron
  800, and traffic between the two switches shares an 8 Gbit/s trunk —
  "this limits the scaling of codes running on more than about 256
  processors."

The model is a capacitated-link network with **max-min fair** rate
allocation (progressive water-filling).  A flow crosses: its source
port, possibly its source module's backplane uplink, possibly the
inter-switch trunk, possibly the destination module's backplane
downlink, and the destination port.  Ports carry 1 Gbit/s per
direction; module backplane links carry ``8000 * backplane_efficiency``
Mbit/s (the 0.75 default reproduces the measured 6000 Mbit/s); the
trunk carries 8000 Mbit/s of fiber.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PortLocation",
    "Flow",
    "SwitchSpec",
    "FabricModel",
    "SPACE_SIMULATOR_FABRIC",
    "FASTIRON_1500",
    "FASTIRON_800",
]

PORT_MBITS = 1000.0
MODULE_RAW_MBITS = 8000.0
TRUNK_MBITS = 8000.0


@dataclass(frozen=True)
class SwitchSpec:
    """A chassis switch built from 16-port gigabit modules."""

    name: str
    modules: int
    ports_per_module: int = 16

    def __post_init__(self) -> None:
        if self.modules <= 0 or self.ports_per_module <= 0:
            raise ValueError("modules and ports_per_module must be positive")

    @property
    def ports(self) -> int:
        return self.modules * self.ports_per_module


#: 224 ports cabled on the lower switch in Figure 1.
FASTIRON_1500 = SwitchSpec("Foundry FastIron 1500", modules=14)
#: The 800 provides the remaining ports (304 total across the fabric).
FASTIRON_800 = SwitchSpec("Foundry FastIron 800", modules=5)


@dataclass(frozen=True, order=True)
class PortLocation:
    """Physical location of a port: (switch index, module index, port index)."""

    switch: int
    module: int
    port: int


@dataclass(frozen=True)
class Flow:
    """A unidirectional stream between two ports."""

    src: PortLocation
    dst: PortLocation


class FabricModel:
    """Max-min fair throughput model of a trunked multi-switch fabric.

    The hierarchy is static, so ``total_ports`` and ``port_table`` (the
    ``(switch, module)`` :meth:`locate` gives every flat port index, for
    per-message readers that cannot afford its walk) are computed once
    at construction; :meth:`locate` stays the validating spec.
    """

    def __init__(
        self,
        switches: tuple[SwitchSpec, ...] = (FASTIRON_1500, FASTIRON_800),
        *,
        backplane_efficiency: float = 0.75,
        trunk_mbits: float = TRUNK_MBITS,
        port_mbits: float = PORT_MBITS,
    ):
        if not switches:
            raise ValueError("at least one switch is required")
        if not 0 < backplane_efficiency <= 1:
            raise ValueError("backplane_efficiency must be in (0, 1]")
        self.switches = switches
        self.backplane_efficiency = backplane_efficiency
        self.trunk_mbits = trunk_mbits
        self.port_mbits = port_mbits
        self.total_ports = sum(s.ports for s in switches)
        self.port_table = tuple((loc.switch, loc.module)
                                for loc in map(self.locate, range(self.total_ports)))

    def locate(self, port_index: int) -> PortLocation:
        """Map a flat 0-based port index to its physical location.

        Ports are numbered switch by switch, module by module — the
        natural cabling order for a cluster (node *i* plugs into port
        *i*).
        """
        if port_index < 0:
            raise ValueError(f"port index must be non-negative, got {port_index}")
        remaining = port_index
        for s_idx, spec in enumerate(self.switches):
            if remaining < spec.ports:
                return PortLocation(s_idx, remaining // spec.ports_per_module, remaining % spec.ports_per_module)
            remaining -= spec.ports
        raise ValueError(f"port index {port_index} exceeds fabric size {self.total_ports}")

    def _validate(self, loc: PortLocation) -> None:
        if not 0 <= loc.switch < len(self.switches):
            raise ValueError(f"no such switch: {loc.switch}")
        spec = self.switches[loc.switch]
        if not 0 <= loc.module < spec.modules:
            raise ValueError(f"no module {loc.module} on {spec.name}")
        if not 0 <= loc.port < spec.ports_per_module:
            raise ValueError(f"no port {loc.port} on a {spec.ports_per_module}-port module")

    def _flow_links(self, flow: Flow) -> list[tuple]:
        """Capacitated links traversed by a flow, as hashable link ids."""
        self._validate(flow.src)
        self._validate(flow.dst)
        links: list[tuple] = [("port_tx", flow.src)]
        same_switch = flow.src.switch == flow.dst.switch
        same_module = same_switch and flow.src.module == flow.dst.module
        if not same_module:
            links.append(("module_up", flow.src.switch, flow.src.module))
            if not same_switch:
                links.append(("trunk",))
            links.append(("module_down", flow.dst.switch, flow.dst.module))
        links.append(("port_rx", flow.dst))
        return links

    def _capacity(self, link: tuple) -> float:
        kind = link[0]
        if kind in ("port_tx", "port_rx"):
            return self.port_mbits
        if kind in ("module_up", "module_down"):
            return MODULE_RAW_MBITS * self.backplane_efficiency
        if kind == "trunk":
            return self.trunk_mbits
        raise ValueError(f"unknown link kind {kind!r}")

    def flow_rates(self, flows: list[Flow]) -> list[float]:
        """Max-min fair rate (Mbit/s) for each flow via water-filling.

        Repeatedly finds the most contended link (smallest residual
        capacity per unsaturated flow), freezes its flows at the fair
        share, and removes the used capacity, until all flows are fixed.
        """
        if not flows:
            return []
        flow_links = [self._flow_links(f) for f in flows]
        residual: dict[tuple, float] = {}
        members: dict[tuple, set[int]] = {}
        for i, links in enumerate(flow_links):
            for link in links:
                residual.setdefault(link, self._capacity(link))
                members.setdefault(link, set()).add(i)
        rates = [0.0] * len(flows)
        unfixed = set(range(len(flows)))
        while unfixed:
            # Bottleneck link: minimal fair share among links with
            # active flows.
            best_link = None
            best_share = float("inf")
            for link, flow_set in members.items():
                active = flow_set & unfixed
                if not active:
                    continue
                share = residual[link] / len(active)
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            saturated = members[best_link] & unfixed
            for i in saturated:
                rates[i] = best_share
                for link in flow_links[i]:
                    residual[link] -= best_share
                unfixed.discard(i)
        return rates

    def aggregate_mbits(self, flows: list[Flow]) -> float:
        """Total fabric throughput for a flow set."""
        return sum(self.flow_rates(flows))


#: The fabric as installed: FastIron 1500 + 800, 304 gigabit ports.
SPACE_SIMULATOR_FABRIC = FabricModel()
