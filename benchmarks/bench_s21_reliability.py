"""Bench S21 — regenerate the Section 2.1 failure statistics.

Monte-Carlo replays of the cluster's first nine months against the
paper's observed counts (install defects and service failures per
component), plus the SMART-prediction claim and node availability.
"""

import numpy as np

from repro.analysis import format_table
from repro.cluster import (
    INSTALL_DEFECTS,
    SERVICE_FAILURES_9MO,
    SS_COMPONENTS,
    FailureModel,
)

from _harness import Bench


TRIALS = 100


def _build():
    model = FailureModel()
    sims = [model.simulate(seed=s) for s in range(TRIALS)]
    mean_install = {
        c.kind: float(np.mean([s.install_defects[c.kind] for s in sims])) for c in SS_COMPONENTS
    }
    mean_service = {
        c.kind: float(np.mean([s.service_failures[c.kind] for s in sims])) for c in SS_COMPONENTS
    }
    smart = sum(s.smart_predicted for s in sims) / max(
        sum(s.service_failures["disk drive"] for s in sims), 1
    )
    avail = float(np.mean([s.availability for s in sims]))
    return model, mean_install, mean_service, smart, avail


def report(result) -> str:
    _, mean_install, mean_service, smart, avail = result
    rows = [
        [c.kind, INSTALL_DEFECTS[c.kind], mean_install[c.kind],
         SERVICE_FAILURES_9MO[c.kind], mean_service[c.kind],
         c.mtbf_hours / 8766.0 if np.isfinite(c.mtbf_hours) else float("inf")]
        for c in SS_COMPONENTS
    ]
    return "\n".join([
        format_table(
            ["component", "install (paper)", "install (MC)", "9-mo (paper)", "9-mo (MC)", "MTBF years"],
            rows, "Section 2.1: component failures, 294-node cluster",
        ),
        f"SMART-predicted fraction of disk failures: {smart:.2f} (paper: 'a majority')",
        f"mean node availability over 9 months: {avail:.4f}",
    ])


def check(result) -> None:
    _, mean_install, mean_service, smart, avail = result
    for c in SS_COMPONENTS:
        assert abs(mean_install[c.kind] - INSTALL_DEFECTS[c.kind]) <= max(
            1.0, 0.3 * INSTALL_DEFECTS[c.kind]
        ), c.kind
        assert abs(mean_service[c.kind] - SERVICE_FAILURES_9MO[c.kind]) <= max(
            1.0, 0.3 * SERVICE_FAILURES_9MO[c.kind]
        ), c.kind
    assert smart > 0.5
    assert avail > 0.995


BENCH = Bench(
    ("section", "reliability"), _build, check, report=report,
    params={"trials": TRIALS},
    counters=lambda r: {"availability": r[4], "smart_predicted_ratio": r[3]},
    notes="reduced Monte-Carlo trial count",
)


if __name__ == "__main__":
    BENCH.cli(__file__, __doc__)
