"""SPEC CPU2000 score model (Section 3.5)."""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".cpu2000": (
        "SPECINT2000_SS", "SPECFP2000_SS", "NODE_COST_NO_NETWORK", "HP_RX2600_SPECFP",
        "spec_profiles", "spec_scores", "price_per_specfp", "breakeven_price_vs",
    ),
})
