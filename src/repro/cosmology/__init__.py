"""Cosmological N-body simulation (Section 4.3, Figure 7).

FRW background and linear growth, BBKS power spectra, Zel'dovich
initial conditions, periodic particle-mesh gravity with a
growth-factor-exact comoving leapfrog, friends-of-friends halo
finding, clustering statistics, and the performance model of the
paper's 134-million-particle production run.
"""

from .._namespace import namespace

__all__, __getattr__, __dir__ = namespace(__name__, {
    ".background": ("Cosmology", "LCDM", "EDS"),
    ".correlation": (
        "pair_counts_periodic", "pair_counts_periodic_reference", "correlation_function",
        "measured_power_spectrum", "measured_power_spectrum_reference",
    ),
    ".fof": ("Halo", "FofResult", "friends_of_friends", "friends_of_friends_reference"),
    ".ics": ("InitialConditions", "zeldovich_ics", "gaussian_field"),
    ".pm": (
        "PMSolver", "cic_deposit", "cic_deposit_reference", "cic_interpolate",
        "cic_interpolate_reference",
    ),
    ".power": ("PowerSpectrum", "bbks_transfer", "tophat_window"),
    ".simulation": ("ComovingSimulation", "CosmologyRunModel", "PAPER_RUN"),
})
