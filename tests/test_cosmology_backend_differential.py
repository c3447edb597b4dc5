"""Differential suite pinning the cosmology hot paths to their references.

Every batched fast path added for the kernel-backend routing is held to
its ``*_reference`` twin, per backend leg, across particle
counts N in {0, 1, 2, 1000} and uniform / clustered / single-cell
distributions (fixed seeds throughout):

* CIC deposit and interpolation, and the PM mesh forces built on them,
  are **bit-identical** — the fast deposit is one ``bincount_sum`` over
  the corner-major stencil, whose input order replays the reference's
  eight sequential ``np.add.at`` corner scatters exactly; the stencil's
  wrap by comparison is held to the references' integer ``mod`` on the
  box faces, and ``PMSolver.accelerations`` (one stencil for both
  halves) to the chain of the two references.
* The periodic wrap ``wrap_unit`` (``x - floor(x)``) equals
  ``np.mod(x, 1.0)`` as ``uint64`` bits on hypothesis-drawn doubles and
  bit patterns plus an explicit edge list, and is NaN for NaN and +-inf.
* Friends-of-friends catalogs are **bit-identical** — the
  min-label-propagation solver converges to the same component roots
  (the component-minimum index) the reference union-find produces.
  Beyond the shared N x distribution grid: hash grids of 1, 2 and 3
  cells a side (wrapped offsets alias one neighbour), a halo across
  the box face, coincident particles, pair-chunk seams inside a
  cell-pair block, and ``min_members`` 1 and 10.
* The catalog's batched halo centres and masses are **bit-identical**
  to the per-halo oracle (``_periodic_com``, ``masses[members].sum()``)
  over hypothesis-drawn halo sizes, masses and face-straddling blobs.
* Pair-count histograms are **bit-identical** integers, including
  ``np.histogram``'s closed last bin.
* Power-spectrum bins select identical mode sets; values carry a
  documented ~1e-12 relative tolerance because the reference reduces
  each bin with pairwise-summing ``np.mean`` while the fast path uses
  the sequential ``bincount_sum`` (see ``repro/cosmology/correlation.py``).

Runs in the CI ``backends`` matrix legs, which install hypothesis.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import get_backend
import repro.cosmology.fof as fof_module
from repro.core.traversal import DEFAULT_PAIR_CHUNK
from repro.cosmology import (
    PMSolver,
    cic_deposit,
    cic_deposit_reference,
    cic_interpolate,
    cic_interpolate_reference,
    friends_of_friends,
    friends_of_friends_reference,
    measured_power_spectrum,
    measured_power_spectrum_reference,
    pair_counts_periodic,
    pair_counts_periodic_reference,
)
from repro.cosmology.pm import wrap_unit
from tests.test_backend_threads import split_backend

#: The shared default backend plus two instances forced to split every
#: rectangle call over threads; cosmology's routed ops run inline on
#: them by design.  Their ids are the ones the legs they replaced (the
#: deleted process-pool backend, registered and forced) had.
BACKENDS = [get_backend(None),
    pytest.param(split_backend(2), id="multiprocess0"),
    pytest.param(split_backend(3), id="multiprocess1"),
]

SIZES = [0, 1, 2, 1000]


def _uniform(n, seed=0):
    return np.random.default_rng(seed).random((n, 3))


def _clustered(n, seed=0):
    """A few tight gaussian blobs, wrapped onto the unit torus."""
    rng = np.random.default_rng(seed)
    centers = rng.random((max(1, n // 64), 3))
    which = rng.integers(0, centers.shape[0], n)
    return np.mod(centers[which] + 0.01 * rng.standard_normal((n, 3)), 1.0)


def _single_cell(n, seed=0):
    """All particles inside one CIC/hash cell."""
    rng = np.random.default_rng(seed)
    return 0.503 + 1e-4 * rng.random((n, 3))


DISTRIBUTIONS = {
    "uniform": _uniform,
    "clustered": _clustered,
    "single_cell": _single_cell,
}


def _bname(b):
    return getattr(b, "name", str(b))


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", SIZES)
class TestCicBitIdentical:
    def test_deposit(self, backend, dist, n):
        pos = DISTRIBUTIONS[dist](n, seed=n + 1)
        ref = cic_deposit_reference(pos, grid=16)
        got = cic_deposit(pos, grid=16, backend=backend)
        assert np.array_equal(got, ref)

    def test_deposit_weighted(self, backend, dist, n):
        pos = DISTRIBUTIONS[dist](n, seed=n + 2)
        w = np.random.default_rng(n).uniform(0.5, 2.0, n)
        ref = cic_deposit_reference(pos, grid=8, weights=w)
        got = cic_deposit(pos, grid=8, weights=w, backend=backend)
        assert np.array_equal(got, ref)

    def test_interpolate(self, backend, dist, n):
        pos = DISTRIBUTIONS[dist](n, seed=n + 3)
        field = np.random.default_rng(9).standard_normal((8, 8, 8))
        ref = cic_interpolate_reference(field, pos)
        got = cic_interpolate(field, pos)
        assert np.array_equal(got, ref)


#: Where a cheaper wrap is most likely to part from ``np.mod``: signed
#: zeros, the smallest subnormals, the last double under 1, small
#: negatives (-2^-53 wraps to that double, -2^-60 rounds up to 1), halves
#: around 2^52 (where the spacing is 1) and the largest magnitudes.
_WRAP_EDGES = [0.0, -0.0, 2.0**-1074, -2.0**-1074, 1.0 - 2.0**-53, -2.0**-53, -2.0**-60,
               2.0**52 + 0.5, 2.0**52 - 0.5, -2.0**52 + 0.5, -2.0**52 - 0.5, 1e308, -1e308]


def _assert_wraps_like_mod(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf, fmod(inf, 1)
        got, ref = wrap_unit(x), np.mod(x, 1.0)
    finite = np.isfinite(x)
    assert np.array_equal(got[finite].view(np.uint64), ref[finite].view(np.uint64))
    assert np.isnan(got[~finite]).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
       st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_wrap_unit_is_mod_bit_for_bit(values, patterns):
    """``x - floor(x)`` and ``np.mod(x, 1.0)`` are one rounding of the same
    exact value, so they agree on every bit of every finite double (the
    drawn bit patterns include NaNs and infinities, which give NaN)."""
    _assert_wraps_like_mod(values)
    _assert_wraps_like_mod(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_wrap_unit_edges():
    _assert_wraps_like_mod(_WRAP_EDGES)
    assert wrap_unit(np.array([-2.0**-60]))[0] == 1.0  # rounds up, as np.mod does
    _assert_wraps_like_mod([np.nan, np.inf, -np.inf])


def _face_positions(grid, seed):
    """Coordinates on and around the box faces and the cell edges: exactly
    0 and 1, the last double under 1, negative, above 1, and values that
    ``mod(p, 1.0)`` rounds up to 1.0 (a lower index of ``grid``)."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, 1.0, 1.0 - 2.0**-53, -2.0**-60, -0.25, 1.75, -3.0, 2.0,
                        1.0 / grid, (grid - 1.0) / grid, 1.0 - 0.5 / grid])
    pos = np.concatenate([rng.choice(special, (300, 3)), rng.random((100, 3)) * 5.0 - 2.0])
    pos[:special.size, 0] = special  # every special value at least once
    return pos


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("grid", [4, 5])
def test_cic_stencil_wrap_edges_bit_identical(backend, grid):
    pos = _face_positions(grid, seed=grid)
    w = np.random.default_rng(grid).uniform(0.5, 2.0, pos.shape[0])
    assert (np.mod(pos, 1.0) == 1.0).any()  # the wrap-by-comparison case is present
    assert np.array_equal(cic_deposit(pos, grid, backend=backend),
                          cic_deposit_reference(pos, grid))
    assert np.array_equal(cic_deposit(pos, grid, w, backend=backend),
                          cic_deposit_reference(pos, grid, w))
    fields = np.random.default_rng(9).standard_normal((3, grid, grid, grid))
    for field in (fields[0], fields):  # single and stacked
        assert np.array_equal(cic_interpolate(field, pos),
                              cic_interpolate_reference(field, pos))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("grid", [4, 5, 16])
def test_pm_accelerations_equal_the_reference_chain(grid, weighted):
    """``accelerations`` builds one stencil for deposit and interpolation;
    the two references each build their own geometry."""
    pos = np.concatenate([_face_positions(grid, seed=3), _clustered(400, seed=4)])
    w = np.random.default_rng(5).uniform(0.5, 2.0, pos.shape[0]) if weighted else None
    solver = PMSolver(grid)
    rho = cic_deposit_reference(pos, grid, w)
    phik = -np.fft.fftn(rho / rho.mean() - 1.0) * solver._inv_k2 * solver._decon
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid) * grid
    ks = np.meshgrid(k1, k1, k1, indexing="ij")
    grids = np.array([np.real(np.fft.ifftn(-1j * k * phik)) for k in ks])
    assert np.array_equal(solver.accelerations(pos, w),
                          cic_interpolate_reference(grids, pos).T)


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_pm_mesh_forces_bit_identical(backend, dist):
    """Deposit is the only routed op in the PM pipeline, so the mesh
    accelerations must be bit-identical across backends."""
    pos = DISTRIBUTIONS[dist](500, seed=31)
    ref = PMSolver(grid=16).accelerations(pos)
    got = PMSolver(grid=16, backend=backend).accelerations(pos)
    assert np.array_equal(got, ref)


def _assert_same_catalog(pos, backend, **kwargs):
    ref = friends_of_friends_reference(pos, **kwargs)
    got = friends_of_friends(pos, backend=backend, **kwargs)
    assert np.array_equal(got.group_id, ref.group_id)
    assert got.n_halos == ref.n_halos
    for h_got, h_ref in zip(got.halos, ref.halos):
        assert np.array_equal(h_got.members, h_ref.members)
        assert h_got.mass == h_ref.mass
        assert np.array_equal(h_got.center, h_ref.center)
    return got


def _assert_catalog_matches_per_halo_oracle(pos, masses, res):
    """Batched centres and masses == the per-halo oracle, and the catalog
    is the ascending-root order stably sorted by descending mass."""
    wrapped = np.mod(pos, 1.0)
    for h in res.halos:
        assert np.array_equal(h.center,
                              fof_module._periodic_com(wrapped[h.members], masses[h.members]))
        assert h.mass == float(masses[h.members].sum())
        assert np.array_equal(h.members, np.sort(h.members))
    keys = [(-h.mass, h.members[0]) for h in res.halos]  # root = smallest member
    assert keys == sorted(keys)
    for i, h in enumerate(res.halos):
        assert (res.group_id[h.members] == i).all()


@st.composite
def _blob_boxes(draw):
    """Blobs of drawn sizes (repeated sizes likely), some centred on a
    periodic face or corner, with non-uniform masses, over a thin background."""
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=25))
    on_face = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(seed)
    blobs = []
    for size, face in zip(sizes, on_face):
        centre = rng.random(3)
        if face:
            centre[rng.integers(0, 3, size=rng.integers(1, 4))] = rng.choice([0.0, 1.0])
        blobs.append(centre + 0.002 * rng.standard_normal((size, 3)))  # left unwrapped
    pos = np.concatenate(blobs + [rng.random((draw(st.integers(0, 60)), 3))])
    mass_scale = draw(st.sampled_from([1.0, 1e-12, 1e9]))
    return pos, mass_scale * (0.1 + rng.random(pos.shape[0]))


@settings(max_examples=60, deadline=None)
@given(_blob_boxes(), st.sampled_from([1, 2, 5]))
def test_fof_batched_centres_equal_per_halo_oracle(box, min_members):
    pos, masses = box
    res = friends_of_friends(pos, masses, linking_length=0.2, min_members=min_members)
    _assert_catalog_matches_per_halo_oracle(pos, masses, res)


def test_fof_batched_centres_large_and_equal_mass_halos():
    """Size classes past numpy's pairwise-summation block (128), and the
    default equal masses, where the descending-mass sort is all ties."""
    rng = np.random.default_rng(23)
    blobs = [rng.random(3) + 0.001 * rng.standard_normal((size, 3))
             for size in (300, 300, 129, 129, 128, 17, 17, 17, 9, 8)]
    pos = np.concatenate(blobs + [rng.random((100, 3))])
    masses = 0.5 + rng.random(pos.shape[0])
    for m in (masses, np.full(pos.shape[0], 1.0 / pos.shape[0])):
        res = friends_of_friends(pos, m, linking_length=0.2, min_members=2)
        assert res.halos[0].n_members >= 300
        _assert_catalog_matches_per_halo_oracle(pos, m, res)


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", SIZES)
def test_fof_catalogs_bit_identical(backend, dist, n):
    pos = DISTRIBUTIONS[dist](n, seed=n + 5)
    _assert_same_catalog(pos, backend, linking_length=0.2, min_members=2)


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("min_members", [1, 10])
@pytest.mark.parametrize("linking_length", [0.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_fof_small_grids_bit_identical(backend, n, linking_length, min_members):
    """Hash grids of int(n^(1/3) / linking_length) = 1, 2, 3 and 6 cells
    a side: under three, the 27 wrapped offsets name the same neighbour
    cell more than once."""
    for dist in ("uniform", "clustered"):
        pos = DISTRIBUTIONS[dist](n, seed=n + 11)
        _assert_same_catalog(
            pos, backend, linking_length=linking_length, min_members=min_members
        )


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("min_members", [1, 10])
def test_fof_halo_across_box_face_bit_identical(backend, min_members):
    rng = np.random.default_rng(17)
    blob = np.array([0.999, 0.5, 0.001]) + 0.004 * rng.standard_normal((60, 3))
    pos = np.concatenate([blob, rng.random((200, 3))])  # blob left unwrapped
    got = _assert_same_catalog(pos, backend, linking_length=0.2, min_members=min_members)
    assert got.halos[0].n_members >= 50  # one halo, not one per face


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("min_members", [1, 10])
def test_fof_coincident_particles_bit_identical(backend, min_members):
    pos = np.full((40, 3), 0.25)
    got = _assert_same_catalog(pos, backend, linking_length=0.2, min_members=min_members)
    assert [h.n_members for h in got.halos] == [40]


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
def test_fof_dense_cell_spans_pair_chunks(backend):
    """One cell-pair block of n^2 candidates, cut by a chunk seam."""
    n = 300
    assert n * n > DEFAULT_PAIR_CHUNK
    got = _assert_same_catalog(
        _single_cell(n, seed=13), backend, linking_length=0.2, min_members=1
    )
    assert [h.n_members for h in got.halos] == [n]


@pytest.mark.parametrize("dist", ["uniform", "clustered"])
def test_fof_chunk_seams_anywhere(monkeypatch, dist):
    """A 7-candidate chunk puts seams inside and between most blocks."""
    monkeypatch.setattr(fof_module, "DEFAULT_PAIR_CHUNK", 7)
    pos = DISTRIBUTIONS[dist](200, seed=19)
    for linking_length in (0.2, 0.5):
        _assert_same_catalog(pos, None, linking_length=linking_length, min_members=1)


def test_fof_dense_cell_temporaries_bounded():
    """3 000 particles in one hash cell: the per-block path this replaced
    (what the reference still does) builds that cell's (A, B, 3) float64
    separation block whole; the chunked pass must peak below that one
    array.  The linking length is short, so the close-pair edge list —
    which is not bounded — stays small here."""
    n = 3000
    pos = (20.0 + np.random.default_rng(3).random((n, 3))) / 64.0  # 64-cell grid
    tracemalloc.start()
    try:
        res = friends_of_friends(pos, linking_length=0.05, min_members=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.group_id >= 0).all()
    block_bytes = n * n * 3 * 8
    assert peak < block_bytes / 4


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", SIZES)
def test_pair_counts_bit_identical(backend, dist, n):
    pos = DISTRIBUTIONS[dist](n, seed=n + 7)
    edges = np.array([0.0, 0.02, 0.05, 0.1, 0.25])
    ref = pair_counts_periodic_reference(pos, edges)
    got = pair_counts_periodic(pos, edges, backend=backend)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
def test_pair_counts_closed_last_bin(backend):
    # Separation exactly on the last edge: np.histogram closes that
    # bin, and the searchsorted fast path must replicate it.
    pos = np.array([[0.0, 0.5, 0.5], [0.25, 0.5, 0.5]])
    edges = np.array([0.0, 0.1, 0.25])
    ref = pair_counts_periodic_reference(pos, edges)
    got = pair_counts_periodic(pos, edges, backend=backend)
    assert ref[-1] == 1  # the fixture really is on the edge
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("backend", BACKENDS, ids=_bname)
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("n", [1, 2, 1000])
def test_power_spectrum_tolerance(backend, dist, n):
    """Same mode sets; values to the documented ~1e-12 summation-order
    tolerance (np.mean is pairwise, bincount_sum is sequential)."""
    pos = DISTRIBUTIONS[dist](n, seed=n + 9)
    k_ref, p_ref = measured_power_spectrum_reference(pos, grid=16, n_bins=8)
    k_got, p_got = measured_power_spectrum(pos, grid=16, n_bins=8, backend=backend)
    assert k_got.shape == k_ref.shape  # identical surviving-bin sets
    assert np.allclose(k_got, k_ref, rtol=1e-12, atol=0.0)
    assert np.allclose(p_got, p_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fn", [measured_power_spectrum,
                                measured_power_spectrum_reference])
def test_power_spectrum_empty_raises(fn):
    with pytest.raises(ValueError, match="no particles"):
        fn(np.empty((0, 3)), grid=16, n_bins=8)


def test_fof_empty_input():
    for res in (
        friends_of_friends_reference(np.empty((0, 3)), linking_length=0.2),
        friends_of_friends(np.empty((0, 3)), linking_length=0.2),
    ):
        assert res.n_halos == 0
        assert res.group_id.shape == (0,)
        assert res.group_id.dtype == np.int64
