"""Tests for repro.core.outofcore: disk-backed force evaluation."""

import os
import tempfile

import numpy as np
import pytest

from repro.core import direct_accelerations, outofcore, tree_accelerations
from repro.core.outofcore import OutOfCoreParticles, out_of_core_accelerations


@pytest.fixture
def store(tmp_path):
    rng = np.random.default_rng(3)
    pos = rng.random((1200, 3))
    m = rng.random(1200) + 0.1
    s = OutOfCoreParticles.create(pos, m, directory=str(tmp_path))
    yield s, pos, m
    s.cleanup()


class TestStore:
    def test_round_trip_through_disk(self, store):
        s, pos, m = store
        assert np.array_equal(np.asarray(s.positions), pos)
        assert np.array_equal(np.asarray(s.masses), m)
        assert s.n_particles == 1200

    def test_files_exist_on_disk(self, store):
        s, _, _ = store
        assert os.path.exists(os.path.join(s.directory, "positions.npy"))
        assert os.path.exists(os.path.join(s.directory, "masses.npy"))

    def test_cleanup_removes_files(self, tmp_path):
        s = OutOfCoreParticles.create(np.random.rand(10, 3), np.ones(10), str(tmp_path / "x"))
        s.cleanup()
        assert not os.path.exists(os.path.join(s.directory, "positions.npy"))

    def test_cleanup_removes_a_directory_it_made(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        s = OutOfCoreParticles.create(np.random.rand(10, 3), np.ones(10))
        s.cleanup()
        assert os.listdir(tmp_path) == []

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            OutOfCoreParticles.create(np.zeros((5, 2)), np.ones(5), str(tmp_path / "a"))
        with pytest.raises(ValueError):
            OutOfCoreParticles.create(np.zeros((5, 3)), np.ones(4), str(tmp_path / "b"))


class TestOutOfCoreForces:
    def test_matches_in_core_treecode(self, store):
        s, pos, m = store
        ooc = out_of_core_accelerations(s, theta=0.5, eps=0.05, chunk=256)
        ic = tree_accelerations(pos, m, theta=0.5, eps=0.05)
        # Identical tree, identical MAC, the same walk and evaluator:
        # identical bits.
        assert np.array_equal(ooc.accelerations, ic.accelerations)
        assert np.array_equal(ooc.potentials, ic.potentials)
        assert ooc.counts.p2p == ic.counts.p2p
        assert ooc.counts.p2c == ic.counts.p2c

    def test_matches_direct_physics(self, store):
        s, pos, m = store
        ooc = out_of_core_accelerations(s, theta=0.4, eps=0.05, chunk=300)
        exact = direct_accelerations(pos, m, eps=0.05)
        rel = np.linalg.norm(ooc.accelerations - exact.accelerations, axis=1) / np.linalg.norm(
            exact.accelerations, axis=1
        )
        assert np.median(rel) < 1e-3

    def test_chunk_size_does_not_change_answer(self, store):
        s, _, _ = store
        a = out_of_core_accelerations(s, theta=0.6, eps=0.05, chunk=128)
        b = out_of_core_accelerations(s, theta=0.6, eps=0.05, chunk=1200)
        assert np.array_equal(a.accelerations, b.accelerations)
        assert np.array_equal(a.potentials, b.potentials)
        assert a.chunks_processed > b.chunks_processed

    def test_chunk_accounting(self, store):
        s, _, _ = store
        r = out_of_core_accelerations(s, theta=0.6, eps=0.05, chunk=200)
        assert r.chunks_processed == 6

    def test_residency_bounded_at_scale(self, tmp_path):
        # Locality pays off once N is large enough that near fields are
        # a small fraction of the volume: peak resident particles stay
        # well under N.
        rng = np.random.default_rng(9)
        n = 4000
        s = OutOfCoreParticles.create(rng.random((n, 3)), np.ones(n), str(tmp_path / "big"))
        r = out_of_core_accelerations(s, theta=0.6, eps=0.01, chunk=256)
        assert r.peak_resident_particles < 0.6 * n
        s.cleanup()

    def test_validation(self, store):
        s, _, _ = store
        with pytest.raises(ValueError):
            out_of_core_accelerations(s, chunk=4, bucket_size=32)
        with pytest.raises(ValueError, match="softening"):
            out_of_core_accelerations(s, eps=-0.1)


class TestScratchFiles:
    """The Morton-sorted scratch copy is removed, however the call ends."""

    @pytest.fixture
    def scratch(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        s = OutOfCoreParticles.create(rng.random((300, 3)), np.ones(300), str(tmp_path / "store"))
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        return s, temp

    def test_nothing_left_after_a_call(self, scratch):
        s, temp = scratch
        out_of_core_accelerations(s, theta=0.6, eps=0.05, chunk=64)
        assert os.listdir(temp) == []

    def test_nothing_left_after_a_failed_call(self, scratch, monkeypatch):
        s, temp = scratch

        def fail(*args, **kwargs):
            assert len(os.listdir(temp)) == 1  # the sorted files exist now
            raise RuntimeError("tree build failed")

        monkeypatch.setattr(outofcore, "build_tree", fail)
        with pytest.raises(RuntimeError, match="tree build failed"):
            out_of_core_accelerations(s, chunk=64)
        assert os.listdir(temp) == []
