"""Spectral norm and seeded randomness."""

import numpy as np
import pytest

from nmdesc.linalg import RngStream, SpectralNormError, spectral_norm


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-6)

    def test_matches_svd_oracle(self):
        # independent dense SVD is the oracle
        A = RngStream(11).standard_normal((5, 3))
        oracle = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A, tol=1e-10) == pytest.approx(oracle, rel=1e-8)

    def test_transpose_invariance(self):
        A = RngStream(4).standard_normal((7, 4))
        a = spectral_norm(A, tol=1e-8)
        b = spectral_norm(A.T, tol=1e-8)
        assert a == pytest.approx(b, rel=1e-6)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((2, 2)))

    def test_nonconvergence_carries_estimate(self):
        A = RngStream(5).standard_normal((6, 6))
        with pytest.raises(SpectralNormError) as err:
            spectral_norm(A, tol=1e-16, max_iter=2)
        assert err.value.estimate > 0.0


class TestRng:
    def test_same_seed_identical(self):
        a = RngStream(42).standard_normal((4, 5))
        b = RngStream(42).standard_normal((4, 5))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).standard_normal((4, 5))
        b = RngStream(2).standard_normal((4, 5))
        assert np.any(a != b)

    def test_moments(self):
        draws = RngStream(7).standard_normal((100000,))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_interleaved_replay_byte_identical(self):
        def schedule(rng):
            return [
                rng.standard_normal(3),
                rng.uniform(size=2),
                rng.standard_normal((2, 2)),
                rng.choice_subset(10, 4),
            ]

        first = schedule(RngStream(99))
        second = schedule(RngStream(99))
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_choice_subset_sorted_unique(self):
        idx = RngStream(3).choice_subset(20, 8)
        assert len(set(idx.tolist())) == 8
        assert np.all(np.diff(idx) > 0)

    def test_spawn_deterministic(self):
        a = RngStream(5).spawn(2).standard_normal(4)
        b = RngStream(5).spawn(2).standard_normal(4)
        c = RngStream(5).spawn(3).standard_normal(4)
        assert np.array_equal(a, b)
        assert np.any(a != c)
