"""The exact operator norm and seeded randomness."""

import numpy as np
import pytest

from nmdesc.linalg import RngStream, gram, spectral_norm, spectral_sq
from nmdesc.problems import gen_logreg, logreg_problem


def svd_norm(A):
    return np.linalg.svd(A, compute_uv=False)[0]


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_matches_svd_oracle(self):
        # independent dense SVD is the oracle
        A = RngStream(11).standard_normal((5, 3))
        assert spectral_norm(A, tol=1e-10) == pytest.approx(svd_norm(A), rel=1e-12)

    @pytest.mark.parametrize("shape", [(60, 8), (8, 60), (30, 30), (200, 2001)])
    def test_tall_and_wide_match_svd_oracle(self, shape):
        A = RngStream(21).standard_normal(shape)
        assert spectral_norm(A) == pytest.approx(svd_norm(A), rel=1e-12)
        assert gram(A).shape == (min(shape),) * 2
        assert spectral_sq(A) == pytest.approx(svd_norm(A) ** 2, rel=1e-12)

    @pytest.mark.parametrize("gap", [1.5e-3, 1e-9])
    def test_near_equal_top_singular_values(self, gap):
        # the case a power iteration converges slowest on: sigma_2 close
        # to sigma_1 (the 40 x 10 factor of the bench test had 3.5945 and
        # 3.5930)
        rng = RngStream(8)
        Q1, _ = np.linalg.qr(rng.standard_normal((40, 10)))
        Q2, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        sigma = np.array([3.5945, 3.5945 - gap, 2.0, 1.5, 1.0, 0.8, 0.5, 0.3, 0.2, 0.1])
        A = (Q1 * sigma) @ Q2.T
        assert spectral_norm(A) == pytest.approx(svd_norm(A), rel=1e-12)
        assert spectral_norm(A.T) == pytest.approx(svd_norm(A), rel=1e-12)

    def test_transpose_invariance(self):
        A = RngStream(4).standard_normal((7, 4))
        a = spectral_norm(A, tol=1e-8)
        b = spectral_norm(A.T, tol=1e-8)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((2, 2)))

    def test_tol_checked_but_unused(self):
        A = RngStream(5).standard_normal((6, 6))
        with pytest.raises(ValueError):
            spectral_norm(A, tol=0.0)
        assert spectral_norm(A, tol=1e-2) == spectral_norm(A, tol=1e-16)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_equals_the_problem_operator_norm(self, seed):
        # the desk instances: tau0 = 10/||A~|| is the same whichever way
        # it is taken
        inst = gen_logreg(n=200, p=2000, s=20, seed=seed, lam=1.0, mu=1e-3)
        assert spectral_norm(inst.A_tilde, tol=1e-8) == logreg_problem(inst).operator_norm


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
