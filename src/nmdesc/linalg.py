"""Dense linear algebra (the exact operator norm) and the seeded random source.

Everything downstream draws randomness through :class:`RngStream` so that a
single 64-bit seed reproduces an entire experiment bit-for-bit.
"""

import math

import numpy as np


class SpectralNormError(RuntimeError):
    """The non-convergence error of a power iteration. Nothing raises it:
    `spectral_norm` is exact. It stays defined because
    `perfbench/workloads.py` names it among the faults a solve can raise."""

    def __init__(self, estimate, iterations):
        super().__init__(
            f"power iteration did not converge within {iterations} iterations "
            f"(best estimate {estimate:.6e})"
        )
        self.estimate = estimate
        self.iterations = iterations


class RngStream:
    """Deterministic random stream keyed by a 64-bit seed.

    Wraps a PCG64 generator; identical seeds give identical draw sequences
    across runs and platforms. Gaussian draws use the ziggurat sampler of
    ``numpy.random.Generator.standard_normal``, which is pinned by the
    PCG64 bit stream and therefore byte-stable.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, shape=None):
        return self._gen.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def choice_subset(self, n, size):
        """A uniformly random size-subset of range(n), sorted."""
        idx = self._gen.choice(n, size=size, replace=False)
        return np.sort(idx)

    def multinomial_indices(self, probs, size):
        """Draw `size` i.i.d. indices from the distribution `probs`."""
        return self._gen.choice(len(probs), size=size, p=probs)

    def spawn(self, offset):
        """A child stream with a deterministic seed derived from this one."""
        return RngStream((self.seed * 1000003 + offset) % (2**63))


def gram(X):
    """The Gram matrix of X's smaller side: X^T X for a tall matrix (the
    matrix-completion factors), X X^T for a wide one (a design matrix
    with more features than samples)."""
    return X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T


def spectral_sq(X):
    """sigma_max(X)^2, exactly: the top eigenvalue of `gram(X)`. This is
    the one way the program gets an operator norm or a Lipschitz modulus
    from one."""
    return float(np.linalg.eigvalsh(gram(X))[-1])


def spectral_norm(A, tol=1e-6):
    """Largest singular value of A, exactly: sqrt(spectral_sq(A)), the
    same bits as `logreg_problem(...).operator_norm` for its A_tilde.

    A 1-D A is read as one row. A zero matrix is rejected. `tol` plays no
    part in the result; it is kept, and must be positive, only because
    `perfbench/` passes it (tol=1e-8).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.any(A):
        raise ValueError("spectral_norm of a zero matrix is undefined here")
    return math.sqrt(spectral_sq(A))
