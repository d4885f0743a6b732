"""Dense linear-algebra helpers and the seeded random source.

Everything downstream draws randomness through :class:`RngStream` so that a
single 64-bit seed reproduces an entire experiment bit-for-bit.
"""

import numpy as np


class SpectralNormError(RuntimeError):
    """Power iteration failed to converge; carries the best estimate."""

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


def spectral_norm(A, tol=1e-6, max_iter=5000):
    """Largest singular value of A by power iteration on A^T A.

    The start vector is the normalized all-ones vector, so the result does
    not consume randomness and is identical across runs. `tol` is relative.

    Raises SpectralNormError (with the last estimate attached) if the
    iteration does not converge within `max_iter` steps.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.any(A):
        raise ValueError("spectral_norm of a zero matrix is undefined here")

    n = A.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    sigma = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # v fell in the null space; all-ones start makes this persistent,
            # perturb deterministically
            v = np.zeros(n)
            v[0] = 1.0
            continue
        sigma_new = np.sqrt(norm_w)
        v = w / norm_w
        if abs(sigma_new - sigma) <= tol * sigma_new:
            return sigma_new
        sigma = sigma_new
    raise SpectralNormError(sigma, max_iter)
