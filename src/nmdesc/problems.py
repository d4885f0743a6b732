"""Experiment problem families: sparse logistic regression and low-rank
matrix completion with column-sparse factors.

Both come with seeded generators, evaluation surfaces matching the solver
interfaces, and a plain-text serialization so an instance can be stored and
reloaded bit-identically.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .linalg import RngStream, gram, spectral_sq
from .prox import ProxSpec


# -- generic problem surfaces -------------------------------------------------

@dataclass(frozen=True)
class CompositeProblem:
    """F(x) = f(x) + g(x) with smooth f and prox-friendly g.

    `smooth(x, z=None)` is the one oracle of f: a single evaluation returns
    (f(x), grad, z), where grad() gives grad f(x) from what the evaluation
    computed, so a caller that needs only the value does not pay for the
    gradient. z is a linear image of x that f is evaluated from (for the
    logistic model the margins A_tilde x), or None for a problem without
    one. A caller that already knows that image of x (a solver
    extrapolates the carried z of its iterates like the iterates
    themselves) passes it as `z` and skips computing it.

    grad(ahead) with a look-ahead point ahead = (y, z_y) returns the pair
    (grad f(x), grad f(y)) instead, where z_y is y's linear image or None
    (the problem then forms it, if it has one). The PG solvers ask for it
    at the next step's extrapolated point, so a problem with a linear map
    can take both gradients in one product with its transpose (the
    logistic model forms only the weights at y, not its loss). Every
    problem implements the argument; one without a shared product may
    evaluate y on its own. `g` is the
    regularizer, any object with `value(x)` and a `prox(v, tau)` that
    returns (point, value at the point) (a `prox.ProxSpec`). `operator_norm` is the spectral norm of the linear
    map, where there is one.
    """

    smooth: Callable
    g: ProxSpec
    lipschitz: float
    operator_norm: Optional[float] = None


@dataclass(frozen=True)
class BlockProblem:
    """Psi(x, y) = f(x) + g(y) + H(x, y) over two blocks.

    `f` and `g` are the regularizers of the blocks, any objects with
    `value(x)` and a `prox(v, tau)` that returns (point, value at the
    point) (a `prox.ProxSpec`). `coupling(x, y)` is
    the one oracle of H: a single evaluation returns (H(x, y), grad_x,
    grad_y), where grad_x() and grad_y() give the block gradients at that
    same point from what the evaluation computed, as `CompositeProblem`'s
    `smooth` gives its gradient. A caller that needs no gradient, or only
    one, does not pay for the other. `lipschitz_ball_bounds(R1, R2)`
    returns (M, L2bar): a Lipschitz modulus of grad_x H jointly in (x, y)
    over balls of radii R1, R2, and the max of L2(x) over the x-ball. Used
    only by the relative-error diagnostics. `gram(X)` is a symmetric
    matrix whose top eigenvalue is the block modulus at X: L1(y) and L2(x)
    are the top eigenvalues of gram(y) and gram(x). `palm.palm_run` needs
    it, to form the moduli of a whole run in one batched eigen-solve at
    its end; the baselines, which take a step from each modulus, and
    `palm.palm_step` do not.

    H must be quadratic in x for fixed y, so that grad_x H is affine in x
    there: `palm.palm_step` takes grad_x H at an extrapolated x~ = x +
    beta*(x - x_prev) as grad_x H(x, y) + beta*(grad_x H(x, y) - grad_x
    H(x_prev, y)), without evaluating it. `mc_problem`'s H is: for fixed
    V, UV^T is linear in U, so 0.5*||P_Omega(UV^T - M)||^2 is quadratic in
    U. H need not be quadratic in y.
    """

    f: ProxSpec
    g: ProxSpec
    coupling: Callable
    L1: Callable
    L2: Callable
    lipschitz_ball_bounds: Optional[Callable] = None
    gram: Optional[Callable] = None

    def objective(self, x, y):
        """(Psi(x, y), grad_x, grad_y), with the gradients of `coupling`."""
        h, grad_x, grad_y = self.coupling(x, y)
        return self.f.value(x) + self.g.value(y) + h, grad_x, grad_y


# -- zero-norm regularized logistic regression --------------------------------

@dataclass(frozen=True)
class LogRegInstance:
    """Synthetic classification instance with a planted sparse predictor.

    A_tilde has rows (a_i^T, 1); the intercept is the last coordinate and
    is excluded from the zero-norm penalty. The generator and the loader
    store it as the transpose view of a C-contiguous (p+1) x n array, so
    each coordinate's column of A_tilde is one contiguous row of
    A_tilde.T (see `logreg_problem`).
    """

    A_tilde: np.ndarray
    b: np.ndarray
    lam: float
    mu: float
    support: np.ndarray
    x_hat: np.ndarray
    seed: int
    eps: float

    @property
    def n(self):
        return self.A_tilde.shape[0]

    @property
    def p(self):
        return self.A_tilde.shape[1] - 1

    @property
    def s(self):
        return len(self.support)


def _check_parameters(values, where=""):
    """Raise ValueError, prefixed by `where`, naming the first of the
    instance parameters `values` (name -> lam, mu or sigma) that is NaN,
    infinite or negative: `run` refuses such an instance, or its objective
    has no minimizer (a negative mu makes the logistic one unbounded
    below)."""
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{where}{name} must be finite and nonnegative, got {value!r}")


def gen_logreg(n, p, s, seed, lam=0.1, mu=1e-10):
    """Gaussian design, planted s-sparse predictor, labels b = sign(Ax + eps*1).

    sign(0) maps to +1. Exact zeros in the planted Gaussian entries are
    redrawn so the support size is exactly s. lam and mu must be finite
    and nonnegative (`_check_parameters`).
    """
    if s > p or n < 1:
        raise ValueError("need s <= p and n >= 1")
    _check_parameters({"lam": lam, "mu": mu})
    rng = RngStream(seed)
    A = rng.standard_normal((n, p))
    support = rng.choice_subset(p, s)
    vals = rng.standard_normal(s)
    while np.any(vals == 0.0):
        zero = vals == 0.0
        vals[zero] = rng.standard_normal(int(zero.sum()))
    x_hat = np.zeros(p)
    x_hat[support] = vals
    eps = float(rng.uniform(0.0, 1.0))
    margin = A @ x_hat + eps
    b = np.where(margin >= 0.0, 1.0, -1.0)
    return LogRegInstance(
        A_tilde=_with_intercept(A), b=b, lam=float(lam), mu=float(mu),
        support=support, x_hat=x_hat, seed=int(seed), eps=eps,
    )


def _with_intercept(A):
    """[A, 1] for an n x p design A, as the transpose view of a C-contiguous
    (p+1) x n array: the values of np.hstack([A, ones((n, 1))]), stored
    column by column."""
    n, p = A.shape
    AT = np.empty((p + 1, n))
    AT[:p] = A.T
    AT[p] = 1.0
    return AT.T


def logreg_value_grad(x, instance, z=None):
    """Objective value of the smooth part, and its gradient on demand.

    value = sum_i log(1+exp(-b_i (A_tilde x)_i)) + (mu/2)||x||^2, computed
    overflow-safe, with the loss terms from one softplus
    (`kernels.logistic_loss_terms`). Returns (value, grad), where grad()
    forms the weights w (`kernels.logistic_weights`, from the t = -b*z the
    loss was taken at) and the gradient A_tilde^T w + mu*x when it is
    called; a point whose gradient is never asked for forms no weights.
    `z` may pass the margins A_tilde x when the caller has them; the value
    then takes no product with A_tilde, and the gradient one, A_tilde^T w.

    grad((y, z_y)) returns (grad f(x), grad f(y)) from one product
    A_tilde^T [w w_y], where w_y are the weights at y alone (no loss), from
    its margins z_y, or from A_tilde y when z_y is None. Both columns'
    weights are formed in one n x 2 buffer by one `logistic_weights` call.
    That product costs about what one A_tilde^T w does, since reading
    A_tilde is its cost, and its columns differ from the single product's
    in the last bits.
    """
    # the products are taken with `ndarray.dot`, which makes the same BLAS
    # call as `@` with the same bits but skips the matmul ufunc's dispatch
    # (0.6-0.9 us less per product at cli-batch's 60 x 301)
    A, b, mu = instance.A_tilde, instance.b, instance.mu
    if z is None:
        z = A.dot(x)
    loss, t = kernels.logistic_loss_terms(z, b)
    value = float(loss.sum()) + 0.5 * mu * float(x.dot(x))

    def grad(ahead=None):
        if ahead is None:
            return A.T.dot(kernels.logistic_weights(-t, b)) + mu * x
        y, z_y = ahead
        if z_y is None:
            z_y = A.dot(y)
        S = np.empty((len(b), 2))  # b*z and b*z_y side by side
        np.negative(t, out=S[:, 0])
        np.multiply(b, z_y, out=S[:, 1])
        G = A.T.dot(kernels.logistic_weights(S, b[:, None], out=S))
        return G[:, 0] + mu * x, G[:, 1] + mu * y

    return value, grad


# The l0 prox leaves few nonzeros in an iterate, so `logreg_problem` forms
# the margins A_tilde x over its support S, as x[S] @ A_tilde.T[S] (a
# gather of |S| contiguous rows), when that is cheaper than the dense
# product. `benchmarks/bench_kernels.py` measures both over |S| (one BLAS
# thread, np.flatnonzero included). At the desk size 200 x 2001 the dense
# product takes 120-160 us and the support product 6-20 us up to
# |S| = 20; the support product stopped winning between |S| = 250 and
# 1000 over five runs, so the share 1/8 takes it only where it won in
# every run. At 100 x 2001 it won up to |S| = 200-250. At 100 x 1001 it
# wins only up to |S| = 50-75 and by at most 7 us, and at 60 x 301
# (`perfbench`'s `cli-batch` instances) the dense product takes 4.5 us
# and always wins: finding and gathering S costs as much.
SUPPORT_MAX_SHARE = 8
SUPPORT_MIN_ENTRIES = 200_000


def margins_form(n, dim, support_size):
    """How `logreg_problem` forms the margins of an n x dim A_tilde at a
    point with support_size nonzeros: "support" or "dense"."""
    if (n * dim >= SUPPORT_MIN_ENTRIES
            and SUPPORT_MAX_SHARE * support_size < dim):
        return "support"
    return "dense"


def logreg_problem(instance, lam=None):
    """CompositeProblem view of an instance.

    `smooth` computes the margins A_tilde x (unless it is given them) and
    passes them to `logreg_value_grad`; it returns them as its z. It takes
    them over the support S of x, as x[S] @ A_tilde.T[S], where
    `margins_form` says so, and as the dense product otherwise. A_tilde.T
    is a view, no copy, when A_tilde is stored as `gen_logreg` and
    `load_instance` store it. ||A_tilde|| is exact (`linalg.spectral_sq`,
    from the Gram matrix of A_tilde's smaller side), computed once here and
    kept as `operator_norm`. The gradient Lipschitz constant is
    0.25*||A_tilde||^2 + mu, with ||A_tilde||^2 as `spectral_sq` gives it;
    it holds for mu >= 0 only, so any other mu raises ValueError.
    """
    _check_parameters({"mu": instance.mu})
    lam = instance.lam if lam is None else float(lam)
    A = instance.A_tilde
    AT = np.ascontiguousarray(A.T)
    n, dim = A.shape
    norm_sq = spectral_sq(A)
    norm_A = math.sqrt(norm_sq)
    L = 0.25 * norm_sq + instance.mu
    spec = ProxSpec(
        kind="l0_vector", lam=lam, mu=0.0,
        skip_indices=frozenset([instance.p]),  # intercept unregularized
    )

    if margins_form(n, dim, 0) == "support":
        def margins(x):
            S = np.flatnonzero(x)
            if margins_form(n, dim, len(S)) == "support":
                return x[S].dot(AT[S])
            return A.dot(x)
    else:  # too small for the support to pay: skip looking for it
        def margins(x):
            return A.dot(x)

    def smooth(x, z=None):
        if z is None:
            z = margins(x)
        value, grad = logreg_value_grad(x, instance, z)
        return value, grad, z

    return CompositeProblem(smooth=smooth, g=spec, lipschitz=L, operator_norm=norm_A)


# -- column-sparse factor model for matrix completion -------------------------

@dataclass(frozen=True)
class McInstance:
    """Matrix-completion instance with non-uniform sampling.

    rows/cols/obs are parallel arrays over the deduplicated index set Omega.
    """

    n1: int
    n2: int
    r_star: int
    r: int
    rows: np.ndarray
    cols: np.ndarray
    obs: np.ndarray
    sigma: float
    lam: float
    mu: float
    U_star: np.ndarray
    V_star: np.ndarray
    seed: int
    samples_requested: int

    @property
    def num_obs(self):
        return len(self.rows)


def mc_row_marginals(n):
    """Non-uniform marginal distribution: 4x weight on indices in
    (n/10, n/5], 2x on [1, n/10], baseline elsewhere (1-based bands;
    overlap at the band boundary takes the larger multiplier)."""
    k = np.arange(1, n + 1, dtype=np.float64)
    mult = np.ones(n)
    mult[k <= n / 10.0] = 2.0
    mult[(k >= n / 10.0) & (k <= n / 5.0)] = 4.0
    return mult / mult.sum()


def gen_mc(n1, n2, r_star, num_samples, sigma, seed, r=None, lam=1.0, mu=1e-10):
    """Rank-r_star ground truth, non-uniform i.i.d. sampling, relative noise.

    Duplicate draws are collapsed, so num_obs <= num_samples. The planted
    factors have i.i.d. standard normal entries. Noise on entry t is
    sigma * (xi_t/||xi||) * ||M*_Omega||_F with xi standard normal.
    Every size (n1, n2, r_star, r, num_samples) must be at least 1, and
    sigma, lam and mu finite and nonnegative (`_check_parameters`).
    """
    r = 2 * r_star if r is None else int(r)
    if (min(n1, n2, r_star, r, num_samples) < 1
            or r_star > min(n1, n2) or num_samples > n1 * n2):
        raise ValueError("invalid generator parameters")
    _check_parameters({"sigma": sigma, "lam": lam, "mu": mu})
    rng = RngStream(seed)
    U_star = rng.standard_normal((n1, r_star))
    V_star = rng.standard_normal((n2, r_star))
    p_row = mc_row_marginals(n1)
    p_col = mc_row_marginals(n2)
    draw_rows = rng.multinomial_indices(p_row, num_samples)
    draw_cols = rng.multinomial_indices(p_col, num_samples)
    # collapse duplicates, keeping first-draw order
    seen = dict.fromkeys(zip(draw_rows.tolist(), draw_cols.tolist()))
    pairs = np.array(list(seen), dtype=np.int64)
    rows, cols = pairs[:, 0], pairs[:, 1]
    m_true = np.einsum("ij,ij->i", U_star[rows], V_star[cols])
    xi = rng.standard_normal(len(rows))
    noise_scale = sigma * np.linalg.norm(m_true) / np.linalg.norm(xi)
    obs = m_true + noise_scale * xi
    return McInstance(
        n1=int(n1), n2=int(n2), r_star=int(r_star), r=r,
        rows=rows, cols=cols, obs=obs, sigma=float(sigma),
        lam=float(lam), mu=float(mu), U_star=U_star, V_star=V_star,
        seed=int(seed), samples_requested=int(num_samples),
    )


# The dense masked form of the matrix-completion oracle forms UV^T, so a
# block gradient costs about 2*n1*n2*r multiply-adds, where the
# sorted-segment form gathers |Omega| row pairs. `benchmarks/bench_kernels.py`
# measures the crossover in the ratio n1*n2/|Omega| (rank 10, one BLAS
# thread). With both gradients from one residual and one scatter of it,
# the dense form wins from 100-200 down at 200 x 200 and from 20-25 down at
# 500 x 500 to 2000 x 2000 (two runs; with a scatter per gradient it was
# 100 and 10-20). The ratio 20 was set from the first measurement, one
# residual per gradient: between 20 and 100 at 200 x 200 the rule picks
# the slower segment form, and a larger ratio would move the traces of
# such instances. Each of the dense form's two buffers takes n1*n2*8
# bytes, which caps the size it is used at. The residual's product is
# taken on a C-order copy of V^T (`kernels.masked_dense_residual`). With
# its gather, one residual took 24-25 us against 32-33 us on the view V^T
# at 200 x 200, rank 10, 17 % observed (best of 2000 calls, three runs;
# one BLAS thread, OpenBLAS 0.3.31 with Haswell kernels). It pays at the
# desk size only: at 500 x 500 (296-301 us against 285-361 us) and
# 1000 x 1000, 5 % observed (893-990 us against 954-966 us), the two
# overlap within their run-to-run spread, and at 40 x 40, rank 4, the
# copy costs about 0.1 us of 3.6 us. The crossovers above were measured
# with the product on the view.
DENSE_MAX_RATIO = 20
DENSE_MAX_BYTES = 2**25


def mc_oracle_form(n1, n2, num_obs):
    """The form `mc_problem` evaluates the coupling in, "dense" or
    "segment", for an n1 x n2 matrix with num_obs observed entries."""
    if n1 * n2 <= DENSE_MAX_RATIO * num_obs and 8 * n1 * n2 <= DENSE_MAX_BYTES:
        return "dense"
    return "segment"


def mc_problem(instance, lam=None):
    """BlockProblem view: ridge + column-l20 on each factor, masked residual
    coupling. Ball-based Lipschitz bounds use the closed forms for this H.

    `coupling(U, V)` forms the residual r = (UV^T)[Omega] - obs once and
    returns H = 0.5*||r||^2 with the two block gradients, each computed
    from r when it is asked for. It evaluates in one of two forms, chosen
    by `mc_oracle_form` from the size and the number of observed entries:

    * dense: P = UV^T is formed in an n1 x n2 buffer and r taken from it
      (`kernels.masked_dense_residual`); the first block gradient asked of
      an evaluation writes r into a second buffer D that is zero off Omega
      (`kernels.masked_dense_scatter`), and both return D V or D^T U from
      it (`kernels.masked_dense_grad`);
    * sorted-segment, for sparse or large instances: r is taken from the
      gathered row pairs (`kernels.masked_residual`), and Omega is sorted
      by row and by column once, here, so that a block gradient is per-row
      segment sums of r in its block's sorted order
      (`kernels.masked_block_grad`).

    The dense buffers belong to the returned problem, and its oracle writes
    them on every call, so one problem must not be evaluated from two
    threads at once: build one per solve (as `cli.solve` does). A gradient
    asked for after later evaluations is still that of its own point: r is
    its own array, and D is rewritten at every entry of Omega whenever it
    holds another evaluation's residual. The segment form allocates no
    buffer. Omega must hold distinct entries, as `gen_mc` makes it and
    `load_instance` checks. `L1` and `L2` are the exact moduli ||V||^2 and
    ||U||^2 (`linalg.spectral_sq`), the top eigenvalues of the r x r Gram
    matrices that `gram` gives.
    """
    lam = instance.lam if lam is None else float(lam)
    mu = instance.mu
    spec = ProxSpec(kind="ridge_l20_columns", lam=lam, mu=mu)
    obs_norm = float(np.linalg.norm(instance.obs))
    n1, n2 = instance.n1, instance.n2
    rows, cols, obs = instance.rows, instance.cols, instance.obs

    if mc_oracle_form(n1, n2, instance.num_obs) == "dense":
        # Omega in row-major order, for a monotone gather and scatter
        order = np.argsort(rows * n2 + cols)
        flat, obs = rows[order] * n2 + cols[order], obs[order]
        P = np.empty((n1, n2))
        D = np.zeros((n1, n2))
        in_D = [None]  # the residual D holds

        def coupling(U, V):
            resid = kernels.masked_dense_residual(U, V, flat, obs, P)

            def grad(block):
                if in_D[0] is not resid:
                    kernels.masked_dense_scatter(flat, resid, D)
                    in_D[0] = resid
                return kernels.masked_dense_grad(U, V, D, block)

            return 0.5 * float(resid @ resid), lambda: grad(0), lambda: grad(1)
    else:
        by_row = kernels.block_index(rows, cols)
        by_col = kernels.block_index(cols, rows)

        def coupling(U, V):
            resid = kernels.masked_residual(U, V, rows, cols, obs)
            return (0.5 * float(resid @ resid),
                    lambda: kernels.masked_block_grad(U, V, resid, *by_row),
                    lambda: kernels.masked_block_grad(V, U, resid, *by_col))

    def ball_bounds(R1, R2):
        # grad_U = P_Omega(UV^T - M) V; entrywise |P_Omega| <= identity.
        # Lipschitz in U at fixed V: ||V||^2 <= R2^2. Lipschitz in V:
        # ||U||*||V||*dV + (||U||*||V'|| + ||M_Omega||_F)*dV.
        M = R2**2 + 2.0 * R1 * R2 + obs_norm
        L2bar = R1**2
        return M, L2bar

    return BlockProblem(
        f=spec,
        g=spec,
        coupling=coupling,
        L1=spectral_sq,
        L2=spectral_sq,
        lipschitz_ball_bounds=ball_bounds,
        gram=gram,
    )


# -- instance metrics ----------------------------------------------------------

def sparsity_metrics(x=None, factors=None, skip_indices=()):
    """Support size of a vector (excluding skip indices) or nonzero-column
    counts of a factor pair."""
    if x is not None:
        x = np.asarray(x)
        keep = np.ones(len(x), dtype=bool)
        for i in skip_indices:
            keep[i] = False
        return {"support": int(np.count_nonzero(x[keep]))}
    U, V = factors
    return {
        "cols_U": int(np.count_nonzero(np.any(U != 0.0, axis=0))),
        "cols_V": int(np.count_nonzero(np.any(V != 0.0, axis=0))),
    }


# -- plain-text serialization ---------------------------------------------------

def _fmt_row(values):
    return " ".join(format(float(v), ".17g") for v in values)


def save_instance(path, instance):
    """Write an instance to the self-describing text format."""
    with open(path, "w") as f:
        if isinstance(instance, LogRegInstance):
            f.write(
                f"logreg n={instance.n} p={instance.p} s={instance.s} "
                f"seed={instance.seed} lambda={instance.lam:.17g} "
                f"mu={instance.mu:.17g} eps={instance.eps:.17g}\n"
            )
            for row in instance.A_tilde[:, :-1]:
                f.write(_fmt_row(row) + "\n")
            f.write(_fmt_row(instance.b) + "\n")
            f.write(_fmt_row(instance.x_hat) + "\n")
            f.write(" ".join(str(i) for i in instance.support) + "\n")
        elif isinstance(instance, McInstance):
            f.write(
                f"mc n1={instance.n1} n2={instance.n2} rstar={instance.r_star} "
                f"r={instance.r} samples={instance.samples_requested} "
                f"seed={instance.seed} sigma={instance.sigma:.17g} "
                f"lambda={instance.lam:.17g} mu={instance.mu:.17g}\n"
            )
            for row in instance.U_star:
                f.write(_fmt_row(row) + "\n")
            for row in instance.V_star:
                f.write(_fmt_row(row) + "\n")
            f.write(" ".join(str(i) for i in instance.rows) + "\n")
            f.write(" ".join(str(i) for i in instance.cols) + "\n")
            f.write(_fmt_row(instance.obs) + "\n")
        else:
            raise TypeError(f"cannot serialize {type(instance).__name__}")


class _Header(dict):
    """The key=value fields of an instance file's header line; a missing
    field is a ValueError that names it."""

    def __missing__(self, key):
        raise ValueError(f"instance header has no {key}= field")


def _check_fields(path, shapes, indices=()):
    """Raise ValueError naming the first (field, array, shape) of `shapes`
    off its shape or holding a value that is not finite, or (field, index,
    size) of `indices` outside [0, size)."""
    for field, array, shape in shapes:
        if array.shape != shape:
            raise ValueError(f"{path}: {field} has shape {array.shape}, expected {shape}")
        if not np.isfinite(array).all():
            raise ValueError(f"{path}: {field} has a value that is not finite")
    for field, index, size in indices:
        if index.size and not 0 <= index.min() <= index.max() < size:
            raise ValueError(f"{path}: {field} has an index outside [0, {size})")


def load_instance(path):
    """An instance `save_instance` wrote. Arrays off the header's shapes,
    values that are not finite, labels other than -1 and +1, indices out
    of range, a repeated Omega pair or a header lambda, mu or sigma that
    `_check_parameters` refuses raise ValueError."""
    with open(path) as f:
        header = f.readline().split()
        if not header:
            raise ValueError(f"{path}: empty instance header")
        kind = header[0]
        params = _Header(tok.split("=", 1) for tok in header[1:])
        if kind == "logreg":
            n, p, s = int(params["n"]), int(params["p"]), int(params["s"])
            A = np.array([f.readline().split() for _ in range(n)], dtype=np.float64)
            b = np.array(f.readline().split(), dtype=np.float64)
            x_hat = np.array(f.readline().split(), dtype=np.float64)
            support = np.array(f.readline().split(), dtype=np.int64)
            _check_fields(path, (("A", A, (n, p)), ("b", b, (n,)), ("x_hat", x_hat, (p,)),
                                 ("support", support, (s,))), (("support", support, p),))
            if not np.isin(b, (-1.0, 1.0)).all():
                raise ValueError(f"{path}: b has a label other than -1 or +1")
            values = {key: float(params[key]) for key in ("lambda", "mu")}
            _check_parameters(values, f"{path}: ")
            return LogRegInstance(
                A_tilde=_with_intercept(A), b=b, lam=values["lambda"],
                mu=values["mu"], support=support, x_hat=x_hat,
                seed=int(params["seed"]), eps=float(params["eps"]),
            )
        if kind == "mc":
            n1, n2 = int(params["n1"]), int(params["n2"])
            r_star, r = int(params["rstar"]), int(params["r"])
            if r < 1:
                raise ValueError(f"{path}: mc instance needs r >= 1")
            U_star = np.array([f.readline().split() for _ in range(n1)], dtype=np.float64)
            V_star = np.array([f.readline().split() for _ in range(n2)], dtype=np.float64)
            rows = np.array(f.readline().split(), dtype=np.int64)
            cols = np.array(f.readline().split(), dtype=np.int64)
            obs = np.array(f.readline().split(), dtype=np.float64)
            _check_fields(path, (("U_star", U_star, (n1, r_star)),
                                 ("V_star", V_star, (n2, r_star)),
                                 ("cols", cols, rows.shape), ("obs", obs, rows.shape)),
                          (("rows", rows, n1), ("cols", cols, n2)))
            if len(np.unique(rows * n2 + cols)) < len(rows):
                raise ValueError(f"{path}: Omega repeats a (row, col) pair")
            values = {key: float(params[key]) for key in ("sigma", "lambda", "mu")}
            _check_parameters(values, f"{path}: ")
            return McInstance(
                n1=n1, n2=n2, r_star=r_star, r=r,
                rows=rows, cols=cols, obs=obs, sigma=values["sigma"],
                lam=values["lambda"], mu=values["mu"],
                U_star=U_star, V_star=V_star, seed=int(params["seed"]),
                samples_requested=int(params["samples"]),
            )
        raise ValueError(f"unknown instance kind {kind!r}")
