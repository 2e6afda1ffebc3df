"""Proximal and orthogonal-projection operators behind the ADMM solvers.

Every function here is pure (but for `svt`, which updates the `WarmStart`
it may be handed), total on its documented domain, and operates on float64
numpy arrays. SVD-backed operators share one deterministic wrapper
(`deterministic_svd`) that fixes the sign indeterminacy of singular vectors,
so repeated runs and serialized models are bitwise reproducible.

`svt` and `procrustes` are the exceptions: they first eigendecompose the
Gram matrix of the short side, whose cost is a fraction of the SVD's, and
fall back to `deterministic_svd` only when that cannot be exact. `svt` keeps
the singular values of at least GRAM_RATIO * s_max, which the Gram matrix
resolves to ~1e-10 relative, and drops the rest once it has checked that
their whole block has spectral norm at most tau (see `svt` for why that is
exact). `procrustes` takes the polar factor m (m^T m)^-1/2 when the condition
number is at most 1 / POLAR_RATIO and polishes it with one Newton-Schulz
step. Neither result depends on eigenvector signs, so both are bitwise
reproducible on either path. An eigendecomposition that fails to converge
raises NumericalError, as an SVD does.

A caller that thresholds a slowly changing matrix again and again (the
training G step) hands `svt` a `WarmStart`, the kept right singular vectors
of its previous call. `svt` then tries a warm path before the Gram path,
working from the same short-side Gram matrix, which it forms once per call:
a few block power steps on the Gram matrix from that basis until the Ritz
residual is at rounding level, the kept values and vectors from an SVD of
the small Ritz matrix (Rayleigh-Ritz, Halko, Martinsson & Tropp,
arXiv:0909.4061), and a certificate that the spectral norm of what the
basis leaves out is at most tau. Under the Gram path's own trust rule,
tau >= GRAM_RATIO * s_max, that certificate comes from the Gram matrix
alone; below it, from the left-out part formed from the matrix itself (by
the Frobenius norm or else a Cholesky factorization). If there is no start,
the start is wider than a third of the short side, the power steps converge
too slowly, a kept value is too small for the Gram matrix to resolve or the
certificate fails, the call goes on to the Gram path and then the SVD.
Every path gives the same result to rounding; none depends on a
module-level cache. A Gram matrix that overflows float64 raises
NumericalError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, NumericalError, ValidationError, check_integer


def _check_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def frobenius(a: np.ndarray) -> float:
    """||a||_F of a 2-D `a`, summed by `np.einsum` in one fixed order.
    np.linalg.norm's dot product is split across BLAS threads, so its last
    bits, and every stop or trust decision taken on them, would depend on
    the thread count."""
    return math.sqrt(np.einsum("ij,ij->", a, a))


def shrink_matrix(m: np.ndarray, tau: float) -> np.ndarray:
    """Entrywise soft threshold of a matrix: sgn(m) * max(|m| - tau, 0),
    for a finite 2-D `m` and a finite tau >= 0."""
    m = _check_matrix(m, "shrink_matrix input")
    tau = float(tau)
    if not np.isfinite(tau) or tau < 0:
        raise ValidationError(f"shrink threshold must be finite and >= 0, got {tau}")
    return soft_threshold(m, tau)


def soft_threshold(m: np.ndarray, tau: float) -> np.ndarray:
    """The soft threshold behind `shrink_matrix`, on an array of any shape
    and without input checks: m minus its clip to [-tau, tau], so tau = 0
    returns m unchanged. For inner loops whose inputs are finite and whose
    threshold is >= 0 by construction, where the checks would cost more than
    the threshold itself."""
    return m - np.minimum(np.maximum(m, -tau), tau)


def deterministic_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD with a fixed sign convention.

    The largest-magnitude entry of each left-singular vector is forced
    positive (the matching row of vh is flipped along with it), which removes
    the per-pair sign indeterminacy and makes downstream factors reproducible
    across runs.
    """
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    pivot = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, s, vh * signs[:, None]


# The Gram path squares the condition number: an eigenvalue of m^T m carries
# an absolute error of about eps * sigma_max^2, so a singular value is
# trusted when it is at least GRAM_RATIO * sigma_max, where its error is
# ~1e-10 relative. svt keeps only trusted values, and drops the rest after
# checking that they are at most tau.
GRAM_RATIO = 1e-3

# procrustes takes its polar factor from the Gram matrix when the input's
# condition number is at most 1 / POLAR_RATIO: the inverse square root then
# carries a relative error of about eps / POLAR_RATIO^2 ~ 1e-8, which one
# Newton-Schulz step squares away.
POLAR_RATIO = 1e-4


@dataclass
class WarmStart:
    """Where `svt` starts: the kept right singular vectors (an orthonormal
    short side x k matrix, k >= 0, or None) of the last call that was handed
    this holder, which that call overwrites with its own. A solver that
    thresholds a slowly changing matrix over and over keeps one in its
    state, one per run."""

    basis: np.ndarray | None = None


# svt's warm path runs at most WARM_STEPS block power steps, from a start at
# most a third as wide as the short side (wider, the Gram path costs less),
# and stops once the Ritz residual ||Z - Q Q^T Z||_F is at most RITZ_TOL *
# tr(Q^T Z), Z = a^T a Q: a rounding-level cross term between the captured
# subspace and the rest.
WARM_STEPS = 6
RITZ_TOL = 1e-15


def svt(m: np.ndarray, tau: float, warm: WarmStart | None = None) -> np.ndarray:
    """Singular value thresholding: shrink the spectrum, keep the factors.

    Parameters
    ----------
    m : ndarray
        Matrix to threshold.
    tau : float
        Spectral threshold, tau >= 0.
    warm : WarmStart, optional
        Start basis for the warm path, updated in place to the kept right
        singular vectors (of m, or of m^T for a wide `m`). Without it svt is
        pure. The result does not depend on it beyond rounding.

    Returns
    -------
    ndarray
        U * max(S - tau, 0) * Vh, same shape as `m`. Singular values below
        tau are removed entirely, so the rank never increases.

    Notes
    -----
    Write a for m, or m^T if `m` is wide, so that a is tall. Three paths
    give the same result to rounding; svt takes the first that can be exact.

    The warm path, given a start Q of 0 < k <= cols // 3 columns, runs block
    power steps Z = (a^T a) Q, Q <- qr(Z) on the Gram matrix until the Ritz
    residual Z - Q Q^T Z is at rounding level (RITZ_TOL), and gives up once
    the rate it converges at cannot reach that within WARM_STEPS steps. Then
    a = A + D, for A = a Q Q^T and D = a - A, with A D^T = 0 and A^T D =
    Q (Z - Q Q^T Z)^T at rounding level, so the spectrum of a is the union
    of those of A and D (the argument is spelled out for the Gram path
    below). The k x k Ritz matrix Q^T Z = W S^2 W^T, factored by an SVD,
    gives A's values S and right vectors Q W. The values above tau must be
    trusted (at least GRAM_RATIO * s_max), or the warm path gives up. If
    ||D||_2 <= tau (the certificate), svt zeroes all of D and the result is
    a Q W (1 - tau/S)_+ (Q W)^T. The certificate has two forms. When
    tau >= GRAM_RATIO * s_max, the Gram path's trust rule, it is a Cholesky
    factorization of tau^2 I - D^T D, with D^T D = a^T a - Z Q^T - Q Z^T +
    Q (Q^T Z) Q^T taken from the Gram matrix; below it, D is formed from a
    (see `_spectral_norm_at_most`). A failed attempt hands the same Gram
    matrix on to the Gram path.

    The Gram path uses a V diag((1 - tau/s)_+) V^T, with V and s^2 the
    eigenvectors and eigenvalues of the short-side Gram matrix a^T a.
    Singular values of at least GRAM_RATIO * s_max come out of the Gram
    matrix accurate to about 1e-10 relative. The Gram path is taken directly
    when max(tau, s_min) >= GRAM_RATIO * s_max, so every value that decides
    the result is accurate.

    Otherwise the untrusted tail, s < GRAM_RATIO * s_max (with tau below it
    too), is certified instead of resolved. With V_k the trusted and V_t
    the tail eigenvectors, a = A + D for A = a V_k V_k^T and D = a V_t V_t^T.
    The rows of A and D are orthogonal (A D^T = 0), and their columns are
    orthogonal up to rounding (A^T D = V_k V_k^T (a^T a) V_t V_t^T, about
    eps * ||a||^2, because V diagonalizes a^T a to that accuracy). So the
    spectrum of a is, up to rounding, the union of those of A and D. If
    ||D||_2 = ||a V_t||_2 <= tau, svt zeroes all of D and the result is the
    Gram-path projector over the trusted values alone, all of them above
    tau. Only when that certificate fails (a value the Gram matrix cannot
    resolve may lie above tau) does the result come from `deterministic_svd`,
    and a `warm` holder is left with no basis.
    """
    m = _check_matrix(m, "svt input")
    tau = float(tau)
    if not np.isfinite(tau) or tau < 0:
        raise ValidationError(f"svt threshold must be finite and >= 0, got {tau}")
    tall = m.shape[0] >= m.shape[1]
    a = m if tall else m.T
    gram = _gram(a, "svt")
    start = None if warm is None else warm.basis
    if start is not None and 0 < start.shape[1] <= a.shape[1] // 3:
        found = _warm_factors(a, gram, tau, start)
        if found is not None:
            shrunk, warm.basis = found
            return shrunk @ warm.basis.T if tall else warm.basis @ shrunk.T
    try:
        eigvals, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed to converge: {exc}") from exc
    s = np.sqrt(np.maximum(eigvals, 0.0))  # ascending
    trusted = s >= GRAM_RATIO * s[-1]
    if max(tau, s[0]) < GRAM_RATIO * s[-1] \
            and not _spectral_norm_at_most(a @ vecs[:, ~trusted], tau):
        if warm is not None:
            warm.basis = None
        return _svt_svd(m, tau)
    keep = trusted & (s > tau)  # s > tau, or the trusted values once the tail is certified
    vecs = vecs[:, keep]
    if warm is not None:
        warm.basis = vecs
    project = (vecs * (1.0 - tau / s[keep])) @ vecs.T
    return m @ project if tall else project @ m


def _gram(a: np.ndarray, what: str) -> np.ndarray:
    """a^T a for a finite `a`, without a numpy warning; an entry that
    overflows float64 raises NumericalError "<what> Gram overflows float64"."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    if not np.isfinite(gram).all():
        raise NumericalError(f"{what} Gram overflows float64")
    return gram


def _warm_factors(a: np.ndarray, gram: np.ndarray, tau: float, q: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray] | None:
    """The warm path of `svt` on a tall `a` with Gram matrix `gram` from the
    start `q`: the shrunk left factor U (S - tau)_+ and the kept right
    singular vectors, or None when the power steps stop short, a kept value
    is untrusted or the certificate fails."""
    last = math.inf
    for step in range(WARM_STEPS):
        z = gram @ q
        ritz = q.T @ z
        residual = z - q @ ritz
        gap = frobenius(residual)
        tol = RITZ_TOL * float(np.trace(ritz))
        if gap <= tol:
            break
        rate = gap / last
        if not (rate < 1.0 and gap * rate ** (WARM_STEPS - 1 - step) <= tol):
            return None  # at the last step whenever gap > tol; on a non-finite one too
        last = gap
        q = np.linalg.qr(z)[0]
    try:
        _, squares, wh = np.linalg.svd(ritz)
    except np.linalg.LinAlgError:
        return None
    s = np.sqrt(squares)  # descending
    keep = s > tau
    trust = GRAM_RATIO * s[0]
    if keep.any() and s[keep][-1] < trust:
        return None
    y = a @ q
    if tau >= trust:  # D^T D = G - Z Q^T - Q (Z - Q Q^T Z)^T
        certified = _gram_at_most(gram - z @ q.T - q @ residual.T, tau)
    else:
        certified = _spectral_norm_at_most(a - y @ q.T, tau)
    if not certified:
        return None
    w = wh[keep].T
    return (y @ w) * (1.0 - tau / s[keep]), q @ w


def _spectral_norm_at_most(m: np.ndarray, bound: float) -> bool:
    """||m||_2 <= bound, from the Frobenius norm when that suffices, else
    from `_gram_at_most` of the short-side Gram matrix of m."""
    if frobenius(m) <= bound:
        return True
    return _gram_at_most(m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T, bound)


def _gram_at_most(gram: np.ndarray, bound: float) -> bool:
    """Every eigenvalue of the symmetric `gram` is below bound^2: a Cholesky
    factorization of bound^2 I - gram exists. Overwrites `gram`."""
    gram *= -1.0
    gram[np.diag_indices_from(gram)] += bound * bound
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _svt_svd(m: np.ndarray, tau: float) -> np.ndarray:
    """`svt` through the full SVD; exact for any spectrum."""
    u, s, vh = deterministic_svd(m)
    shrunk = np.maximum(s - tau, 0.0)
    keep = int(np.count_nonzero(shrunk))
    return (u[:, :keep] * shrunk[:keep]) @ vh[:keep]


def procrustes(m: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns, U @ Vh from the thin SVD.

    This is the minimizer of ||Omega - m||_F over Omega with orthonormal
    columns, and equivalently solves min ||Omega A - B||_F when called on
    m = B @ A.T. A wide `m` gets orthonormal rows instead.

    When the short-side Gram matrix m^T m = V diag(lam) V^T (m m^T for a
    wide `m`) has lam_min >= POLAR_RATIO^2 * lam_max > 0, the factor is
    m V diag(lam^-1/2) V^T, polished by one Newton-Schulz step
    q (1.5 I - 0.5 q^T q), which squares its distance from orthonormality
    (Higham, SISC 1986). Any other input, rank-deficient or zero included,
    goes through `deterministic_svd`; for rank-deficient input the factor
    is still orthonormal but no longer unique, and we return the
    deterministic choice that SVD produces.
    """
    m = _check_matrix(m, "procrustes input")
    tall = m.shape[0] >= m.shape[1]
    try:
        eigvals, vecs = np.linalg.eigh(_gram(m if tall else m.T, "procrustes"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed to converge: {exc}") from exc
    if not eigvals[0] >= POLAR_RATIO * POLAR_RATIO * eigvals[-1] > 0.0:
        u, _, vh = deterministic_svd(m)
        return u @ vh
    root = (vecs / np.sqrt(eigvals)) @ vecs.T
    if tall:
        q = m @ root
        return 1.5 * q - 0.5 * (q @ (q.T @ q))
    q = root @ m
    return 1.5 * q - 0.5 * ((q @ q.T) @ q)


@dataclass(frozen=True)
class RankRule:
    """How to pick the width of a truncated span.

    Exactly one of the two fields is set: `explicit` keeps that many leading
    directions; `energy` keeps the smallest count whose squared singular
    values reach that fraction of the total squared spectrum.
    """

    explicit: int | None = None
    energy: float | None = None

    def __post_init__(self) -> None:
        if (self.explicit is None) == (self.energy is None):
            raise ValidationError("RankRule needs exactly one of explicit/energy")
        if self.explicit is not None:
            check_integer(self.explicit, "explicit rank", 1)
        if self.energy is not None and not 0.0 < self.energy <= 1.0:
            raise ValidationError(f"energy fraction must be in (0, 1], got {self.energy}")

    @classmethod
    def fixed(cls, r: int) -> "RankRule":
        return cls(explicit=r)

    @classmethod
    def energy_fraction(cls, fraction: float) -> "RankRule":
        return cls(energy=float(fraction))


def svd_span(svd: tuple[np.ndarray, np.ndarray, np.ndarray], rule: RankRule) -> np.ndarray:
    """Orthonormal basis of the leading left-singular subspace of the matrix
    whose thin `deterministic_svd` is `svd` = (u, s, vh): a copy of the
    leading columns of u. The width comes from `rule`: an explicit count (at
    most min(rows, cols)) or an energy fraction; energy 1.0 gives the whole
    numerical-rank span. An all-zero matrix has no span and is rejected."""
    if not isinstance(rule, RankRule):
        raise ValidationError(f"rule must be a RankRule, got {type(rule).__name__}")
    u, s, vh = svd
    if s[0] == 0.0:
        raise DegenerateMatrixError("the span of an all-zero matrix is undefined")
    shape = (u.shape[0], vh.shape[1])
    if rule.explicit is not None:
        r = rule.explicit
        if r > min(shape):
            raise ValidationError(
                f"explicit rank {r} exceeds min(rows, cols) = {min(shape)}"
            )
    else:
        tol = max(shape) * np.finfo(np.float64).eps * s[0]
        nrank = int(np.count_nonzero(s > tol))
        energies = np.cumsum(s[:nrank] ** 2)
        r = int(np.searchsorted(energies, rule.energy * energies[-1], side="left")) + 1
    return u[:, :r].copy()


def random_orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed matrix with orthonormal columns, rows >= cols."""
    if cols > rows:
        raise ValidationError(f"cannot fit {cols} orthonormal columns in {rows} rows")
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
