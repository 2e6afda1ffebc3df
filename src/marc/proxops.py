"""Proximal and orthogonal-projection operators behind the ADMM solvers.

Every function here is pure (but for `svt`, which updates the `WarmStart`
it may be handed), total on its documented domain, and operates on float64
numpy arrays. SVD-backed operators share one deterministic wrapper
(`deterministic_svd`) that fixes the sign indeterminacy of singular vectors,
so repeated runs and serialized models are bitwise reproducible.

`svt` and `procrustes` are the exceptions: they first eigendecompose the
Gram matrix of the short side, whose cost is a fraction of the SVD's, and
fall back to `deterministic_svd` only when that cannot be exact. `svt` takes
the Gram path when every value that decides its result is at least
GRAM_RATIO * s_max, which the Gram matrix resolves to ~1e-10 relative.
`procrustes` takes the polar factor m (m^T m)^-1/2 when the condition number
is at most 1 / POLAR_RATIO and polishes it with one Newton-Schulz step.
Neither result depends on eigenvector signs, so both are bitwise
reproducible on either path. An eigendecomposition that fails to converge
raises NumericalError, as an SVD does.

A caller that thresholds a slowly changing matrix again and again (the
training G step) hands `svt` a `WarmStart`, the kept right singular vectors
of its previous call. `svt` then tries a warm path before the Gram path,
working from the same short-side Gram matrix, which it forms once per call:
a few block power steps on the Gram matrix from that basis, each applying
it twice before one QR, until the Ritz residual is at rounding level, the
kept values and vectors from an SVD of the small Ritz matrix (Rayleigh-Ritz,
Halko, Martinsson & Tropp, arXiv:0909.4061), and a certificate that the spectral norm of what the
basis leaves out is at most tau. If there is no start, the start is wider
than a third of the short side, the power steps converge too slowly or the
certificate fails, the call goes on to the Gram path or the SVD. A kept
value too small for the Gram matrix to resolve sends it straight to the
SVD, since the Gram path would refuse that spectrum too. Every path gives
the same result to rounding; none depends on a module-level cache.

`svt` and `procrustes` scan for non-finite values once, on the Gram matrix
they form anyway: its diagonal holds each column's sum of squares, so a
non-finite input leaves it non-finite. Only then is the input scanned: a
non-finite entry raises ValidationError, and a finite input whose Gram
matrix overflows float64 raises NumericalError.

`positive_definite` is the one test of positive definiteness behind these
certificates and behind `decode`'s trust in a normal map: whether a
Cholesky factorization exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, NumericalError, ValidationError, check_integer


def _check_shape(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column")
    return m


def _check_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = _check_shape(m, name)
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


def largest_gap(values: np.ndarray) -> int | np.ndarray:
    """How many of `values` stand above the largest absolute gap of their
    sorted magnitudes: with m_1 >= m_2 >= ... >= m_n the magnitudes, the
    count c of the largest gap m_c - m_{c+1}, the smallest such c when
    several gaps tie. A 2-D array is cut column by column, one count per
    column. With no gap (fewer than two values, or all magnitudes equal) the
    count is 0: nothing stands apart. The largest absolute gap, not the
    largest ratio: a ratio cut also splits values at rounding level, where
    neighbours differ by orders of magnitude."""
    return sorted_gap(np.sort(np.abs(values), axis=0)[::-1])


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
# ~1e-10 relative. svt takes the Gram path only when every value that
# decides its result is trusted: max(tau, s_min) >= GRAM_RATIO * s_max.
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


# svt's warm path runs at most WARM_STEPS block power steps of two Gram
# powers each, from a start at most a third as wide as the short side (wider,
# the Gram path costs less), and stops once the Ritz residual
# ||Z - Q Q^T Z||_F is at most RITZ_TOL * tr(Q^T Z), Z = a^T a Q: a
# rounding-level cross term between the captured subspace and the rest.
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
    power steps Z = (a^T a) Q, Q <- qr((a^T a) Z) on the Gram matrix until
    the Ritz residual Z - Q Q^T Z is at rounding level (RITZ_TOL), and gives
    up once the rate it converges at cannot reach that within WARM_STEPS
    steps, or a product overflows (s_max from about 1e77). Two Gram powers per QR square the rate a step converges at, for
    one more product with the Gram matrix: training a 64 x 256 instance with
    attributes of 8, 16 and 32 instantiations, 33-40 warm attempts failed
    with one power per QR, 4-9 with two (four instances). Then a = A + D,
    for A = a Q Q^T and D = a - A. The rows of A and D are
    orthogonal (A D^T = 0), and their columns are orthogonal up to rounding
    (A^T D = Q (Z - Q Q^T Z)^T), so the spectrum of a is, up to rounding,
    the union of those of A and D. The k x k Ritz matrix Q^T Z = W S^2 W^T,
    factored by an SVD, gives A's values S and right vectors Q W. The values
    above tau must be trusted (at least GRAM_RATIO * S_max), or the result
    comes from `deterministic_svd`: by interlacing, s_min <= S_k <
    GRAM_RATIO * S_max <= GRAM_RATIO * s_max for the untrusted S_k, and
    tau < S_k, so the Gram path would refuse that spectrum too. If
    ||D||_2 <= tau (the certificate), svt zeroes all of D and the result is
    a Q W (1 - tau/S)_+ (Q W)^T. The certificate is that
    tau^2 I - D^T D is `positive_definite`. When tau >= GRAM_RATIO * s_max,
    the Gram path's trust rule, D^T D = a^T a - Z Q^T - Q Z^T +
    Q (Q^T Z) Q^T is taken from the Gram matrix; below it, from D formed
    from a. A failed attempt hands the same Gram matrix on to the Gram path.

    The Gram path eigendecomposes the short-side Gram matrix a^T a = V
    diag(s^2) V^T. Singular values of at least GRAM_RATIO * s_max come out
    of it accurate to about 1e-10 relative, so when max(tau, s_min) >=
    GRAM_RATIO * s_max every value that decides the result is accurate, and
    the result is a V diag((1 - tau/s)_+) V^T. Otherwise it comes from
    `deterministic_svd`, whose kept right vectors a `warm` holder gets.
    """
    m = _check_shape(m, "svt input")
    tall = m.shape[0] >= m.shape[1]
    a = m if tall else m.T
    gram = _gram(a, "svt")
    tau = float(tau)
    if not np.isfinite(tau) or tau < 0:
        raise ValidationError(f"svt threshold must be finite and >= 0, got {tau}")
    start = None if warm is None else warm.basis
    if start is not None and 0 < start.shape[1] <= a.shape[1] // 3:
        found = _warm_factors(a, gram, tau, warm)
        if found is not None:
            shrunk, warm.basis = found
            return shrunk @ warm.basis.T if tall else warm.basis @ shrunk.T
        if warm.basis is None:  # an untrusted kept value: the Gram path refuses it too
            return _svt_svd(m, tau, warm)
    try:
        eigvals, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed to converge: {exc}") from exc
    s = np.sqrt(np.maximum(eigvals, 0.0))  # ascending
    if max(tau, s[0]) < GRAM_RATIO * s[-1]:
        return _svt_svd(m, tau, warm)
    keep = s > tau
    vecs = vecs[:, keep]
    if warm is not None:
        warm.basis = vecs
    project = (vecs * (1.0 - tau / s[keep])) @ vecs.T
    return m @ project if tall else project @ m


def _gram(a: np.ndarray, what: str) -> np.ndarray:
    """a^T a, without a numpy warning, which also checks that `a` is finite:
    its diagonal holds the sum of squares of each column of `a`, so a
    non-finite entry of `a` leaves a non-finite entry in it. Only a
    non-finite Gram matrix sends the check to `a` itself: a non-finite
    entry there raises ValidationError "<what> input contains non-finite
    entries", and otherwise the Gram matrix overflowed, NumericalError
    "<what> Gram overflows float64"."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    if not np.isfinite(gram).all():
        if not np.isfinite(a).all():
            raise ValidationError(f"{what} input contains non-finite entries")
        raise NumericalError(f"{what} Gram overflows float64")
    return gram


def _warm_factors(a: np.ndarray, gram: np.ndarray, tau: float, warm: WarmStart) \
        -> tuple[np.ndarray, np.ndarray] | None:
    """The warm path of `svt` on a tall `a` with Gram matrix `gram` from the
    start `warm.basis`: the shrunk left factor U (S - tau)_+ and the kept
    right singular vectors, or None when the power steps stop short, a kept
    value is untrusted or the certificate fails. An untrusted kept value
    also empties `warm` (basis None): the Gram path cannot take that
    spectrum either (see `svt`)."""
    q = warm.basis
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
        with np.errstate(over="ignore"):  # an overflow leaves a non-finite gap next step
            q = np.linalg.qr(gram @ z)[0]
    try:
        _, squares, wh = np.linalg.svd(ritz)
    except np.linalg.LinAlgError:
        return None
    s = np.sqrt(squares)  # descending
    keep = s > tau
    trust = GRAM_RATIO * s[0]
    if keep.any() and s[keep][-1] < trust:
        warm.basis = None
        return None
    y = a @ q
    if tau >= trust:  # D^T D = G - Z Q^T - Q (Z - Q Q^T Z)^T
        spill = gram - z @ q.T - q @ residual.T
    else:
        spill = _gram(a - y @ q.T, "svt")
    np.negative(spill, out=spill)  # tau^2 I - D^T D, in place
    spill.flat[::len(spill) + 1] += tau * tau
    if not positive_definite(spill):
        return None
    w = wh[keep].T
    return (y @ w) * (1.0 - tau / s[keep]), q @ w


def positive_definite(a: np.ndarray) -> np.ndarray:
    """Whether the symmetric `a`, or each matrix of a stack of them, is
    positive definite: a Cholesky factorization of it exists. Flags shaped
    as the stack, 0-d for one matrix. A stacked factorization fails for the
    whole stack on one matrix, so after a failure each is tested alone."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return np.zeros((), dtype=bool)
        return np.array([positive_definite(m) for m in a])
    return np.ones(a.shape[:-2], dtype=bool)


def _svt_svd(m: np.ndarray, tau: float, warm: WarmStart | None = None) -> np.ndarray:
    """`svt` through the full SVD; exact for any spectrum. A `warm` holder
    gets the kept right singular vectors, of m or of m^T for a wide `m`."""
    u, s, vh = deterministic_svd(m)
    shrunk = np.maximum(s - tau, 0.0)
    keep = int(np.count_nonzero(shrunk))
    if warm is not None:
        warm.basis = vh[:keep].T if m.shape[0] >= m.shape[1] else u[:, :keep]
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
    m = _check_shape(m, "procrustes input")
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
    leading columns of u, as many as `span_width` takes from `rule` and the
    spectrum's `energy_prefix`. An all-zero matrix has no span and is
    rejected."""
    u, s, vh = svd
    if s[0] == 0.0:
        raise DegenerateMatrixError("the span of an all-zero matrix is undefined")
    return u[:, :span_width(rule, energy_prefix(s, (u.shape[0], vh.shape[1])), s.size)].copy()


def energy_prefix(s: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The cumulative squared singular values s_1^2, s_1^2 + s_2^2, ... of a
    matrix of `shape` with spectrum `s` (descending), up to its numerical
    rank, the values above max(shape) * eps * s_1: what an energy
    `RankRule` reads. Empty for an all-zero or empty matrix."""
    tol = max(shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    return np.cumsum(s[:np.count_nonzero(s > tol)] ** 2)


def span_width(rule: RankRule, energies: np.ndarray, most: int) -> int:
    """How many leading singular directions `rule` keeps of a spectrum of
    `most` values (min(rows, cols)) whose `energy_prefix` is `energies`
    (non-empty for an energy rule): an explicit count, at most `most`, or
    the smallest count whose prefix reaches that fraction of the whole, so
    energy 1.0 keeps the numerical rank. A `rule` that is not a RankRule
    raises ValidationError."""
    if not isinstance(rule, RankRule):
        raise ValidationError(f"rule must be a RankRule, got {type(rule).__name__}")
    if rule.explicit is not None:
        if rule.explicit > most:
            raise ValidationError(f"explicit rank {rule.explicit} exceeds min(rows, cols) = {most}")
        return rule.explicit
    return int(np.searchsorted(energies, rule.energy * energies[-1], side="left")) + 1


def random_orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed matrix with orthonormal columns, rows >= cols."""
    if cols > rows:
        raise ValidationError(f"cannot fit {cols} orthonormal columns in {rows} rows")
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def sorted_gap(mags: np.ndarray) -> int | np.ndarray:
    """`largest_gap` of magnitudes already sorted in descending order along
    the first axis, for a caller that holds them sorted."""
    if mags.shape[0] < 2:
        return 0 if mags.ndim == 1 else np.zeros(mags.shape[1], dtype=np.intp)
    gaps = mags[:-1] - mags[1:]
    count = np.where(np.max(gaps, axis=0) > 0.0, np.argmax(gaps, axis=0) + 1, 0)
    return int(count) if mags.ndim == 1 else count
