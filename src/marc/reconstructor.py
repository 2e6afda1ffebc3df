"""ADMM reconstruction of vectors against a trained model.

A test vector y (with binary visibility mask w_y) is decomposed as

    y = sum_i F_i h_i + K w + e

where the F_i are the trained bases, K is an orthonormal basis of the
trained individual component, and e is sparse on visible entries while
absorbing hidden entries exactly. Completion solves every selector h_i
freely; transfer pins chosen attributes to trained selectors and re-solves
the remaining variables jointly around them.

Each penalty step solves its subproblem by Gauss-Seidel sweeps rather than a
single pass (the exact rather than the inexact augmented Lagrangian method,
Lin, Chen & Ma, arXiv:1009.5055): one pass per step lets the penalty grow
past the point where the split can still change, and the iterate freezes
feasible but wrong. A sweep solves the free selectors and the span
coefficients together by least squares on the visible rows, then
soft-thresholds the visible part of e.

`reconstruct_many` solves a block of vectors as independent problems that
share each sweep's matrix products; `reconstruct` is its one-vector case, so
both run the same steps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dataset import AttributeSchema
from .errors import DegenerateMatrixError, ValidationError
from .proxops import RankRule, soft_threshold, svd_span
from .trainer import ModelBundle, Schedule, TrainDiagnostics, run_penalty_steps

# Each penalty step runs up to INNER_SWEEPS Gauss-Seidel sweeps of the primal
# blocks (free selectors with span coefficients, then the sparse error); a
# sweep that moves the synthesis by at most INNER_TOL * ||y|| ends the step.
# Measured on planted models at the pinned schedule: with a cap of 10, 7-14 in
# 100 spiked, 30%-hidden vectors of a 40-dim model still completed wrongly
# (the first steps need more sweeps to pull clean signal back out of e);
# tolerances from 1.5e-2 up failed on the 200-dim stock model. Tighter
# tolerances buy no accuracy and cost transfers, whose l1-like subproblems
# sweeps converge on slowly, many more sweeps.
INNER_SWEEPS = 30
INNER_TOL = 3e-3


@dataclass(frozen=True)
class ReconConfig(Schedule):
    """Reconstruction hyperparameters: the shared schedule (lam = None
    selects 1/sqrt(dim)), plus rank_rule, which picks the width of the
    individual span K, and use_individual; False drops K entirely (for
    models whose individual part is degenerate or unwanted)."""

    rank_rule: RankRule = RankRule.energy_fraction(0.99)
    use_individual: bool = True


@dataclass(frozen=True)
class TransferSpec:
    """Per-attribute mode: None solves the selector freely, an instantiation
    index pins it to the trained selector for that instantiation."""

    pinned: tuple[int | None, ...]

    @classmethod
    def all_free(cls, schema: AttributeSchema) -> "TransferSpec":
        return cls(tuple(None for _ in range(schema.count)))

    @classmethod
    def targets(cls, schema: AttributeSchema, by_name: Mapping[str, str]) -> "TransferSpec":
        """Pin the named attributes to the named instantiations; the rest
        stay free. Unknown names raise ValidationError."""
        modes: list[int | None] = [None] * schema.count
        for name, label in by_name.items():
            i = schema.attr_index(name)
            modes[i] = schema.inst_index(i, label)
        return cls(tuple(modes))


@dataclass
class ReconResult:
    """Solved components: per-attribute selectors, coefficients on the
    individual span, the sparse error, and the synthesized reconstruction
    (selectors and span coefficients only; the error is excluded)."""

    selectors: list[np.ndarray]
    indiv_coeffs: np.ndarray
    sparse_error: np.ndarray
    reconstruction: np.ndarray
    diagnostics: TrainDiagnostics


@dataclass
class ReconState:
    """Mutable reconstruction state, exposed to observers per iteration.
    For one vector (`reconstruct`) the arrays are 1-D and mu is a float. A
    block (`reconstruct_many`) holds its working set, the B columns still
    running, one per column: selectors[i] is (M_i, B), indiv_coeffs (r, B),
    sparse_error and dual (dim, B), and mu (B,)."""

    config: ReconConfig
    selectors: list[np.ndarray]
    indiv_coeffs: np.ndarray
    sparse_error: np.ndarray
    dual: np.ndarray
    mu: float | np.ndarray
    lam: float
    t: int = 0


ReconObserver = Callable[[ReconState, int], None]


def build_span(bundle: ModelBundle, rule: RankRule | None = None) -> np.ndarray:
    """Orthonormal basis of the trained individual component, as wide as
    `rule` picks (default: ReconConfig's), cut from the bundle's SVD;
    the bundle is left as it was. An identically zero individual part has no
    span; either pass an explicit rank against a nonzero component or
    reconstruct with use_individual=False."""
    if rule is None:
        rule = ReconConfig().rank_rule
    if bundle.individual_svd[1][0] == 0.0:  # the spectral norm of G
        raise DegenerateMatrixError(
            "the trained individual component is identically zero; "
            "pass an explicit rank or set use_individual=False"
        )
    return svd_span(bundle.individual_svd, rule)


def synthesize(
    bundle: ModelBundle,
    spec: TransferSpec,
    selectors: list[np.ndarray],
    coeffs: np.ndarray,
    rule: RankRule,
) -> np.ndarray:
    """sum_i F_i h_i + K w, where h_i is the trained selector of the
    instantiation `spec` pins attribute i to, or else selectors[i], and K is
    build_span(bundle, rule), needed only when there are coefficients w."""
    out = np.zeros(bundle.dim)
    for i, mode in enumerate(spec.pinned):
        sel = bundle.bank.selectors[i][:, mode] if mode is not None else selectors[i]
        out += bundle.bases[i] @ sel
    if coeffs.size:
        out += build_span(bundle, rule) @ coeffs
    return out


def _check_vector(y: np.ndarray, dim: int, name: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size != dim:
        raise ValidationError(f"{name} has length {y.size}, expected {dim}")
    return y


def check_input(y: np.ndarray, w_y: np.ndarray | None, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One input vector and its mask (None: every entry visible) as float
    vectors of length `dim`. Raises ValidationError for a wrong length,
    non-finite data, or a mask that is not strictly 0/1."""
    y = _check_vector(y, dim, "input vector")
    if not np.all(np.isfinite(y)):
        raise ValidationError("input vector contains non-finite entries")
    if w_y is None:
        return y, np.ones(dim)
    w_y = _check_vector(w_y, dim, "input mask")
    if not np.all((w_y == 0.0) | (w_y == 1.0)):
        raise ValidationError("input mask must be strictly binary (0/1 entries)")
    return y, w_y


def _check_spec(spec: TransferSpec | None, schema: AttributeSchema) -> TransferSpec:
    if spec is None:
        return TransferSpec.all_free(schema)
    if len(spec.pinned) != schema.count:
        raise ValidationError("transfer spec does not cover the schema")
    for i, mode in enumerate(spec.pinned):
        if mode is not None and not 0 <= mode < schema.size(i):
            raise ValidationError(
                f"pinned instantiation {mode} out of range for attribute '{schema.name(i)}'"
            )
    return spec


def _pinv_svd(design_v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s_plus, vt) from the SVD design_v = u diag(s) vt, where s_plus
    inverts the singular values `np.linalg.pinv` keeps (s > 1e-15 max s)
    and zeroes the rest: pinv(design_v) = vt^T diag(s_plus) u^T, also when
    design_v is rank deficient."""
    u, s, vt = np.linalg.svd(design_v, full_matrices=False)
    large = s > 1e-15 * s.max(initial=0.0)
    s_plus = np.zeros_like(s)
    s_plus[large] = 1.0 / s[large]
    return u, s_plus, vt


def reconstruct(
    y: np.ndarray,
    w_y: np.ndarray | None,
    bundle: ModelBundle,
    spec: TransferSpec | None = None,
    config: ReconConfig = ReconConfig(),
    observer: ReconObserver | None = None,
) -> ReconResult:
    """Solve the decomposition of one vector: the one-column case of
    `reconstruct_many`, whose doc says how. `observer`, if given, is called
    once per penalty step with (state, t), where state holds this vector's
    iterates as 1-D arrays and mu as a float."""
    y, w_y = check_input(y, w_y, bundle.dim)
    [result] = _solve(y, w_y, bundle, spec, config, observer)
    return result


def reconstruct_many(
    Y: np.ndarray,
    W: np.ndarray | None,
    bundle: ModelBundle,
    spec: TransferSpec | None = None,
    config: ReconConfig = ReconConfig(),
    observer: ReconObserver | None = None,
) -> list[ReconResult]:
    """Reconstruct the B columns of the dim x B block `Y` (masks: the
    columns of `W`; None: every entry visible) against one model and one
    transfer spec, by ADMM. Returns one ReconResult per column, in order.

    Each column is its own problem, solved as it would be alone: its own
    penalty start mu0_scale / ||w .* y||, its own sweeps, stop rule and
    TrainDiagnostics. The columns share the arithmetic: each sweep is one
    product with the design matrix for the whole block. Every penalty step
    runs up to INNER_SWEEPS sweeps of the primal blocks; a column's sweeps
    end, and its iterate stays put, once a sweep moves its synthesis by at
    most INNER_TOL * ||w .* y||. Then comes one dual step. The loop around
    the sweeps is `trainer.run_penalty_steps` on the residual
    ||y - sum F_i h_i - K w - e|| / ||y||, which e enters on every entry,
    so both residual histories hold it. `stop_reason` says whether a column
    stopped at eps, at t_max, or stalled at mu_max; a stopped column leaves
    the working set. `observer` and the histories see one entry per
    penalty step, after its closing E step; the observer gets the
    `ReconState` of the working set.

    Hidden entries of `Y` enter no step: the solve runs on W.*Y, so the
    selectors, coefficients, reconstruction and diagnostics are those of
    the masked input. Only the returned sparse error reads them: its hidden
    entries add them back, so that there it absorbs y minus the synthesis.
    A column with no visible signal (W.*y = 0) takes no step.

    Pinned selectors are copied from the trained bank and never touched, so
    they come back bitwise identical. Non-convergence is flagged in
    diagnostics, not raised. A column that fails `check_input` raises
    ValidationError naming its index.
    """
    dim = bundle.dim
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != dim:
        raise ValidationError(f"input block has shape {Y.shape}, expected ({dim}, count)")
    if W is None:
        W = np.ones_like(Y)
    W = np.asarray(W, dtype=np.float64)
    if W.shape != Y.shape:
        raise ValidationError(f"input masks have shape {W.shape}, expected {Y.shape}")
    for c in range(Y.shape[1]):
        try:
            check_input(Y[:, c], W[:, c], dim)
        except ValidationError as exc:
            raise ValidationError(f"column {c}: {exc}") from None
    return _solve(Y, W, bundle, spec, config, observer)


def _sq_norms(a: np.ndarray) -> np.ndarray | float:
    """The squared norm of each column of `a`, or of `a` itself when it
    holds one vector."""
    return a @ a if a.ndim == 1 else np.add.reduce(a * a)


def _column(a: np.ndarray, c: int) -> np.ndarray:
    """Column `c` of a per-column array of `_solve`: `a` itself when it
    holds one vector."""
    return a[:, c] if a.ndim == 2 else a


def _solve(
    Y: np.ndarray,
    W: np.ndarray,
    bundle: ModelBundle,
    spec: TransferSpec | None,
    config: ReconConfig,
    observer: ReconObserver | None,
) -> list[ReconResult]:
    """`reconstruct_many` on checked input: Y and W are (dim, B) for a
    block, or (dim,) for one vector. One vector runs the same steps without
    the column axis: its state holds 1-D arrays and a scalar mu, which its
    observer sees, and its per-column bookkeeping costs no numpy calls on
    length-1 arrays."""
    spec = _check_spec(spec, bundle.schema)
    dim = bundle.dim
    columns = [Y] if Y.ndim == 1 else list(Y.T)
    count = len(columns)
    span = build_span(bundle, config.rank_rule) if config.use_individual else np.zeros((dim, 0))
    bases = bundle.bases
    trained = [bundle.bank.selectors[i][:, mode] if mode is not None else None
               for i, mode in enumerate(spec.pinned)]
    free = [i for i, sel in enumerate(trained) if sel is None]
    lam = config.effective_lam(dim, 1)
    observed = Y * W
    norms = [float(np.linalg.norm(_column(observed, c))) for c in range(count)]
    results: list[ReconResult | None] = [None] * count

    live = [c for c, norm in enumerate(norms) if norm != 0.0]
    for c in (c for c, norm in enumerate(norms) if norm == 0.0):
        selectors = [sel.copy() if sel is not None else np.zeros(bundle.schema.size(i))
                     for i, sel in enumerate(trained)]
        coeffs = np.zeros(span.shape[1])
        out = synthesize(bundle, spec, selectors, coeffs, config.rank_rule)
        results[c] = ReconResult(
            selectors=selectors,
            indiv_coeffs=coeffs,
            sparse_error=np.where(_column(W, c) != 0.0, 0.0, columns[c] - out),
            reconstruction=out,
            diagnostics=TrainDiagnostics.zero_input(lam),
        )
    if not live:
        return results
    if Y.ndim == 1:
        norm = norms[0]
    else:
        if len(live) < count:
            Y, W, observed = Y[:, live], W[:, live], observed[:, live]
        norm = np.array([norms[c] for c in live])
    tail = Y.shape[1:]  # () for one vector, (B,) for a block

    def lift(v: np.ndarray) -> np.ndarray:
        """A per-vector array shaped to broadcast along the column axis."""
        return v.reshape(v.shape + (1,) * len(tail))

    visible = W != 0.0
    masks = [visible] if visible.ndim == 1 else list(visible.T)

    # The primal blocks of a sweep are x, the free selectors and the span
    # coefficients taken together, then the sparse error e. Hidden entries of
    # e carry no penalty and absorb whatever x leaves there, so the x step is
    # each column's least-squares fit on its visible rows, pinv(D_v) r_v,
    # with D the stacked design [F_free, K]: one SVD per distinct mask. When
    # every column has one mask, that is a product with the pseudo-inverse
    # (zero on hidden rows) for the whole block. Otherwise each column takes
    # M D^T (w .* r), where M = V S^-2 V^T is its mask's k x k normal map
    # (k the width of D): one product with D^T for the whole block and a
    # stacked k x k one. Either way hidden rows of r enter no x step.
    blocks = [bases[i] for i in free] + ([span] if span.shape[1] else [])
    design = np.concatenate(blocks, axis=1) if blocks else np.zeros((dim, 0))
    ends = list(itertools.accumulate((block.shape[1] for block in blocks), initial=0))
    pieces = [slice(a, b) for a, b in zip(ends, ends[1:])]
    first: dict[bytes, int] = {}
    mask_of = [first.setdefault(mask.tobytes(), c) for c, mask in enumerate(masks)]
    cols = {
        "visible": visible, "observed": observed, "norm": norm,
        "tol_sq": (INNER_TOL * norm) ** 2,
        "x": np.zeros((design.shape[1],) + tail),
    }
    if len(first) == 1:
        u, s_plus, vt = _pinv_svd(design[masks[0]])
        pinv = np.zeros((design.shape[1], dim))
        pinv[:, masks[0]] = vt.T @ (s_plus[:, None] * u.T)
    else:
        pinv = None
        normal = {}
        for c in first.values():
            _, s_plus, vt = _pinv_svd(design[masks[c]])
            normal[c] = (vt.T * s_plus ** 2) @ vt
        cols["maps"] = np.stack([normal[c] for c in mask_of])
    # Pinned terms F_k h_k are fixed: formed once, added in schema order.
    terms = [lift(bases[i] @ sel) if sel is not None else None for i, sel in enumerate(trained)]
    pinned = np.zeros(dim)
    for term in terms:
        if term is not None:
            pinned += term.reshape(dim)
    cols["free_target"] = observed - lift(pinned)
    state = ReconState(
        config=config,
        selectors=[np.repeat(lift(sel), len(live), axis=-1) if sel is not None
                   else np.zeros((bundle.schema.size(i),) + tail)
                   for i, sel in enumerate(trained)],
        indiv_coeffs=np.zeros((span.shape[1],) + tail),
        sparse_error=np.zeros(Y.shape),
        dual=np.zeros(Y.shape),
        mu=config.mu0_scale / norm,
        lam=lam,
    )
    shared = indiv = np.zeros(Y.shape)  # the last closing step's sum F_k h_k and K w
    kept: dict[int, tuple] = {}

    def sweeps() -> np.ndarray:
        nonlocal shared, indiv
        x, tol_sq = cols["x"], cols["tol_sq"]
        scaled_dual = state.dual / state.mu
        bound = lam / state.mu
        target = cols["free_target"] + scaled_dual
        err = state.sparse_error
        moving = True
        some_frozen = False
        for sweep in range(INNER_SWEEPS):
            if pinv is not None:
                new = pinv @ (target - err)
            else:
                rhs = design.T @ (cols["visible"] * (target - err))
                new = np.matmul(cols["maps"], rhs.T[:, :, None])[:, :, 0].T
            step = new - x
            x = np.where(moving, new, x) if some_frozen else new
            # Blocks have orthonormal columns: a column of step^2 sums the
            # squared distances the sweep moved each block's synthesis.
            moving &= _sq_norms(step) > tol_sq
            still = np.count_nonzero(moving) if moving.ndim else bool(moving)
            if sweep == INNER_SWEEPS - 1 or not still:
                break
            some_frozen = still < moving.size
            err = soft_threshold(target - design @ x, bound)
        cols["x"] = x
        for i, piece in zip(free, pieces):
            state.selectors[i] = x[piece]
        if span.shape[1]:
            state.indiv_coeffs = x[pieces[-1]]
        # The closing E step, on every entry from freshly summed components,
        # so that hidden entries of e equal the residual bitwise.
        shared = np.zeros(state.sparse_error.shape)
        for k, term in enumerate(terms):
            shared += bases[k] @ state.selectors[k] if term is None else term
        indiv = span @ state.indiv_coeffs
        unexplained = cols["observed"] - shared - indiv
        augmented = unexplained + scaled_dual
        state.sparse_error = np.where(cols["visible"], soft_threshold(augmented, bound), augmented)
        return unexplained

    def residual(unexplained: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gap = unexplained - state.sparse_error
        res = np.sqrt(_sq_norms(gap)) / cols["norm"]
        return res, res

    def retire(stopped: list[int], problems: list[int]) -> None:
        for c, j in zip(stopped, problems):
            e = _column(state.sparse_error, c)
            kept[j] = (
                [_column(sel, c).copy() for sel in state.selectors],
                _column(state.indiv_coeffs, c).copy(),
                np.where(_column(cols["visible"], c), e, e + columns[live[j]]),
                _column(shared, c) + _column(indiv, c),
            )
        if np.ndim(state.mu) == 0 or len(stopped) == state.mu.size:
            return
        keep = np.ones(state.mu.size, dtype=bool)
        keep[stopped] = False
        for key, value in cols.items():
            cols[key] = value[:, keep] if value.ndim == 2 else value[keep]
        state.selectors = [sel[:, keep] for sel in state.selectors]
        state.indiv_coeffs = state.indiv_coeffs[:, keep]
        state.sparse_error = state.sparse_error[:, keep]
        state.dual = state.dual[:, keep]
        state.mu = state.mu[keep]

    diags = run_penalty_steps(state, sweeps, residual, observer, "reconstruction", retire)
    for j, diag in enumerate(diags):
        selectors, coeffs, sparse_error, reconstruction = kept[j]
        results[live[j]] = ReconResult(selectors, coeffs, sparse_error, reconstruction, diag)
    return results


def complete(
    y: np.ndarray,
    w_y: np.ndarray | None,
    bundle: ModelBundle,
    config: ReconConfig = ReconConfig(),
) -> np.ndarray:
    """Fill in a partially observed vector: solve every selector freely and
    return the synthesized reconstruction."""
    spec = TransferSpec.all_free(bundle.schema)
    return reconstruct(y, w_y, bundle, spec, config).reconstruction


def transfer(
    y: np.ndarray,
    w_y: np.ndarray | None,
    bundle: ModelBundle,
    targets: Mapping[str, str],
    config: ReconConfig = ReconConfig(),
    post_hoc: bool = False,
) -> np.ndarray:
    """Reconstruct `y` with the target attributes pinned to trained
    instantiations.

    Default: joint re-solve around the pinned selectors. With post_hoc=True
    the vector is first completed freely, then the pinned selectors are
    substituted into the synthesis; exposed for comparing the two routes.
    """
    spec = TransferSpec.targets(bundle.schema, targets)
    if not post_hoc:
        return reconstruct(y, w_y, bundle, spec, config).reconstruction
    result = reconstruct(y, w_y, bundle, TransferSpec.all_free(bundle.schema), config)
    return synthesize(bundle, spec, result.selectors, result.indiv_coeffs, config.rank_rule)
