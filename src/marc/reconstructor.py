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

The least-squares fit goes through each column's k x k normal map
(D_v^T D_v)^-1, D_v being the visible rows of the k-wide design. The maps of
a block come from its Grams D_v^T D_v, formed by one product and factored by
one stacked `np.linalg.eigh`. The normal equations square the condition
number, so a Gram is trusted only when its smallest eigenvalue is above
NORMAL_RATIO times its largest; any other column (a rank-deficient or
ill-conditioned visible design, or one with fewer than k rows) takes its
factor from `np.linalg.pinv(D_v)` instead.

`reconstruct_many` solves a block of vectors as independent problems that
share each sweep's matrix products; `reconstruct` is its one-vector case, so
both run the same steps. Every vector's result is built once, by the one
`retire` of its slice: `trainer.run_penalty_steps` retires a problem when it
stops, and a vector with no visible signal is retired before the first step.

Inputs meet the rules training data meets, once per call: the length rule
`dataset.check_input` (one vector) and the value rule `dataset.check_observed`
(the vector, or the whole block naming the column at fault).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dataset import AttributeSchema, check_input, check_observed
from .errors import DegenerateMatrixError, ValidationError, check_integer
from .proxops import RankRule, soft_threshold, svd_span
from .trainer import ModelBundle, Schedule, TrainDiagnostics, checked_norms, run_penalty_steps

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

# The x step inverts each column's k x k Gram D_v^T D_v, which squares the
# condition number: its eigenvalues carry an absolute error of about
# eps * lambda_max, so the inverse carries a relative error of about
# eps * cond(D_v)^2 = eps * lambda_max / lambda_min. A Gram is trusted when
# every eigenvalue is above NORMAL_RATIO * lambda_max, where that error is
# ~2e-13 (cond(D_v) < 32). On the benchmark's held-out masks (seeds 1 and
# 11) the stock and cli-pipeline designs have cond(D_v) <= 6.7, far inside.
NORMAL_RATIO = 1e-3

# reconstruct_many solves at most this many columns at once, split evenly: a
# sweep's numpy calls cover many vectors, yet its working arrays stay small
# (~30 kB per vector at 200 dims). One 200-column slice ran slower than 4 of 50.
BLOCK_WIDTH = 64


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

    def __post_init__(self) -> None:
        for mode in self.pinned:
            if mode is not None:
                check_integer(mode, "pinned instantiation")

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
    block (`reconstruct_many`) holds the working set of one slice, the B
    columns still running, one per column: selectors[i] is (M_i, B),
    indiv_coeffs (r, B), sparse_error and dual (dim, B), and mu (B,). The
    step index is not a field: observers get it as their argument t."""

    config: ReconConfig
    selectors: list[np.ndarray]
    indiv_coeffs: np.ndarray
    sparse_error: np.ndarray
    dual: np.ndarray
    mu: float | np.ndarray
    lam: float


ReconObserver = Callable[[ReconState, int], None]


def build_span(bundle: ModelBundle, rule: RankRule | None = None) -> np.ndarray:
    """Orthonormal basis of the trained individual component, as wide as
    `rule` picks (default: ReconConfig's), cut from the bundle's SVD;
    the bundle is left as it was. An identically zero individual part has no
    span of any width, an explicit rank included; reconstruct such a model
    with use_individual=False."""
    if rule is None:
        rule = ReconConfig().rank_rule
    if bundle.individual_svd[1][0] == 0.0:  # the spectral norm of G
        raise DegenerateMatrixError(
            "the trained individual component is identically zero; "
            "reconstruct without it (use_individual=False, --no-individual)"
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


def _check_spec(spec: TransferSpec | None, schema: AttributeSchema) -> TransferSpec:
    if spec is None:
        return TransferSpec.all_free(schema)
    if len(spec.pinned) != schema.count:
        raise ValidationError("transfer spec does not cover the schema")
    for i, mode in enumerate(spec.pinned):
        if mode is not None and mode >= schema.size(i):
            raise ValidationError(
                f"pinned instantiation {mode} out of range for attribute '{schema.name(i)}'"
            )
    return spec


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
    check_observed(y, w_y, data="input vector", mask="input mask")
    observed = y * w_y
    norms = checked_norms([observed], "reconstruction",
                          lambda _: "the observed norm of the input vector")
    [result] = _solve(y, w_y, observed, norms, bundle, spec, config, observer)
    return result


def reconstruct_many(
    Y: np.ndarray,
    W: np.ndarray | None,
    bundle: ModelBundle,
    spec: TransferSpec | None = None,
    config: ReconConfig = ReconConfig(),
    observer: ReconObserver | None = None,
    name: Callable[[int], str] = lambda c: f"column {c}",
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
    `ReconState` of the working set. The columns are solved in slices of at
    most BLOCK_WIDTH, split evenly, one after another: the observer sees
    each slice's working set in turn, t starting at 0 for each.

    Hidden entries of `Y` enter no step: the solve runs on W.*Y, so the
    selectors, coefficients, reconstruction and diagnostics are those of
    the masked input. Only the returned sparse error reads them: its hidden
    entries add them back, so that there it absorbs y minus the synthesis.
    A column with no visible signal (W.*y = 0) takes no step: it leaves
    the working set as a stopped column does, but before the first step,
    with zero free selectors and coefficients, the pinned synthesis as its
    reconstruction, and TrainDiagnostics.zero_input(lam) as its record.

    Pinned selectors are copied from the trained bank and never touched, so
    they come back bitwise identical. Non-convergence is flagged in
    diagnostics, not raised. The whole input is checked before any slice
    is solved: input that breaks `dataset.check_observed` raises
    ValidationError naming the first offending column c as `name(c)`, and a
    column whose observed norm overflows float64 raises NumericalError.
    """
    dim = bundle.dim
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != dim:
        raise ValidationError(f"input block has shape {Y.shape}, expected ({dim}, count)")
    Y, W = check_observed(Y, W, name, "input vector", "input mask")
    observed = Y * W
    norms = checked_norms(observed.T, "reconstruction", lambda c: f"the observed norm of {name(c)}")
    count = Y.shape[1]
    slices = np.array_split(np.arange(count), math.ceil(count / BLOCK_WIDTH)) if count else []
    return [result for block in slices
            for result in _solve(Y[:, block], W[:, block], observed[:, block],
                                 [norms[c] for c in block], bundle, spec, config, observer)]


def _sq_norms(a: np.ndarray) -> np.ndarray | float:
    """The squared norm of each column of `a`, or of `a` itself when it
    holds one vector."""
    return a @ a if a.ndim == 1 else np.add.reduce(a * a)


def _column(a: np.ndarray, c: int) -> np.ndarray:
    """Column `c` of a per-column array of `_solve`: `a` itself when it
    holds one vector."""
    return a[:, c] if a.ndim == 2 else a


def _normal_maps(design: np.ndarray,
                 visible: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The k x k normal map (D_v^T D_v)^-1 of each column of the dim x B
    boolean `visible`, D_v being the rows of the dim x k `design` it sees,
    stacked B x k x k; and the pinv factor P = pinv(D_v) of every column
    whose Gram is not trusted, by column. One product forms the B Grams from
    the row-wise outer products of `design` (a lone column's Gram is
    D^T diag(w) D), one stacked `eigh` factors them, and a trusted Gram's map
    is V diag(1/lambda) V^T. A Gram is trusted when every eigenvalue is above
    NORMAL_RATIO * lambda_max (a zero-width Gram is, vacuously), which a
    column that sees fewer than k rows, or a rank-deficient D_v, never
    passes; any other column's map is P P^T, as `np.linalg.pinv` gives it."""
    dim, k = design.shape
    # For one column the outer products cost more than they save: built
    # anyway, they add ~5% to a one-vector solve (paired per-call median over
    # 200 stock holdouts, free and pinned in turn, one BLAS thread, 2-core VM).
    if visible.shape[1] == 1:
        grams = ((design.T * visible.T) @ design)[None]
    else:
        outer = (design[:, :, None] * design[:, None, :]).reshape(dim, k * k)
        grams = (visible.T.astype(np.float64) @ outer).reshape(visible.shape[1], k, k)
    lam, vec = np.linalg.eigh(grams)
    trusted = np.all(lam > NORMAL_RATIO * lam[:, -1:], axis=1)
    inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=trusted[:, None])
    maps = (vec * inverse[:, None, :]) @ vec.transpose(0, 2, 1)
    fallback = {int(c): np.linalg.pinv(design[visible[:, c]]) for c in np.flatnonzero(~trusted)}
    for c, factor in fallback.items():
        maps[c] = factor @ factor.T
    return maps, fallback


def _solve(
    Y: np.ndarray,
    W: np.ndarray,
    observed: np.ndarray,
    norms: list[float],
    bundle: ModelBundle,
    spec: TransferSpec | None,
    config: ReconConfig,
    observer: ReconObserver | None,
) -> list[ReconResult]:
    """A slice of `reconstruct_many` on checked input: Y, W and `observed`
    = Y * W are (dim, B), or (dim,) for one vector, with their B observed
    `norms`. One vector runs the same steps without the column axis: its
    state holds 1-D arrays and a scalar mu, which its observer sees, and its
    per-column bookkeeping costs no numpy calls on length-1 arrays. That
    path pays for itself: solving the same vector as a 1-column block takes
    ~25% longer (paired per-call median over 200 stock holdouts, free and
    pinned in turn, one BLAS thread, 2-core VM)."""
    spec = _check_spec(spec, bundle.schema)
    dim = bundle.dim
    columns = [Y] if Y.ndim == 1 else list(Y.T)
    span = build_span(bundle, config.rank_rule) if config.use_individual else np.zeros((dim, 0))
    bases = bundle.bases
    trained = [bundle.bank.selectors[i][:, mode] if mode is not None else None
               for i, mode in enumerate(spec.pinned)]
    free = [i for i, sel in enumerate(trained) if sel is None]
    lam = config.effective_lam(dim, 1)
    results: list[ReconResult | None] = [None] * len(columns)
    zero = [c for c, norm in enumerate(norms) if norm == 0.0]
    # A zero-signal column retires before the first step: no step reads its
    # norm, and 1 keeps its mu0 finite.
    norm = (norms[0] or 1.0) if Y.ndim == 1 else np.array([norm or 1.0 for norm in norms])
    tail = Y.shape[1:]  # () for one vector, (B,) for a block

    def lift(v: np.ndarray) -> np.ndarray:
        """A per-vector array shaped to broadcast along the column axis."""
        return v.reshape(v.shape + (1,) * len(tail))

    visible = W != 0.0
    masks = [visible] if visible.ndim == 1 else list(visible.T)

    # The primal blocks of a sweep are x, the free selectors and the span
    # coefficients taken together, then the sparse error e. Hidden entries of
    # e carry no penalty and absorb whatever x leaves there, so the x step is
    # each column's least-squares fit on its visible rows,
    # (D_v^T D_v)^-1 D_v^T r_v, with D the stacked design [F_free, K] (K zero
    # columns wide without the span) and k its width. `_normal_maps` gives
    # each column's k x k normal map (D_v^T D_v)^-1 from one stacked
    # eigendecomposition of the Grams; a column whose Gram it cannot trust
    # (see NORMAL_RATIO) takes P P^T, P = pinv(D_v), instead. When every
    # column has one mask, the map times D_v^T (or that column's P) is placed
    # on the visible columns (zero on hidden rows), and each sweep takes one
    # product with it for the whole block; the normal-map form below takes
    # ~9% longer on one vector (paired per-call median over 200 stock
    # holdouts, free and pinned in turn, one BLAS thread, 2-core VM).
    # Otherwise each column takes map D^T (w .* r): the block takes one
    # product with D^T and a stacked k x k one. Either way hidden rows of r
    # enter no x step.
    blocks = [bases[i] for i in free] + [span]
    design = np.concatenate(blocks, axis=1)
    ends = list(itertools.accumulate((block.shape[1] for block in blocks), initial=0))
    pieces = [slice(a, b) for a, b in zip(ends, ends[1:])]
    cols = {
        "visible": visible, "observed": observed, "norm": norm,
        "tol_sq": (INNER_TOL * norm) ** 2,
        "x": np.zeros((design.shape[1],) + tail),
        "input": np.arange(len(columns)),  # each working column's index in the input
    }
    if (visible.T == masks[0]).all():
        maps, fallback = _normal_maps(design, masks[0][:, None])
        placed = np.zeros((design.shape[1], dim))
        placed[:, masks[0]] = fallback[0] if fallback else maps[0] @ design[masks[0]].T
    else:
        placed = None
        cols["maps"] = _normal_maps(design, visible)[0]
    # Pinned terms F_k h_k are fixed: formed once, added in schema order.
    terms = [lift(bases[i] @ sel) if sel is not None else None for i, sel in enumerate(trained)]
    pinned = np.zeros(dim)
    for term in terms:
        if term is not None:
            pinned += term.reshape(dim)
    cols["free_target"] = observed - lift(pinned)
    state = ReconState(
        config=config,
        selectors=[np.repeat(lift(sel), len(columns), axis=-1) if sel is not None
                   else np.zeros((bundle.schema.size(i),) + tail)
                   for i, sel in enumerate(trained)],
        indiv_coeffs=np.zeros((span.shape[1],) + tail),
        sparse_error=np.where(visible, 0.0, -lift(pinned)),
        dual=np.zeros(Y.shape),
        mu=config.mu0_scale / norm,
        lam=lam,
    )
    # The last closing step's sum F_k h_k and K w. They and e start at the
    # result of a column that takes no step: the pinned synthesis, with e
    # absorbing its residual on hidden entries. A column that steps never
    # reads those entries: the x step skips hidden rows, and the closing E
    # step overwrites e.
    shared, indiv = np.broadcast_to(lift(pinned), Y.shape), np.zeros(Y.shape)

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
            if placed is not None:
                new = placed @ (target - err)
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

    def retire(stopped: list[int], diags: list[TrainDiagnostics]) -> None:
        for c, diag in zip(stopped, diags):
            k = cols["input"][c]
            e = _column(state.sparse_error, c)
            results[k] = ReconResult(
                selectors=[_column(sel, c).copy() for sel in state.selectors],
                indiv_coeffs=_column(state.indiv_coeffs, c).copy(),
                sparse_error=np.where(_column(cols["visible"], c), e, e + columns[k]),
                reconstruction=_column(shared, c) + _column(indiv, c),
                diagnostics=diag,
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

    if zero:
        retire(zero, [TrainDiagnostics.zero_input(lam) for _ in zero])
    if len(zero) < len(columns):
        run_penalty_steps(state, sweeps, residual, observer, "reconstruction", retire)
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
