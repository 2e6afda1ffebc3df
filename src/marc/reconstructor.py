"""ADMM reconstruction of vectors against a trained model.

A test vector y (with binary visibility mask w_y) is decomposed as

    y = sum_i F_i h_i + K w + e

where the F_i are the trained bases, K is an orthonormal basis of the
trained individual component, and e is sparse on visible entries while
absorbing hidden entries exactly. Every vector is solved with every
selector h_i free, its completion; a transfer then re-renders that
completion with the attributes its spec pins taking their trained
selectors.

Each penalty step solves its subproblem by Gauss-Seidel sweeps rather than a
single pass (the exact rather than the inexact augmented Lagrangian method,
Lin, Chen & Ma, arXiv:1009.5055): one pass per step lets the penalty grow
past the point where the split can still change, and the iterate freezes
feasible but wrong. A sweep solves the selectors and the span
coefficients together by least squares on the visible rows, then
soft-thresholds the visible part of e.

Every x step, a lone vector's as a block's, is each column's least-squares
fit through its k x k normal map (D_v^T D_v)^-1, D_v being the visible rows
of the k-wide design: `decode.normal_maps` gives the maps, by one trust rule
and one inverse, and which of them it trusts.

With the selectors and the span unpenalised, a vector's optimum is the
least-absolute-deviations fit of its visible entries by the design; lam only
shapes the path to it. So the first penalty step, right after its first
least-squares fit, decodes each vector by `decode.decode`, the certified LAD
decoder of the `decode` module (gap cuts), with eps the schedule's stop
threshold. A certified vector keeps its refit, its e takes the residual on
every entry, and it stops `converged` after that step with a residual of 0.
Any other vector runs the steps as it would without the decode, bitwise
when solved alone; in a block, whose working set narrows as certified
columns retire, to rounding.

`reconstruct_many` solves a block of vectors as independent problems that
share each sweep's matrix products; `reconstruct` is its one-vector case, so
both run the same steps. Every vector's result, a transfer's re-rendering
included, is built once, by the one `retire` of its slice:
`trainer.run_penalty_steps` retires a problem when it stops, and a vector
with no visible signal is retired before the first step.

Inputs meet the rules training data meets, once per call: the length rule
`dataset.check_input` (one vector) and the value rule `dataset.check_observed`
(the vector, or the whole block naming the column at fault), and so is the
transfer spec, an empty block's too.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import decode
from .dataset import AttributeSchema, check_input, check_observed
from .errors import DegenerateMatrixError, ValidationError, check_integer
from .proxops import RankRule, soft_threshold, span_width
from .trainer import ModelBundle, Schedule, TrainDiagnostics, checked_norms, run_penalty_steps

# Each penalty step runs up to INNER_SWEEPS Gauss-Seidel sweeps of the primal
# blocks (selectors with span coefficients, then the sparse error); a
# sweep that moves the synthesis by at most INNER_TOL * ||y|| ends the step.
# Measured on planted models at the pinned schedule: with a cap of 10, 7-14 in
# 100 spiked, 30%-hidden vectors of a 40-dim model still completed wrongly
# (the first steps need more sweeps to pull clean signal back out of e);
# tolerances from 1.5e-2 up failed on the 200-dim stock model. Tighter
# tolerances buy no accuracy and cost more sweeps.
INNER_SWEEPS = 30
INNER_TOL = 3e-3

# reconstruct_many solves at most this many columns at once, split evenly: a
# sweep's numpy calls cover many vectors, yet its working arrays stay small
# (~30 kB per vector at 200 dims). One 200-column slice ran slower than 4 of 50.
BLOCK_WIDTH = 64


@dataclass(frozen=True)
class ReconConfig(Schedule):
    """Reconstruction hyperparameters: the shared schedule (lam = None
    selects 1/sqrt(dim)), plus rank_rule, which picks the width of the
    individual span K; None drops K entirely (for models whose individual
    part is degenerate or unwanted)."""

    rank_rule: RankRule | None = RankRule.energy_fraction(0.99)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.rank_rule, (RankRule, type(None))):
            raise ValidationError(f"rank_rule must be a RankRule or None, got {self.rank_rule!r}")


@dataclass(frozen=True)
class TransferSpec:
    """Per-attribute mode: None keeps the selector the completion solves, an
    instantiation index replaces it with the trained selector for that
    instantiation (see `reconstruct_many`)."""

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


def build_span(bundle: ModelBundle, rule: RankRule | None) -> np.ndarray:
    """Orthonormal basis of the trained individual component, as wide as
    `rule` picks from the bundle's stored energy prefix (`span_width`, as
    `svd_span` takes it), cut from the bundle's SVD; the bundle is left as
    it was. No rule (None) is the zero-width span. An identically zero
    individual part has no span of any width, an explicit rank included;
    reconstruct such a model with rank_rule=None."""
    if rule is None:
        return np.zeros((bundle.dim, 0))
    u, s, _ = bundle.individual_svd
    if s[0] == 0.0:  # the spectral norm of G
        raise DegenerateMatrixError(
            "the trained individual component is identically zero; "
            "reconstruct without it (rank_rule=None, --no-individual)"
        )
    return u[:, :span_width(rule, bundle.individual_energy, s.size)].copy()


def synthesize(
    bundle: ModelBundle,
    spec: TransferSpec,
    selectors: list[np.ndarray],
    coeffs: np.ndarray,
    rule: RankRule | None,
) -> np.ndarray:
    """sum_i F_i h_i + K w, where h_i is the trained selector of the
    instantiation `spec` pins attribute i to, or else selectors[i], and K is
    build_span(bundle, rule), needed only when there are coefficients w."""
    return _render(bundle, spec, selectors, coeffs,
                   build_span(bundle, rule) if coeffs.size else None)


def _render(
    bundle: ModelBundle,
    spec: TransferSpec,
    selectors: list[np.ndarray],
    coeffs: np.ndarray,
    span: np.ndarray | None,
) -> np.ndarray:
    """`synthesize`'s sum with the span K given, or None when there are no
    coefficients w."""
    out = np.zeros(bundle.dim)
    for i, mode in enumerate(spec.pinned):
        sel = bundle.bank.selectors[i][:, mode] if mode is not None else selectors[i]
        out += bundle.bases[i] @ sel
    if coeffs.size:
        out += span @ coeffs
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
    spec = _check_spec(spec, bundle.schema)
    return _solve(y, w_y, observed, norms, bundle, spec, config, observer)[0]


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
    the working set. At the first step the sweeps start with a decode: a
    column whose visible entries the design fits apart from the rows of a
    few gross errors (cut at the largest gap of the residual, refitted on
    the kept rows alone, and cut again, up to `decode.DECODE_ROUNDS` cuts,
    while the refit fails only on its misfit), and whose refit a dual
    certificate proves to be within eps * ||w .* y||_1 of every
    least-absolute-deviations optimum, takes that refit, and stops
    converged after the step with a residual of 0 (see `decode.decode` for
    the bound, and for when a column is not certified). The refit need not
    fit its kept rows exactly, so columns certify through trained models
    too. Every other column runs on as it would without the decode, with
    the same iterations: bitwise alone, and to rounding (1e-12 in the
    tests) in a block, whose working set rounds differently once certified
    ones retire. `observer` and the histories see one entry per penalty
    step, after its closing E step; the observer gets the `ReconState` of
    the working set. The columns are solved in slices of at most
    BLOCK_WIDTH, split evenly, one after another: the observer sees each
    slice's working set in turn, t starting at 0 for each.

    Every column is solved this way with every selector free: that is its
    completion, whatever `spec` pins. A transfer re-renders the completion
    as the column leaves the working set, and solves nothing more: each
    attribute `spec` pins takes a copy of its trained selector, so it comes
    back bitwise identical; the reconstruction is `synthesize`'s sum under
    the pins, bitwise; and the sparse error keeps the completion's visible
    entries and absorbs y minus the new reconstruction on hidden ones. The
    free selectors, span coefficients and diagnostics are the completion's.

    Hidden entries of `Y` enter no step: the solve runs on W.*Y, so the
    selectors, coefficients, reconstruction and diagnostics are those of
    the masked input. Only the returned sparse error reads them: its hidden
    entries add them back, so that there it absorbs y minus the synthesis.
    A column with no visible signal (W.*y = 0) takes no step: it leaves
    the working set as a stopped column does, but before the first step,
    with zero selectors and coefficients, so that its reconstruction is
    the pinned synthesis, and TrainDiagnostics.zero_input(lam) as its
    record.

    Non-convergence is flagged in diagnostics, not raised. The whole input
    and the spec are checked before any slice is solved, if there is none
    too: input that breaks `dataset.check_observed` raises ValidationError
    naming the first offending column c as `name(c)`, a spec that does not
    fit the schema ValidationError, and a column whose observed norm
    overflows float64 raises NumericalError.
    """
    dim = bundle.dim
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != dim:
        raise ValidationError(f"input block has shape {Y.shape}, expected ({dim}, count)")
    Y, W = check_observed(Y, W, name, "input vector", "input mask")
    observed = Y * W
    norms = checked_norms(observed.T, "reconstruction", lambda c: f"the observed norm of {name(c)}")
    spec = _check_spec(spec, bundle.schema)
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


def _solve(
    Y: np.ndarray,
    W: np.ndarray,
    observed: np.ndarray,
    norms: list[float],
    bundle: ModelBundle,
    spec: TransferSpec,
    config: ReconConfig,
    observer: ReconObserver | None,
) -> list[ReconResult]:
    """The results of a slice of `reconstruct_many` on checked input, in
    column order: Y, W and `observed` = Y * W are (dim, B), or (dim,) for
    one vector, with their B observed `norms`. Every column is solved free,
    as its completion; `retire` builds its one ReconResult as it stops, the
    completion re-rendered under the pins of `spec` if it pins any, by
    `synthesize`'s sum on the span the slice already holds.

    One vector runs the same steps without the column axis: its state holds
    1-D arrays and a scalar mu, which its observer sees, and its per-column
    bookkeeping costs no numpy calls on length-1 arrays. That path pays for
    itself: as a 1-column block, calls that certify at the first step take
    1.7-2.2% longer (200 free recon-holdout calls of seed 4242) and
    penalty-loop solves 23-26% (the free solves of 30 stock holdouts, 50%
    hidden, 30% spikes, amplitude 5); paired per-call medians over three
    runs, min of 5, one BLAS thread, 2-core VM, with the same
    reconstructions and iterations either way."""
    dim = bundle.dim
    span = build_span(bundle, config.rank_rule)
    bases = bundle.bases
    lam = config.effective_lam(dim, 1)
    pinned = any(mode is not None for mode in spec.pinned)
    results: list[ReconResult | None] = [None] * len(norms)
    zero = [c for c, norm in enumerate(norms) if norm == 0.0]
    # A zero-signal column retires before the first step: no step reads its
    # norm, and 1 keeps its mu0 finite.
    norm = (norms[0] or 1.0) if Y.ndim == 1 else np.array([norm or 1.0 for norm in norms])
    tail = Y.shape[1:]  # () for one vector, (B,) for a block
    visible = W != 0.0

    # The primal blocks of a sweep are x, the selectors and the span
    # coefficients taken together, then the sparse error e. Hidden entries of
    # e carry no penalty and absorb whatever x leaves there, so the x step is
    # each column's least-squares fit on its visible rows,
    # (D_v^T D_v)^-1 D_v^T r_v, with D the stacked design [F_1 .. F_n, K] (K
    # zero columns wide without the span) and k its width.
    # `decode.normal_maps` gives each column's k x k normal map
    # (D_v^T D_v)^-1, and each column takes map D^T (w .* r): the block takes
    # one product with D^T and a stacked k x k one, so hidden rows of r enter
    # no x step. A column whose Gram the maps do not trust (see
    # `decode.NORMAL_RATIO`) has the map P P^T, P = pinv(D_v), and is not
    # decoded.
    blocks = [*bases, span]
    design = np.concatenate(blocks, axis=1)
    ends = list(itertools.accumulate((block.shape[1] for block in blocks), initial=0))
    pieces = [slice(a, b) for a, b in zip(ends, ends[1:])]
    maps, trusted = decode.normal_maps(design, visible.reshape(dim, -1))
    cols = {
        "visible": visible, "observed": observed, "norm": norm,
        "x": np.zeros((design.shape[1],) + tail),
        "input": np.arange(len(norms)),  # each working column's index in the input
        "maps": maps if tail else maps[0], "trusted": trusted,
    }
    state = ReconState(
        config=config,
        selectors=[np.zeros((bundle.schema.size(i),) + tail)
                   for i in range(bundle.schema.count)],
        indiv_coeffs=np.zeros((span.shape[1],) + tail),
        sparse_error=np.zeros(Y.shape),
        dual=np.zeros(Y.shape),
        mu=config.capped(config.mu0_scale / norm),
        lam=lam,
    )
    # The last closing step's sum F_k h_k and K w. They and e start at the
    # result of a column that takes no step: zero, with e absorbing y on
    # hidden entries. A column that steps never reads those entries: the x
    # step skips hidden rows, and the closing E step overwrites e.
    shared, indiv = np.zeros(Y.shape), np.zeros(Y.shape)
    first = True

    def step() -> tuple[np.ndarray, np.ndarray | float, np.ndarray | float]:
        nonlocal shared, indiv, first
        x, tol_sq = cols["x"], (INNER_TOL * cols["norm"]) ** 2
        scaled_dual = state.dual / state.mu
        bound = lam / state.mu
        target = cols["observed"] + scaled_dual
        err = state.sparse_error
        moving = True
        some_frozen = False
        for sweep in range(INNER_SWEEPS):
            rhs = design.T @ (cols["visible"] * (target - err))
            new = (np.matmul(cols["maps"], rhs.T[:, :, None])[:, :, 0].T if tail
                   else cols["maps"] @ rhs)
            delta = new - x
            x = np.where(moving, new, x) if some_frozen else new
            # Blocks have orthonormal columns: a column of delta^2 sums the
            # squared distances the sweep moved each block's synthesis.
            moving &= _sq_norms(delta) > tol_sq
            if first and not sweep:
                # The first step's x is the least-squares fit (e = 0 on
                # visible rows, and the dual is zero): decode from it. A
                # certified column is frozen at its refit.
                x, certified = decode.decode(design, cols["trusted"], cols["visible"], target,
                                             x, cols["norm"], config.eps)
                moving &= ~certified
            still = np.count_nonzero(moving) if moving.ndim else bool(moving)
            if sweep == INNER_SWEEPS - 1 or not still:
                break
            some_frozen = still < moving.size
            err = soft_threshold(target - design @ x, bound)
        cols["x"] = x
        state.selectors = [x[piece] for piece in pieces[:-1]]
        state.indiv_coeffs = x[pieces[-1]]
        # The closing E step, on every entry from freshly summed components,
        # so that hidden entries of e equal the residual bitwise.
        shared = np.zeros(state.sparse_error.shape)
        for basis, sel in zip(bases, state.selectors):
            shared += basis @ sel
        indiv = span @ state.indiv_coeffs
        unexplained = cols["observed"] - shared - indiv
        augmented = unexplained + scaled_dual
        sparse = cols["visible"]
        if first:
            # A certified column's e takes its residual on every entry (the
            # dual is zero), so its residual is exactly 0. When every column
            # certifies, no entry is penalised: e is the residual itself.
            sparse = None if certified.all() else sparse & ~certified
            first = False
        state.sparse_error = (augmented if sparse is None
                              else np.where(sparse, soft_threshold(augmented, bound), augmented))
        res = np.sqrt(_sq_norms(unexplained - state.sparse_error)) / cols["norm"]
        return unexplained, res, res

    def retire(stopped: list[int], diags: list[TrainDiagnostics]) -> None:
        for c, diag in zip(stopped, diags):
            k = cols["input"][c]
            y, e, seen = _column(Y, k), _column(state.sparse_error, c), _column(cols["visible"], c)
            selectors = [_column(sel, c).copy() if mode is None
                         else bundle.bank.selectors[i][:, mode].copy()
                         for i, (mode, sel) in enumerate(zip(spec.pinned, state.selectors))]
            coeffs = _column(state.indiv_coeffs, c).copy()
            if pinned:
                out = _render(bundle, spec, selectors, coeffs, span)
                e = np.where(seen, e, y - out)
            else:
                out = _column(shared, c) + _column(indiv, c)
                e = np.where(seen, e, e + y)
            results[k] = ReconResult(selectors=selectors, indiv_coeffs=coeffs, sparse_error=e,
                                     reconstruction=out, diagnostics=diag)
        if len(stopped) == np.size(state.mu):
            return
        # The state's selectors and span coefficients are not narrowed: the
        # next step cuts them from the narrowed x before anything reads them.
        keep = np.ones(state.mu.size, dtype=bool)
        keep[stopped] = False
        for key, value in cols.items():
            cols[key] = value[:, keep] if value.ndim == 2 else value[keep]
        state.sparse_error = state.sparse_error[:, keep]
        state.dual = state.dual[:, keep]
        state.mu = state.mu[keep]

    if zero:
        retire(zero, [TrainDiagnostics.zero_input(lam) for _ in zero])
    if len(zero) < len(norms):
        run_penalty_steps(state, step, observer, "reconstruction", retire)
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
) -> np.ndarray:
    """Re-render `y` with the target attributes pinned to trained
    instantiations: the vector is completed with every selector free, and
    the pinned selectors are substituted into the synthesis
    (`reconstruct_many` says how), so the result is as accurate as the
    completion. Pinned to the vector's own labels, it is the completion
    with the trained selectors in place of the solved ones.
    """
    spec = TransferSpec.targets(bundle.schema, targets)
    return reconstruct(y, w_y, bundle, spec, config).reconstruction
