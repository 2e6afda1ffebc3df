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
A lone vector, as its steps do, decodes without a column axis (see
`_solve`), so a certified `reconstruct` call pays for the cuts and for no
block bookkeeping.
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
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import decode
from .dataset import AttributeSchema, check_input, check_observed
from .errors import DegenerateMatrixError, ValidationError, check_integer
from .proxops import RankRule, soft_threshold
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
    """Orthonormal basis of the trained individual component: a copy of the
    leading left-singular vectors of the bundle's SVD, as many as `rule`
    keeps; the bundle is left as it was. An explicit rule keeps that many,
    at most min(rows, cols); an energy rule the smallest count whose prefix
    of the stored `individual_energy` reaches that fraction of the whole, so
    energy 1.0 keeps the numerical rank. No rule (None) is the zero-width
    span, and anything but a RankRule or None raises ValidationError. An
    identically zero individual part has no span of any width, an explicit
    rank included; reconstruct such a model with rank_rule=None."""
    return _leading_span(bundle, rule).copy()


def _leading_span(bundle: ModelBundle, rule: RankRule | None) -> np.ndarray:
    """`build_span` as a view of the bundle's left-singular vectors, for a
    caller that copies it anyway."""
    u, s, _ = bundle.individual_svd
    if rule is None:
        return u[:, :0]
    if s[0] == 0.0:  # the spectral norm of G
        raise DegenerateMatrixError(
            "the trained individual component is identically zero; "
            "reconstruct without it (rank_rule=None, --no-individual)"
        )
    if not isinstance(rule, RankRule):
        raise ValidationError(f"rule must be a RankRule, got {type(rule).__name__}")
    if rule.explicit is not None:
        if rule.explicit > s.size:
            raise ValidationError(
                f"explicit rank {rule.explicit} exceeds min(rows, cols) = {s.size}")
        width = rule.explicit
    else:
        energies = bundle.individual_energy
        width = int(np.searchsorted(energies, rule.energy * energies[-1], side="left")) + 1
    return u[:, :width]


def synthesize(
    bundle: ModelBundle,
    spec: TransferSpec,
    selectors: list[np.ndarray],
    coeffs: np.ndarray,
    span: np.ndarray,
) -> np.ndarray:
    """sum_i F_i h_i + K w, where h_i is the trained selector of the
    instantiation `spec` pins attribute i to, or else selectors[i], and K is
    `span`, the span the coefficients w were solved on (`build_span`)."""
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
    norms = checked_norms(observed[None], "reconstruction",
                          lambda _: "the observed norm of the input vector")
    spec = _check_spec(spec, bundle.schema)
    return _solve(y, w_y, observed, norms, bundle, spec, config, observer,
                  _design(bundle, spec, config, block=False))[0]


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
    slice's working set in turn, t starting at 0 for each. One column alone
    (a one-file `marc complete`) is solved as `reconstruct` solves it,
    bitwise, and its observer sees 1-D iterates and a float mu.

    Every column is solved this way with every selector free: that is its
    completion, whatever `spec` pins. A transfer re-renders the completion
    as the column leaves the working set, and solves nothing more: each
    attribute `spec` pins takes a copy of its trained selector, so it comes
    back bitwise identical; the reconstruction is `synthesize` of the
    completion's selectors and span coefficients under the pins, on the
    span they were solved on; and the sparse error keeps the completion's
    visible entries and absorbs y minus the new reconstruction on hidden
    ones. The free selectors, span coefficients and diagnostics are the
    completion's. No two results share memory.

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
    if not count:
        return []
    slices = np.array_split(np.arange(count), math.ceil(count / BLOCK_WIDTH))
    design = _design(bundle, spec, config, block=count > 1)
    results = []
    for block in slices:
        # a view of the slice's columns; one column takes `reconstruct`'s path
        cols = block[0] if block.size == 1 else slice(block[0], block[-1] + 1)
        results += _solve(Y[:, cols], W[:, cols], observed[:, cols], [norms[c] for c in block],
                          bundle, spec, config, observer, design)
    return results


def _sq_norms(a: np.ndarray) -> np.ndarray | float:
    """The squared norm of each column of `a`, or of `a` itself when it
    holds one vector, by a fixed-order sum: no BLAS thread count moves it."""
    return np.add.reduce(a * a)


class _Design(NamedTuple):
    """What every slice of one call solves with: the span K (`build_span`'s,
    as a view of the design), the stacked design [F_1 .. F_n, K], each
    block's columns of it, and for a call that solves blocks, the design's
    `decode.gram_table` and, for each attribute the spec pins, its F_i h_i
    as `synthesize` forms it (None for a free one, and for every one in a
    call of one vector)."""

    span: np.ndarray
    matrix: np.ndarray
    pieces: list[slice]
    table: tuple[np.ndarray, np.ndarray] | None
    rendered: list[np.ndarray | None]


def _design(bundle: ModelBundle, spec: TransferSpec, config: ReconConfig,
            block: bool) -> _Design:
    """The `_Design` of one call; `block` says whether any slice of it holds
    more than one column (a lone vector reads no table and no renders)."""
    blocks = [*bundle.bases, _leading_span(bundle, config.rank_rule)]
    ends = list(itertools.accumulate((b.shape[1] for b in blocks), initial=0))
    pieces = [slice(a, b) for a, b in zip(ends, ends[1:])]
    matrix = np.concatenate(blocks, axis=1)
    rendered = [None if mode is None or not block
                else bundle.bases[i] @ bundle.bank.selectors[i][:, mode]
                for i, mode in enumerate(spec.pinned)]
    return _Design(matrix[:, pieces[-1]], matrix, pieces,
                   decode.gram_table(matrix) if block else None, rendered)


def _solve(
    Y: np.ndarray,
    W: np.ndarray,
    observed: np.ndarray,
    norms: list[float],
    bundle: ModelBundle,
    spec: TransferSpec,
    config: ReconConfig,
    observer: ReconObserver | None,
    design: _Design,
) -> list[ReconResult]:
    """The results of a slice of `reconstruct_many` on checked input, in
    column order: Y, W and `observed` = Y * W are (dim, B) views of the
    call's columns, or (dim,) for one vector, with their B observed
    `norms`; `design` is what every slice of the call shares (`_Design`).
    Every column is solved free, as its completion; `retire` builds its one
    ReconResult as it stops, the completion re-rendered under the pins of
    `spec` if it pins any, as `synthesize` on the call's span forms it.

    A block pays once per call for its design, its Gram table and its
    pinned renders, gathers nothing to form its slices, and builds the
    results of the columns that stop together from per-slice arrays.

    One vector runs the same steps without the column axis: its state holds
    1-D arrays and a scalar mu, which its observer sees, and its per-column
    bookkeeping costs no numpy calls on length-1 arrays. Its normal map and
    its decode keep that layout: `decode.normal_maps` of its (dim,) mask
    gives one k x k map and a numpy bool, and `decode.decode` of its 1-D
    arrays runs the one-vector decode, bitwise the one-column block's.

    The first step forms none of the terms its zero dual would add, and its
    first sweep fits `observed`, which is zero off the visible rows, as it
    stands. When every column of the working set certifies, e is the
    residual on every entry, and the step returns the exact 0 without
    forming it. Both layouts keep these forms because a call that
    certifies is most calls (timings in CHANGES.md)."""
    dim = bundle.dim
    span, matrix, pieces, table = design.span, design.matrix, design.pieces, design.table
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
    maps, trusted = decode.normal_maps(matrix, visible, table=table)
    x = np.zeros((matrix.shape[1],) + tail)
    cols = {
        "visible": visible, "observed": observed, "norm": norm, "x": x,
        "input": np.arange(len(norms)),  # each working column's index in the input
        "maps": maps, "trusted": trusted,
    }
    state = ReconState(
        config=config,
        selectors=[x[piece] for piece in pieces[:-1]],
        indiv_coeffs=x[pieces[-1]],
        sparse_error=np.zeros(Y.shape),
        dual=np.zeros(Y.shape),
        mu=config.capped(config.mu0_scale / norm),
        lam=lam,
    )
    # The last closing step's sum F_k h_k and K w, which `retire` reads. A
    # column that takes no step retires with them at zero, and with e
    # absorbing y on hidden entries.
    shared = indiv = np.zeros(Y.shape) if zero else None
    first = True

    def step() -> tuple[np.ndarray, np.ndarray | float, np.ndarray | float]:
        nonlocal shared, indiv, first
        x, tol_sq = cols["x"], (INNER_TOL * cols["norm"]) ** 2
        bound = lam / state.mu
        # The first step's dual is zero: its target is the observed data.
        scaled_dual = None if first else state.dual / state.mu
        target = cols["observed"] if first else cols["observed"] + scaled_dual
        err = state.sparse_error
        moving = True
        some_frozen = False
        for sweep in range(INNER_SWEEPS):
            start = first and not sweep
            # The first sweep starts from e = 0 and fits the target, which is
            # zero off the visible rows.
            rhs = matrix.T @ (target if start else cols["visible"] * (target - err))
            new = (np.matmul(cols["maps"], rhs.T[:, :, None])[:, :, 0].T if tail
                   else cols["maps"] @ rhs)
            # Blocks have orthonormal columns: a column of (new - x)^2 sums
            # the squared distances the sweep moved each block's synthesis.
            if start:
                # The least-squares fit: decode from it. A certified column is
                # frozen at its refit; x started at 0, so every other one
                # moved by `new`.
                x, certified = decode.decode(matrix, cols["trusted"], cols["visible"], target,
                                             new, cols["norm"], config.eps, table=table)
                settled = certified.all() if tail else bool(certified)
                moving = ~certified
                if not settled:
                    moving &= _sq_norms(new) > tol_sq
            else:
                delta = new - x
                x = np.where(moving, new, x) if some_frozen else new
                moving &= _sq_norms(delta) > tol_sq
            still = np.count_nonzero(moving) if moving.ndim else bool(moving)
            if sweep == INNER_SWEEPS - 1 or not still:
                break
            some_frozen = still < moving.size
            err = soft_threshold(target - matrix @ x, bound)
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
        if first:
            first = False
            # A certified column's e takes its residual on every entry, so
            # its residual is exactly 0. When every column certified, e is
            # the residual itself, and the zeros need no sum.
            if settled:
                state.sparse_error = unexplained
                done = np.zeros(certified.shape) if tail else 0.0
                return unexplained, done, done
            augmented, sparse = unexplained, cols["visible"] & ~certified
        else:
            augmented, sparse = unexplained + scaled_dual, cols["visible"]
        state.sparse_error = np.where(sparse, soft_threshold(augmented, bound), augmented)
        res = np.sqrt(_sq_norms(unexplained - state.sparse_error)) / cols["norm"]
        return unexplained, res, res

    def retire(stopped: list[int], diags: list[TrainDiagnostics]) -> None:
        """Save the results of the working set's columns `stopped`, with
        their records `diags`, and drop them from the state unless every
        column stopped. One vector's result is built from its own arrays.
        A block's come from per-slice arrays, one row per stopped column:
        x's rows (its selectors, the trained ones where `spec` pins, and
        its span coefficients), and the reconstructions, the closing step's
        shared plus individual parts, or under pins `synthesize`'s sum in
        its order, each pinned F_i h_i formed once per call; one `np.where`
        over the rows gives every sparse error."""
        if not tail:
            e, seen = state.sparse_error, cols["visible"]
            selectors = [sel.copy() if mode is None
                         else bundle.bank.selectors[i][:, mode].copy()
                         for i, (mode, sel) in enumerate(zip(spec.pinned, state.selectors))]
            coeffs = state.indiv_coeffs.copy()
            if pinned:
                out = synthesize(bundle, spec, selectors, coeffs, span)
                e = np.where(seen, e, Y - out)
            else:
                out = shared + indiv
                e = np.where(seen, e, e + Y)
            results[0] = ReconResult(selectors=selectors, indiv_coeffs=coeffs, sparse_error=e,
                                     reconstruction=out, diagnostics=diags[0])
            return
        inputs = cols["input"][stopped]
        x = cols["x"].T[stopped]
        for i, mode in enumerate(spec.pinned):
            if mode is not None:
                x[:, pieces[i]] = bundle.bank.selectors[i][:, mode]
        y, e, seen = Y.T[inputs], state.sparse_error.T[stopped], cols["visible"].T[stopped]
        if pinned:
            # `synthesize` of each row, bitwise: its sum in its order, each
            # free F_i h_i and K w by one matrix-vector product per row (a
            # stacked matmul; one matrix-matrix product rounds differently).
            out = np.zeros(y.shape)
            for i, rendered in enumerate(design.rendered):
                out += (np.matmul(bases[i], x[:, pieces[i], None])[:, :, 0]
                        if rendered is None else rendered)
            if span.shape[1]:
                out += np.matmul(span, x[:, pieces[-1], None])[:, :, 0]
            e = np.where(seen, e, y - out)
        else:
            out = shared.T[stopped] + indiv.T[stopped]
            e = np.where(seen, e, e + y)
        for j, (k, diag) in enumerate(zip(inputs, diags)):
            row = x[j]
            results[k] = ReconResult(selectors=[row[piece] for piece in pieces[:-1]],
                                     indiv_coeffs=row[pieces[-1]], sparse_error=e[j],
                                     reconstruction=out[j], diagnostics=diag)
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
