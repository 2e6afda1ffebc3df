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
a block come from its Grams G = D_v^T D_v, formed by one product, tested by
one stacked Cholesky factorization and inverted by one stacked
`np.linalg.inv`. The normal equations square the condition number, so a
Gram is trusted only when its smallest eigenvalue is above NORMAL_RATIO
times its trace; any other column (a rank-deficient or ill-conditioned
visible design, or one with fewer than k rows) takes its factor from
`np.linalg.pinv(D_v)` instead.

With the free selectors and the span unpenalised, a vector's optimum is the
least-absolute-deviations fit of its visible entries by the design; lam only
shapes the path to it. That fit is often exact or nearly so, the gross
errors being the rows it misses (Candes & Tao, Decoding by linear
programming, 2005). So the first penalty step, right after its first
least-squares fit, decodes each vector (`_decode`), in two stages. The gap
cuts: it cuts the rows above the largest absolute gap of the residual,
refits on the kept rows alone through their own normal map, trusted by the
same NORMAL_RATIO rule as the x step's, and certifies the refit by a dual
certificate whose duality gap bounds its distance to every LAD optimum by
eps * ||w .* target||_1, eps being the schedule's stop threshold. The refit
need not fit the kept rows exactly, so vectors certify through trained
models too. A vector whose refit fails on that bound alone cuts again, up to
DECODE_ROUNDS cuts. The vertex: a transfer the cuts leave (the pin leaves a
dense residual, which no gap separates) is taken to an exact LAD solution,
a vertex where the design fits k visible rows exactly, by reweighted least
squares and a basis exchange, and certified by the same certificate.
Completions skip it: where the cuts fail on a completion, LAD is often past
its breakdown (50% hidden, 30% gross errors), and there its exact optimum
was further from the clean vector than the ALM's result. A certified vector
keeps its refit, its e takes the residual on every entry, and it stops
`converged` after that step with a residual of 0. Any other vector runs the
steps as it would without the decode, bitwise.

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
from .proxops import RankRule, largest_gap, soft_threshold, svd_span
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
# eps * cond(D_v)^2 = eps * lambda_max / lambda_min. A Gram G is trusted
# when every eigenvalue is above NORMAL_RATIO * tr(G), which a Cholesky
# factorization of G - NORMAL_RATIO * tr(G) * I tests; as tr(G) >= lambda_max,
# that error is then below ~2e-13 (cond(D_v) < 32), and as
# tr(G) <= k * lambda_max, every Gram with cond(D_v) below
# 1 / sqrt(k * NORMAL_RATIO) (9.1 at k = 12) is trusted. On the benchmark's
# held-out masks (seeds 1 and 11) the stock and cli-pipeline designs have
# cond(D_v) <= 6.7.
NORMAL_RATIO = 1e-3

# The decode at the first penalty step certifies a column only when its
# certificate g has ||g||_inf <= 1 - CERT_MARGIN: the margin keeps a
# certificate that only rounding puts below 1 from counting. A column that
# fails on its misfit alone cuts again, up to DECODE_ROUNDS cuts in all. Two
# suffice through cli-pipeline's trained stock bundle (200 held-out
# completions of seed 1 certify by the second cut) and through the planted
# model with one basis row moved. More cuts certify more where gross errors
# are dense: over 13 cells of 20 stock holdouts (the decoder grid's hidden
# fractions, spike densities and amplitudes), free completions certify
# 173 / 177 / 179 of 260 at 2 / 3 / 5 cuts through the planted model and
# 161 / 171 / 173 through the one-row-off one (before the rounding-level
# sign rule of `_signs`, which brings the planted count at 2 cuts to 174),
# while the cuts certify 58 of the trained bundle's 200 transfers at each,
# and a failing column pays every cut (a third cut: 94.8 -> 99.0 ms for
# those transfers, min of 4, one BLAS thread, 2-core VM).
CERT_MARGIN = 1e-9
DECODE_ROUNDS = 2

# The vertex stage of a transfer's decode starts its basis exchange after
# IRLS_STEPS reweighted least-squares steps, and gives a column up when it
# still needs a pivot after PIVOTS. Measured on the transfers to attr2=b3 the
# gap cuts leave (144 of recon-holdout's 200 of seed 4242, one at a time; 161
# of cli-pipeline's 200 of seed 271828 through its trained bundle, as
# blocks): from the least-squares fit alone the exchange takes a median of
# 20 and 21 pivots (max 32 and 39), after 8 steps 4 and 4 (max 11 and 13).
# From 6 to 12 steps the stage costs about the same (a step costs a third
# of a pivot or less); 4 steps or 16 cost more (one BLAS thread, 2-core VM).
IRLS_STEPS = 8
PIVOTS = 40

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
    the working set. At the first step the sweeps start with a decode: a
    column whose visible entries the design fits apart from the rows of a
    few gross errors (cut at the largest gap of the residual, refitted on
    the kept rows alone, and cut again, up to DECODE_ROUNDS cuts, while the
    refit fails only on its misfit), and whose refit a dual certificate
    proves to be within eps * ||w .* target||_1 of every
    least-absolute-deviations optimum, takes that refit, and stops
    converged after the step with a residual of 0. The refit need not fit
    its kept rows exactly, so columns certify through trained models too.
    When `spec` pins an attribute, a column the cuts leave goes on to an
    exact LAD solution, the fit of the k visible rows a basis exchange ends
    on, which takes the same certificate and, certified, ends the same way;
    its selectors and coefficients depend on that basis alone, so they are
    the same bitwise in a block and alone and at any schedule (see
    `_decode` for the bound, and for when a column is not certified).
    Every other column runs on, bitwise as it would without the decode.
    `observer` and the histories see one entry per penalty step, after its
    closing E step; the observer gets the `ReconState` of the working set.
    The columns are solved in slices of at most BLOCK_WIDTH, split evenly,
    one after another: the observer sees each slice's working set in turn,
    t starting at 0 for each.

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
    D^T diag(w) D). A Gram G is trusted when its smallest eigenvalue is
    above NORMAL_RATIO * tr(G) (a zero-width Gram is, vacuously), which a
    column that sees fewer than k rows, or a rank-deficient D_v, never
    passes. A block tests its Grams by `_positive_definite` of
    G - NORMAL_RATIO * tr(G) * I and takes the trusted maps by one stacked
    `np.linalg.inv`; a lone Gram is factored by `eigh`, whose eigenvalues
    give the same test, and its map is V diag(1/lambda) V^T. Any other
    column's map is P P^T, as `np.linalg.pinv` gives it."""
    dim, k = design.shape
    # For one column the outer products cost more than they save: built
    # anyway, they add ~5% to a one-vector solve (paired per-call median over
    # 200 stock holdouts, free and pinned in turn, one BLAS thread, 2-core VM).
    if visible.shape[1] == 1:
        grams = ((design.T * visible.T) @ design)[None]
        lam, vec = np.linalg.eigh(grams)
        trusted = np.all(lam > NORMAL_RATIO * lam.sum(axis=1, keepdims=True), axis=1)
        inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=trusted[:, None])
        maps = (vec * inverse[:, None, :]) @ vec.transpose(0, 2, 1)
    else:
        outer = (design[:, :, None] * design[:, None, :]).reshape(dim, k * k)
        grams = (visible.T.astype(np.float64) @ outer).reshape(visible.shape[1], k, k)
        unit = np.eye(k)
        trace = np.trace(grams, axis1=1, axis2=2)[:, None, None]
        trusted = _positive_definite(grams - NORMAL_RATIO * trace * unit)
        maps = np.linalg.inv(np.where(trusted[:, None, None], grams, unit))
    fallback = {int(c): np.linalg.pinv(design[visible[:, c]]) for c in np.flatnonzero(~trusted)}
    for c, factor in fallback.items():
        maps[c] = factor @ factor.T
    return maps, fallback


def _positive_definite(a: np.ndarray) -> np.ndarray:
    """Which of the stacked symmetric matrices `a` are positive definite:
    those `np.linalg.cholesky` factors, tried as `_per_matrix` tries them."""
    return _per_matrix(np.linalg.cholesky, a)[1]


def _decode(design: np.ndarray, trusted: np.ndarray, visible: np.ndarray, target: np.ndarray,
            x: np.ndarray, norm: float | np.ndarray, eps: float,
            pinned: bool) -> tuple[np.ndarray, np.ndarray]:
    """Certified decoding of the least-absolute-deviations fit
    min_x ||t_v - D_v x||_1 (t = `target`) from its least-squares fit `x`,
    for one vector (1-D arrays, a float norm) or a block (one column each),
    in two stages: gap cuts for every column, then, when the spec pins an
    attribute (`pinned`), an exact vertex for the columns the cuts leave.

    S, the rows of a column's visible residual r = t - D x above the largest
    absolute gap of |r| (`largest_gap`), are cut, and x is refitted on the
    kept rows K alone: x_K = M_K D^T (K .* t), M_K = (D_K^T D_K)^-1 being
    the normal map `_normal_maps` gives for K. With r = t - D x_K,
    g = -D_K M_K D_S^T sign(r_S) makes u = (g on K, sign(r_S) on S) a dual
    certificate: D_v^T u = 0, and when ||g||_inf < 1 every LAD optimum x*
    satisfies ||D_K (x* - x_K)||_1 <= 2 ||r_K||_1 / (1 - ||g||_inf) (the
    duality gap; for r_K = 0, x_K is the one optimum: Candes & Tao, Decoding
    by linear programming, IEEE Trans. Inf. Theory 2005). A row of S that
    the refit fits to rounding (|r| <= 1e-13 * `norm`) takes u = 0 instead
    and counts with K in the misfit, so that no sign of a rounding error
    decides ||g||_inf. A column is certified when ||g||_inf <= 1 -
    CERT_MARGIN and that bound is at most `eps` * ||t_v||_1: its x_K is
    within the schedule's own tolerance of every optimum, whether or not the
    design fits K exactly.

    A column that fails on the bound alone cuts again, at the largest gap
    of |r_K| on K, and refits on what is kept by the same rule, up to
    DECODE_ROUNDS cuts in all: the rows where an inexact model is off, and
    gross errors the first fit smeared below the gap, leave K at a later cut.

    A column whose visible Gram is not `trusted` (one flag per column) is
    not decoded, and a refit whose kept rows' Gram fails the same
    NORMAL_RATIO rule (`_normal_maps` takes it by pinv; so it does when K
    holds fewer than k rows) is not certified.

    The vertex stage takes every trusted column still uncertified, when
    `pinned` and the design has a column: `_vertex` finds a basis B of k
    visible rows, and the column's x_B = D_B^-1 t_B, refitted by
    `np.linalg.solve`, takes the certificate above with K = B, where
    g = -D_B^-T D_S^T sign(r_S), and one check more: D_v^T u = 0 to
    1e-12 * ||u||_1 (it catches an ill-conditioned D_B). A column whose
    weighted Gram or first D_B is singular, that reaches PIVOTS, or whose
    certificate fails is not certified. Completions never enter the stage:
    where the cuts fail on a completion, LAD is often past its breakdown,
    its exact optimum further from the clean vector than the ALM's result.
    Returns x with each certified column replaced by its x_K or x_B, and
    which columns were certified (0-d for one vector)."""
    dim, k = design.shape
    count = np.size(norm)
    y, seen = target.reshape(dim, count), visible.reshape(dim, count)
    out = x.reshape(k, count).copy()
    certified = np.zeros(count, dtype=bool)
    # The columns still decoding: their K, their current fit's residual, their
    # norm and their bound eps * ||t_v||_1; after the first cut, residual,
    # bound and misfit are taken relative to the norm, so that no sum
    # overflows.
    scales = np.reshape(norm, count)
    budgets = eps * (np.abs(y) / scales * seen).sum(axis=0)
    live, kept, res, go = np.arange(count), seen, y - design @ out, trusted
    scale, budget = scales, budgets
    for cut_round in range(DECODE_ROUNDS):
        if not go.all():
            live, kept, res = live[go], kept[:, go], res[:, go]
            scale, budget = scale[go], budget[go]
        if not live.size:
            break
        mags = np.abs(res)
        # Rows off K take the column's smallest kept magnitude: they open no
        # gap, and no cut reaches them.
        mags = np.where(kept, mags, np.where(kept, mags, np.inf).min(axis=0))
        # The cut keeps the magnitudes up to the largest one below the gap;
        # ties cannot straddle it.
        edge = np.sort(mags, axis=0)[dim - 1 - largest_gap(mags), np.arange(live.size)]
        kept = kept & (mags <= edge)
        maps, untrusted = _normal_maps(design, kept)
        refit = np.matmul(maps, (design.T @ (kept * y[:, live])).T[:, :, None])[:, :, 0].T
        res = (y[:, live] - design @ refit) / scale
        signs, counted = _signs(res, seen[:, live], kept)
        # g up to its sign, which the bound does not read
        g = design @ np.matmul(maps, (design.T @ signs).T[:, :, None])[:, :, 0].T
        bound = (np.abs(g) * kept).max(axis=0)
        bound[list(untrusted)] = np.inf
        done = _passes(res, counted, bound, budget)
        out[:, live[done]] = refit[:, done]
        certified[live[done]] = True
        go = (bound <= 1.0 - CERT_MARGIN) & ~done
    stage = np.flatnonzero(np.reshape(trusted, count) & ~certified) if pinned and k else []
    if len(stage):
        # One vector runs the stage without the column axis.
        one = x.ndim == 1
        t, rows, start = (y[:, 0], seen[:, 0], x) if one else (
            np.ascontiguousarray(y[:, stage].T), np.ascontiguousarray(seen[:, stage].T),
            x[:, stage].T)
        basis, found = _vertex(design, rows, t, start)
        basis, found = basis.reshape(-1, k), np.reshape(found, -1)
        basic = (basis.T, np.arange(len(stage)))  # each column's entries on its basis
        d_b = design[basis]
        refit, solved = _per_matrix(np.linalg.solve, d_b, y[:, stage][basic].T[:, :, None])
        refit = refit[:, :, 0].T
        res = (y[:, stage] - design @ refit) / scales[stage]
        kept = np.zeros(res.shape, dtype=bool)
        kept[basic] = True
        signs, counted = _signs(res, seen[:, stage], kept)
        g, dual = _per_matrix(np.linalg.solve, d_b.transpose(0, 2, 1),
                              -(design.T @ signs).T[:, :, None])
        u = signs.copy()
        u[basic] = g[:, :, 0].T
        balanced = np.sqrt(_sq_norms(design.T @ u)) <= 1e-12 * np.abs(u).sum(axis=0)
        bound = np.where(found & solved & dual & balanced, np.abs(g).max(axis=(1, 2)), np.inf)
        done = _passes(res, counted, bound, budgets[stage])
        out[:, stage[done]] = refit[:, done]
        certified[stage[done]] = True
    return out.reshape(x.shape), certified.reshape(np.shape(norm))


def _signs(res: np.ndarray, seen: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dual certificate's u off K, for residuals `res` relative to the
    norm: sign(r) on each visible row off K, except on a row whose residual
    is at rounding level (|res| <= 1e-13), which takes u = 0 and counts in
    the misfit with K, so that no sign of a rounding error decides
    ||g||_inf. Returns u off K (0 on K and on hidden rows) and the rows the
    misfit sums."""
    cut = seen & ~kept & (np.abs(res) > 1e-13)
    return cut * np.sign(res), seen & ~cut


def _passes(res: np.ndarray, counted: np.ndarray, bound: np.ndarray,
            budget: np.ndarray) -> np.ndarray:
    """Which columns the duality gap certifies: ||g||_inf (`bound`) <= 1 -
    CERT_MARGIN and 2 * misfit <= budget * (1 - ||g||_inf), the misfit
    summing |res| on the `counted` rows. Every LAD optimum x* then has
    ||D_K (x* - x_K)||_1 within budget, the rows u = 0 (K and rounding-level
    ones) taken as K."""
    misfit = (np.abs(res) * counted).sum(axis=0)
    return (bound <= 1.0 - CERT_MARGIN) & (2.0 * misfit <= budget * (1.0 - bound))


def _per_matrix(solver: Callable[..., np.ndarray], a: np.ndarray,
                *rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`solver(a, *rest)` (`np.linalg.solve`, `inv` or `cholesky`) on the
    stacked matrices `a`, and which of them it solved. A stacked call fails
    for the whole stack on one matrix, so after a failure each is solved
    alone; one that fails comes back as zeros, flagged False."""
    try:
        return solver(a, *rest), np.ones(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return np.zeros(rest[0].shape if rest else a.shape), np.zeros((), dtype=bool)
        parts = [_per_matrix(solver, m, *(b[n] for b in rest)) for n, m in enumerate(a)]
        return np.array([p[0] for p in parts]), np.array([p[1] for p in parts])


def _vertex(design: np.ndarray, seen: np.ndarray, t: np.ndarray,
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A basis of the least-absolute-deviations fit min_x ||t_v - D_v x||_1:
    k visible rows B whose exact fit x_B = D_B^-1 t_B has a dual
    g = -D_B^-T D_N^T sign(r_N) with ||g||_inf <= 1, N being the other
    visible rows. Rows are the last axis of `seen`, `t` and the
    least-squares fit `x`; a block puts its columns first, one vector has no
    column axis.

    IRLS_STEPS reweighted least-squares steps (Schlossmacher, JASA 1973)
    start from `x`, with weights 1 / max(|r|, delta) on the visible rows and
    delta shrinking by 0.3 a step from the mean visible |r|; the k visible
    rows where the last step fits best are the first basis, from which
    `_exchange` pivots. Returns the basis, (..., k) row indices, and whether
    it was found: not for a column whose weighted Gram or first D_B is
    singular, nor for one `_exchange` gives up."""
    dim, k = design.shape
    lead = t.shape[:-1]
    # A block forms its weighted Grams from the row-wise outer products of
    # the design, one vector by two products, as `_normal_maps` does.
    outer = (design[:, :, None] * design[:, None, :]).reshape(dim, k * k) if lead else None
    mags = np.abs(t - x @ design.T) * seen
    delta = mags.sum(axis=-1) / np.count_nonzero(seen, axis=-1)
    ok = np.ones(lead, dtype=bool)
    for _ in range(IRLS_STEPS):
        w = seen / np.maximum(mags, delta[..., None])
        gram = (w @ outer).reshape(lead + (k, k)) if lead else (design.T * w) @ design
        x, solved = _per_matrix(np.linalg.solve, gram, ((w * t) @ design)[..., None])
        ok &= solved
        mags = np.abs(t - x[..., 0] @ design.T)
        delta = 0.3 * delta
    basis = np.argsort(np.where(seen, mags, np.inf), axis=-1)[..., :k]
    inv_t, solved = _per_matrix(np.linalg.inv, design[basis].swapaxes(-1, -2))
    # A ratio r_i / z_i with z_i = 0 is inf or nan, which is never ahead; a
    # column left with no breakpoint ahead gets inf and nan entries, and its
    # result is not read.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _exchange(design, seen, t, basis, inv_t, ok & solved)


def _exchange(design: np.ndarray, seen: np.ndarray, t: np.ndarray, basis: np.ndarray,
              inv_t: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LAD basis exchange (Barrodale & Roberts, SIAM J. Numer. Anal.
    1973) from `basis`, laid out as in `_vertex`, with `inv_t` = D_B^-T
    (its row j is column j of D_B^-1), for the columns that are `ok`. Each
    pivot frees the basic row p with the largest |g_p| > 1 and moves x along
    d = sign(g_p) * column p of D_B^-1, which moves row p's residual alone
    and lowers the objective at rate |g_p| - 1. With z = D d, each visible
    row i off the basis that r_i - alpha z_i crosses zero at an
    alpha_i = r_i / z_i >= 0 raises that rate by 2 |z_i| (|z_i| when r_i
    is 0 already); the line search stops at the first breakpoint where the
    slope turns (a weighted median), whose row enters the basis in p's
    place, and D_B^-T follows by Sherman-Morrison. Returns the final basis
    and which columns reached ||g||_inf <= 1: not one whose line search
    finds no breakpoint ahead (which only rounding can bring about), nor one
    that still needs a pivot after PIVOTS."""
    lead = t.shape[:-1]
    x = np.matmul(np.take_along_axis(t, basis, axis=-1)[..., None, :], inv_t)[..., 0, :]
    r = t - x @ design.T
    free = seen.copy()
    np.put_along_axis(free, basis, False, axis=-1)
    slots = np.arange(design.shape[1])
    # A block drops its finished columns as it goes; `live` maps them back.
    final, found, live = basis.copy(), ok.copy(), np.arange(len(t)) if lead else None
    cols = (live[:, None],) if lead else ()  # indexes each column's own entry
    for pivot in range(PIVOTS + 1):
        s = np.sign(r) * free
        g = np.matmul(inv_t, (s @ design)[..., None])[..., 0]  # -g: |g| is the same
        p = np.argmax(np.abs(g), axis=-1)[..., None]
        g_p = g[cols + (p,)]
        excess = np.abs(g_p) - 1.0
        active = ok & (excess[..., 0] > 0.0)
        if pivot == PIVOTS:
            ok = ok & ~active
        if pivot == PIVOTS or not active.all():
            if not lead:
                break
            final[live], found[live] = basis, ok
            if pivot == PIVOTS or not active.any():
                break
            live, r, free, s, inv_t, basis, ok, p, g_p, excess = (
                a[active] for a in (live, r, free, s, inv_t, basis, ok, p, g_p, excess))
            cols = (np.arange(len(live))[:, None],)
        c = inv_t[cols + (p,)][..., 0, :]
        z = (np.sign(g_p) * c) @ design.T
        alpha = r / z
        alpha = np.where(free & (alpha >= 0.0), alpha, np.inf)
        order = np.argsort(alpha, axis=-1)
        rise = (np.abs(z) * (1.0 + np.abs(s)))[cols + (order,)]
        m = np.argmax(np.cumsum(rise, axis=-1) >= excess, axis=-1)[..., None]
        enter = order[cols + (m,)]
        step = alpha[cols + (enter,)]
        ok = ok & (step[..., 0] < np.inf)
        r = r - step * z
        v = np.matmul(inv_t, design[enter].swapaxes(-1, -2))[..., 0]  # D_B^-T a_enter
        inv_t = inv_t - ((v - (slots == p)) / v[cols + (p,)])[..., :, None] * c[..., None, :]
        free[cols + (basis[cols + (p,)],)] = True
        free[cols + (enter,)] = False
        basis[cols + (p,)] = enter
    return (final, found) if lead else (basis, ok)


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
        cols["trusted"] = np.full(len(columns), not fallback)
    else:
        placed = None
        cols["maps"], fallback = _normal_maps(design, visible)
        cols["trusted"] = np.ones(len(columns), dtype=bool)
        cols["trusted"][list(fallback)] = False
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
    first = True

    def sweeps() -> np.ndarray:
        nonlocal shared, indiv, first
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
            if first and not sweep:
                # The first step's x is the least-squares fit (e = 0 on
                # visible rows, and the dual is zero): decode from it. A
                # certified column is frozen at its refit.
                x, certified = _decode(design, cols["trusted"], cols["visible"], target, x,
                                       cols["norm"], config.eps, len(free) < len(trained))
                moving &= ~certified
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
        sparse = cols["visible"]
        if first:
            # A certified column's e takes its residual on every entry (the
            # dual is zero), so its residual is exactly 0.
            sparse = sparse & ~certified
            first = False
        state.sparse_error = np.where(sparse, soft_threshold(augmented, bound), augmented)
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

    Default: a joint re-solve, the pinned selectors held fixed and every
    other selector and the span fitted around them. The free parts absorb
    what the pin changes, so the result is the model's account of the
    visible entries under the pin, their least-absolute-deviations fit,
    which the decode certifies (at a vertex where the gap cuts do not reach
    it; see `reconstruct_many`), not `y` re-rendered: on 100 stock holdouts
    transferred to attr2=b3 through the planted model it is off the
    re-rendered clean vector by 2.0e-1 (median). With post_hoc=True the
    vector is completed freely and the pinned selectors are substituted into
    the synthesis: `y` re-rendered, as accurate as the completion (7.4e-16
    median on the same vectors, whose completions are certified). Pinned to
    the vector's own labels, both routes agree.
    """
    spec = TransferSpec.targets(bundle.schema, targets)
    if not post_hoc:
        return reconstruct(y, w_y, bundle, spec, config).reconstruction
    result = reconstruct(y, w_y, bundle, TransferSpec.all_free(bundle.schema), config)
    return synthesize(bundle, spec, result.selectors, result.indiv_coeffs, config.rank_rule)
