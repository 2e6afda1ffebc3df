"""ADMM training of the shared / individual / sparse decomposition.

The model for a training matrix X (dim x count) with visibility mask W is

    X = sum_i F_i H_i + G + E

where each basis F_i has orthonormal columns, the columns of H_i are drawn
from a small per-attribute selector bank (columns sharing an instantiation
share a selector), G is low rank, and E is sparse on the visible support
while absorbing the residual exactly on hidden entries.

The solver is a scaled-dual augmented-Lagrangian loop. Each penalty step
runs Gauss-Seidel sweeps (always using the latest values) of: per attribute
a selector step and an orthonormal basis step, then a singular-value-
threshold step for G and a masked soft-threshold step for E. Sweeps repeat
until one moves sum F_k H_k + G by at most INNER_TOL * ||X||_F, at most
INNER_SWEEPS times; then come a dual ascent step and a geometric penalty
increase from mu0_scale / ||X||_2 (the spectral norm of X), capped at
mu_max. Solving each step's subproblem (the exact rather than the inexact
augmented Lagrangian method, Lin, Chen & Ma, arXiv:1009.5055) matters at the
pinned schedule: with one pass per step the iterate becomes feasible and
freezes at the wrong split before the dual has done its work. The loop
around the sweeps (penalty schedule, observer, stop rules and the run's
record, `TrainDiagnostics`) is `run_penalty_steps`, which reconstruction
shares.

Selectors are handled in indicator form. With Z_i the count x M_i one-hot
matrix of attribute i's labels and S_i its (M_i, M_i) selector block,
H_i = S_i Z_i^T, so F_i H_i = (F_i S_i)[:, labels] is a small product plus a
column gather. For an attribute residual R, R Z_i holds the per-instantiation
column sums; the selector step for every instantiation at once is
F_i^T (R Z_i) / n_i (n_i the column count of each instantiation) and the
basis step is the Procrustes projection of (R Z_i) S_i^T, which equals
R H_i^T.

A sweep never forms an attribute residual. It keeps the products
P_k = F_k S_k side by side in one dim x sum_k M_k matrix, forms
base = X - G - E + dual/mu once and base [Z_1 ... Z_J] with one product,
and takes R Z_i = base Z_i - sum_{k != i} P_k C_ki in label space, where
C_ki = Z_k^T Z_i are the label co-occurrence counts, computed once per
`train` (`attribute_sums`). After attribute i's selector and basis steps it
refreshes P_i. After the attribute sweep the loop forms sum_k F_k H_k from
the same products with one more product, [P_1 ... P_J] [Z_1 ... Z_J]^T
(`shared_sum`; the transposed indicators are built once per `train`), and
forms each residual of the sweep once, from dual/mu taken once per penalty
step: X - sum F_k H_k - E + dual/mu for the G step, then fit =
X - sum F_k H_k - G, plus dual/mu for the E step, which shrinks it in one
pass; the last sweep's fit feeds the residual measures and the dual step.
Every step function takes the residual it acts on. `attribute_residual`,
`error_residual` and `shared_component` form the same quantities from the
state alone, `shared_component` through `shared_sum` as the loop does; they
are the reference the loop is tested against.

The sweep writes each dim x count quantity it forms into one of five
arrays allocated once per `train`: dual/mu; the residual the next step
reads (X - G - E + dual/mu, then the G step's, then the E step's);
sum F_k H_k; X - sum F_k H_k, which becomes the fit; and, with the model
array, the model sum F_k H_k + G and how far it moved. Each is formed by
`out=` ufuncs in the same order of operations as the plain expression, so
every value is bitwise the same. The step functions write no buffer: every
array the state holds after a step (G, E, the dual, each basis and
selector block) is a new one, never written again, so an observer may keep
references to them.

G keeps a small rank through most of a run, and the matrix it thresholds
changes little from one sweep to the next. So the G step starts `svt` from
the kept right singular vectors of the previous G step, which `TrainState`
holds (`individual_start`; never the `ModelBundle`, so saved bundles do not
change): block power steps from that basis on the Gram matrix `svt` forms
once per call, accepted once the Ritz residual is at rounding level and a
certificate shows that what the basis leaves out has spectral norm at most
1/mu. A call without a start (the first), with a start wider than a third
of the short side, or that cannot converge or certify, takes the Gram path
on the same Gram matrix and then the SVD, as `svt` without a start does;
one that finds a kept value the Gram matrix cannot resolve goes straight to
the SVD. The trained model is the same to rounding either way (about 1e-11
relative on the benchmark instances), with the same steps and stop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal

import numpy as np

from .dataset import AttributeSchema, SelectorBank, TrainingSet
from .errors import NumericalError, ValidationError, check_integer
from .proxops import (
    WarmStart,
    deterministic_svd,
    energy_prefix,
    frobenius,
    procrustes,
    random_orthonormal,
    svt,
)

# Each penalty step runs up to INNER_SWEEPS Gauss-Seidel sweeps of the primal
# blocks (H and F per attribute, G, E); a sweep that moves sum F_k H_k + G by
# at most INNER_TOL * ||X||_F ends the step.
INNER_SWEEPS = 10
INNER_TOL = 1e-5


@dataclass(frozen=True)
class Schedule:
    """The augmented-Lagrangian schedule that training and reconstruction
    share: sparsity weight lam (None selects 1/sqrt of the larger side of
    the data at solve time), stop threshold eps, iteration cap t_max, and
    the penalty, which starts at mu0_scale over a norm of the data, capped
    at mu_max, and grows by rho per step up to mu_max. In reconstruction eps
    also bounds the first step's decode: a vector is certified when its
    refit is provably within eps * ||w .* target||_1 of every exact
    (least-absolute-deviations) fit. Like every config, it checks itself
    when built: an invalid value raises ValidationError."""

    lam: float | None = None
    eps: float = 1e-7
    t_max: int = 1000
    rho: float = 1.2
    mu_max: float = 1e7
    mu0_scale: float = 25.0

    def __post_init__(self) -> None:
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"lam must be positive, got {self.lam}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValidationError(f"eps must be positive, got {self.eps}")
        check_integer(self.t_max, "t_max", 1)
        if not (np.isfinite(self.rho) and self.rho > 1):
            raise ValidationError(f"rho must be > 1, got {self.rho}")
        if not (np.isfinite(self.mu_max) and self.mu_max > 0):
            raise ValidationError(f"mu_max must be positive, got {self.mu_max}")
        if not (np.isfinite(self.mu0_scale) and self.mu0_scale > 0):
            raise ValidationError(f"mu0_scale must be positive, got {self.mu0_scale}")

    def effective_lam(self, dim: int, count: int) -> float:
        if self.lam is not None:
            return float(self.lam)
        return 1.0 / math.sqrt(max(dim, count))

    def capped(self, mu: float | np.ndarray) -> float | np.ndarray:
        """`mu` held at most mu_max: a float stays a float (the one-problem
        case), an array of per-problem penalties is capped entrywise."""
        return np.minimum(mu, self.mu_max) if isinstance(mu, np.ndarray) else min(mu, self.mu_max)


@dataclass(frozen=True)
class SolverConfig(Schedule):
    """Training hyperparameters: the shared schedule, whose penalty starts at
    mu0_scale / ||X||_2 (capped at mu_max), plus the seed of the random
    initial bases."""

    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_integer(self.seed, "seed")


@dataclass
class TrainDiagnostics:
    """The record of one run of either solver, one history entry per step.
    `stop_reason` is None in a record made outside `run_penalty_steps`, or
    saved before runs recorded it."""

    iterations: int
    converged: bool
    final_residual: float
    final_residual_unmasked: float
    lam_effective: float
    residual_history: list[float]
    residual_history_unmasked: list[float]
    mu_history: list[float]
    stop_reason: Literal["converged", "t_max", "stalled"] | None = None

    @classmethod
    def zero_input(cls, lam: float) -> TrainDiagnostics:
        """The record of a solver given all-zero data, solved with no step."""
        return cls(0, True, 0.0, 0.0, lam, [], [], [], stop_reason="converged")


@dataclass
class TrainState:
    """Mutable solver state; updated in place by the step functions.
    `individual_start` holds the kept right singular vectors of the last G
    step, where the next one starts (see `update_g`). The step index is not a
    field: `run_penalty_steps` counts steps and hands observers each one's."""

    config: SolverConfig
    bases: list[np.ndarray]
    bank: SelectorBank
    individual: np.ndarray
    sparse_error: np.ndarray
    dual: np.ndarray
    mu: float
    lam: float
    individual_start: WarmStart = field(default_factory=WarmStart)


@dataclass(frozen=True)
class ModelBundle:
    """Trained model: schema, bases, selector bank, individual and sparse
    parts of the training matrix, diagnostics, and the config that made it.

    `individual_svd` is the thin `deterministic_svd` of the individual
    component, computed once at construction; spans of any width are cut
    from it (see `reconstructor.build_span`). Next to it, `individual_energy`
    holds that spectrum's `energy_prefix`, the cumulative squared singular
    values up to the numerical rank, from which a `RankRule` takes the
    span's width. Both are derived: neither is compared or saved.
    """

    schema: AttributeSchema
    bases: list[np.ndarray]
    bank: SelectorBank
    individual: np.ndarray
    sparse_error: np.ndarray
    diagnostics: TrainDiagnostics
    config: SolverConfig
    individual_svd: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    individual_energy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        svd = deterministic_svd(self.individual)
        object.__setattr__(self, "individual_svd", svd)
        object.__setattr__(self, "individual_energy", energy_prefix(svd[1], self.individual.shape))

    @property
    def dim(self) -> int:
        return self.individual.shape[0]


def shared_component(state: TrainState, ts: TrainingSet, exclude: int | None = None) -> np.ndarray:
    """sum_k F_k H_k over attributes, optionally skipping one.

    This is `shared_sum` of the products F_k S_k (the skipped one zeroed),
    as the training sweep forms it, so callers that need bitwise-identical
    recomputation (tests, invariant checks) get it from this on an
    unchanged state, for any number of attributes.
    """
    spread, blocks = label_space(ts)
    products = stacked_products(state, blocks)
    if exclude is not None:
        products[:, blocks[exclude]] = 0.0
    return shared_sum(products, spread)


def shared_sum(products: np.ndarray, spread: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """sum_k F_k H_k as one product [P_1 ... P_J] [Z_1 ... Z_J]^T of the
    stacked products P_k = F_k S_k (`stacked_products`) and `spread`, the
    transposed stacked indicators (`label_space`), written into `out` when
    given (the training sweep's buffer). Each entry adds one entry of every
    P_k and exact zeros, so with at most two attributes it is the
    per-attribute gather-and-add bitwise; with more, BLAS may add the terms
    in another order. No attribute gives zeros."""
    return np.matmul(products, spread, out=out)


def stacked_products(state: TrainState, blocks: list[slice]) -> np.ndarray:
    """[F_1 S_1 ... F_J S_J], dim x sum_i M_i, attribute i's product in the
    columns `blocks[i]`."""
    products = np.empty((state.individual.shape[0], blocks[-1].stop if blocks else 0))
    for basis, sel, block in zip(state.bases, state.bank.selectors, blocks):
        products[:, block] = basis @ sel
    return products


def indicator(ts: TrainingSet, attr: int) -> np.ndarray:
    """Z_i: the count x M_i one-hot matrix of attribute `attr`'s labels."""
    z = np.zeros((ts.count, ts.schema.size(attr)))
    z[np.arange(ts.count), ts.label_index[attr]] = 1.0
    return z


def label_space(ts: TrainingSet) -> tuple[np.ndarray, list[slice]]:
    """The spread [Z_1 ... Z_J]^T, a C-contiguous sum_i M_i x count array
    (0 x count with no attribute), and the block of rows of each Z_i^T."""
    ends = np.cumsum([ts.schema.size(i) for i in range(ts.schema.count)], dtype=int).tolist()
    blocks = [slice(start, end) for start, end in zip([0] + ends, ends)]
    spread = np.zeros((ends[-1] if ends else 0, ts.count))
    for i, block in enumerate(blocks):
        spread[block] = indicator(ts, i).T
    return spread, blocks


def cooccurrence(spread: np.ndarray, blocks: list[slice]) -> list[list[np.ndarray]]:
    """C[k][i] = Z_k^T Z_i: how many columns carry each pair of labels of
    attributes k and i (diagonal blocks hold the per-label counts), cut from
    the Gram matrix of the stacked indicators, whose transpose is `spread`
    with attribute i's rows in `blocks[i]` (see `label_space`). The counts
    are exact in floating point."""
    gram = spread @ spread.T
    return [[gram[rows, cols] for cols in blocks] for rows in blocks]


def attribute_sums(
    base_sums: np.ndarray, products: list[np.ndarray], cooc: list[list[np.ndarray]], attr: int
) -> np.ndarray:
    """R Z_i for attribute `attr` in label space, with no dim x count work.

    `base_sums` is (X - G - E + dual/mu) Z_i, `products[k]` is F_k S_k and
    `cooc` is `cooccurrence` of the indicators; since F_k H_k Z_i =
    F_k S_k Z_k^T Z_i, the result equals
    attribute_residual(state, ts, attr) @ indicator(ts, attr).
    """
    sums = base_sums
    for k, product in enumerate(products):
        if k != attr:
            sums = sums - product @ cooc[k][attr]
    return sums


def attribute_residual(state: TrainState, ts: TrainingSet, attr: int) -> np.ndarray:
    """What attribute `attr` must explain: X minus every other component,
    plus the scaled dual."""
    return ts.X - shared_component(state, ts, exclude=attr) \
        - state.individual - state.sparse_error + state.dual / state.mu


def error_residual(state: TrainState, ts: TrainingSet) -> np.ndarray:
    """Residual handed to the sparse step: X - sum F_k H_k - G + dual/mu."""
    return ts.X - shared_component(state, ts) - state.individual + state.dual / state.mu


def update_h(state: TrainState, ts: TrainingSet, attr: int, sums: np.ndarray) -> np.ndarray:
    """Selector step for every instantiation of `attr` at once: project the
    mean residual of each instantiation's columns onto the attribute's
    current basis, S_i = F_i^T (R Z_i) / n_i.

    `sums` is R Z_i, attribute_residual(state, ts, attr) @
    indicator(ts, attr), and n_i is `ts.label_counts[attr]`. Returns the new
    (M_i, M_i) selector block.
    """
    state.bank.selectors[attr] = (state.bases[attr].T @ sums) / ts.label_counts[attr]
    return state.bank.selectors[attr]


def update_f(state: TrainState, attr: int, sums: np.ndarray) -> np.ndarray:
    """Basis step: orthonormal factor closest to the residual in the
    selector directions, via the Procrustes projection of R H_i^T, computed
    as (R Z_i) S_i^T. `sums` is as in `update_h`."""
    state.bases[attr] = procrustes(sums @ state.bank.selectors[attr].T)
    return state.bases[attr]


def update_g(state: TrainState, residual: np.ndarray) -> np.ndarray:
    """Individual step: singular-value threshold at 1/mu of what the shared
    and sparse parts leave unexplained, the `residual`
    X - sum F_k H_k - E + dual/mu. `svt` starts from the previous step's
    kept singular vectors and leaves this step's in their place."""
    state.individual = svt(residual, 1.0 / state.mu, state.individual_start)
    return state.individual


def update_e(state: TrainState, ts: TrainingSet, residual: np.ndarray) -> np.ndarray:
    """Sparse step on `residual`, which is error_residual(state, ts), in one
    pass: residual - W .* clip(residual, -lam/mu, lam/mu). On visible
    entries that is the soft threshold; hidden entries take the residual
    unchanged, which zeroes the augmented residual there. E is one new
    array: the clip, the product with W and the difference are written
    into it in turn. A non-finite residual raises ValidationError."""
    if not np.isfinite(residual).all():
        raise ValidationError("sparse step input contains non-finite entries")
    tau = state.lam / state.mu
    error = np.clip(residual, -tau, tau)
    np.multiply(ts.W, error, out=error)
    state.sparse_error = np.subtract(residual, error, out=error)
    return state.sparse_error


def update_duals(state, fit: np.ndarray) -> None:
    """Dual ascent on the coupling constraint, then the capped geometric
    penalty increase. mu never decreases. `fit` is the part of the data
    left for E (X - sum F_k H_k - G in training). Any solver state with
    config, dual, mu and sparse_error will do, the reconstructor's too,
    whose mu is one entry per column of dual. The new dual is one new array,
    the difference, product and sum written into it in turn."""
    dual = np.subtract(fit, state.sparse_error)
    np.multiply(state.mu, dual, out=dual)
    state.dual = np.add(state.dual, dual, out=dual)
    state.mu = state.config.capped(state.config.rho * state.mu)


def normalized_residual(state: TrainState, ts: TrainingSet, norm: float, fit: np.ndarray) -> float:
    """Masked convergence measure:
    ||X - sum F_k H_k - G - W.*E||_F / ||X||_F, `norm` being the nonzero
    ||X||_F that `train` takes once. `fit` is as in `update_duals`."""
    gap = np.multiply(ts.W, state.sparse_error)
    return frobenius(np.subtract(fit, gap, out=gap)) / norm


def constraint_residual(state: TrainState, ts: TrainingSet, norm: float, fit: np.ndarray) -> float:
    """Unmasked counterpart of `normalized_residual` (E enters everywhere)."""
    return frobenius(fit - state.sparse_error) / norm


Observer = Callable[[TrainState, int], None]


def checked_norms(arrays: Iterable[np.ndarray] | np.ndarray, what: str,
                  name: Callable[[int], str]) -> list[float]:
    """The norms of `arrays`, taken without a numpy warning by fixed-order
    `np.einsum` sums, whose last bits no BLAS thread count moves: each
    matrix of a list by `frobenius`, as training takes its data's, or each
    row of one 2-D array by one sum over its C-ordered rows, as
    reconstruction takes its vectors' (a lone vector as a 1 x dim array,
    whose norm is then bitwise its norm in any block). The first that
    overflows float64 raises NumericalError "<what> diverged at iteration 0:
    <name(c)> overflows float64", c its index."""
    with np.errstate(over="ignore"):
        if isinstance(arrays, np.ndarray):
            rows = np.ascontiguousarray(arrays)
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows)).tolist()
        else:
            norms = [frobenius(a) for a in arrays]
    for c in (c for c, norm in enumerate(norms) if not math.isfinite(norm)):
        raise NumericalError(f"{what} diverged at iteration 0: {name(c)} overflows float64")
    return norms


def _as_list(values: float | np.ndarray) -> list[float]:
    """A float, or an array of floats, as a list of floats."""
    return values.tolist() if isinstance(values, np.ndarray) else [float(values)]


def run_penalty_steps(
    state,
    step: Callable[[], tuple[np.ndarray, float | np.ndarray, float | np.ndarray]],
    observer: Callable | None,
    what: str,
    retire: Callable[[list[int], list[TrainDiagnostics]], None],
) -> None:
    """The augmented-Lagrangian loop that `train` and `reconstruct_many`
    share, over B independent problems solved side by side.

    `state` holds config (a Schedule), dual, mu, lam and sparse_error.
    mu is a float for one problem (training, or one vector to reconstruct),
    or a length-B array for B problems, whose b-th entry belongs to the b-th
    column of the working set: the problems still running, in their
    original order. Each penalty step calls `step()`, which updates the
    primal blocks through the closing sparse step and returns (fit, masked,
    unmasked): the part of the data left for E, the masked residuals, which
    drive the stop rules, and the unmasked ones, a float or a length-B array
    each. After finite residuals come the observer, called with (state, t),
    and the stop rules. A problem stops "converged" when its residual drops
    to eps, at "t_max" after t_max steps, or "stalled" before that: its step
    ran with the penalty at mu_max, and at the rate it moved the residual,
    the steps left before t_max could not bring it to eps. Then comes
    `update_duals`, unless every problem left stopped at this step: nothing
    reads that dual or penalty (no record, result or bundle holds them, and
    the observer has already seen the step), so the last step takes none.
    `retire` is the one exit for records: when problems stop, after the
    dual step if there is one, `retire(stopped, records)` gets their
    columns' positions in the working set, ascending, and their closed
    TrainDiagnostics; it saves their results and, unless every column
    stopped, drops those columns from the state. The loop returns once
    every problem has been retired.

    A non-finite residual, or a kernel inside a step that rejects a
    non-finite intermediate (ValidationError) or fails to factor one
    (NumericalError), raises NumericalError naming `what` and the step.
    """
    eps, t_max, mu_max = state.config.eps, state.config.t_max, state.config.mu_max
    records = [([], [], []) for _ in range(np.size(state.mu))]  # mu, residual, unmasked
    last = [math.inf] * len(records)
    for t in range(t_max):
        mu = _as_list(state.mu)
        try:
            fit, masked, unmasked = step()
        except (ValidationError, NumericalError) as exc:
            raise NumericalError(f"{what} diverged at iteration {t}: {exc}") from exc
        res, res_unmasked = _as_list(masked), _as_list(unmasked)
        if not all(map(math.isfinite, res + res_unmasked)):
            raise NumericalError(f"{what} diverged at iteration {t}: non-finite residual")
        if observer is not None:
            observer(state, t)
        left = t_max - 1 - t
        stopped, closed = [], []
        for c, (mu_history, res_history, unmasked_history) in enumerate(records):
            r = res[c]
            mu_history.append(mu[c])
            res_history.append(r)
            unmasked_history.append(res_unmasked[c])
            if r <= eps:
                reason = "converged"
            elif not left:
                reason = "t_max"
            elif mu[c] == mu_max and abs(r - last[c]) * left < r - eps:
                reason = "stalled"
            else:
                continue
            stopped.append(c)
            closed.append(TrainDiagnostics(
                iterations=t + 1,
                converged=reason == "converged",
                final_residual=r,
                final_residual_unmasked=res_unmasked[c],
                lam_effective=state.lam,
                residual_history=res_history,
                residual_history_unmasked=unmasked_history,
                mu_history=mu_history,
                stop_reason=reason,
            ))
        if len(stopped) < len(records):
            update_duals(state, fit)
        last = res
        if stopped:
            retire(stopped, closed)
            if len(stopped) == len(records):
                return
            going = sorted(set(range(len(records))).difference(stopped))
            records, last = [records[c] for c in going], [res[c] for c in going]


def _zero_bundle(ts: TrainingSet, config: SolverConfig, lam: float) -> ModelBundle:
    bases = [np.zeros((ts.dim, ts.schema.size(i))) for i in range(ts.schema.count)]
    return ModelBundle(
        schema=ts.schema,
        bases=bases,
        bank=SelectorBank.zeros(ts.schema),
        individual=np.zeros_like(ts.X),
        sparse_error=np.zeros_like(ts.X),
        diagnostics=TrainDiagnostics.zero_input(lam),
        config=config,
    )


def train(
    ts: TrainingSet,
    config: SolverConfig = SolverConfig(),
    observer: Observer | None = None,
) -> ModelBundle:
    """Fit the model by `run_penalty_steps` on the masked residual, one
    penalty step of up to INNER_SWEEPS sweeps per iteration.

    `observer`, if given, is called once per iteration after the closing
    sparse step (duals and penalty still at their current values) with
    (state, t). The diagnostics say why the run stopped (`stop_reason`);
    non-convergence, at t_max or stalled, is reported there, not raised. A
    run that overflows raises NumericalError with the iteration index.
    """
    lam = config.effective_lam(ts.dim, ts.count)
    [norm] = checked_norms([ts.X], "training", lambda _: "the norm of the training matrix")
    if norm == 0.0:
        return _zero_bundle(ts, config, lam)

    rng = np.random.default_rng(config.seed)
    state = TrainState(
        config=config,
        bases=[random_orthonormal(ts.dim, ts.schema.size(i), rng) for i in range(ts.schema.count)],
        bank=SelectorBank.zeros(ts.schema),
        individual=np.zeros_like(ts.X),
        sparse_error=np.zeros_like(ts.X),
        dual=np.zeros_like(ts.X),
        mu=config.capped(config.mu0_scale / float(np.linalg.norm(ts.X, 2))),
        lam=lam,
    )

    spread, blocks = label_space(ts)
    spread_t = spread.T
    cooc = cooccurrence(spread, blocks)
    stacked = stacked_products(state, blocks)
    products = [stacked[:, block] for block in blocks]  # views: P_i, updated in place
    tol = INNER_TOL * norm
    # The sweep's buffers (see the module docstring); none reaches the state.
    scaled, work, shared, fit, moved = (np.empty_like(ts.X) for _ in range(5))
    model = np.zeros_like(ts.X)  # sum F_k H_k + G of the zero initial state

    def step() -> tuple[np.ndarray, float, float]:
        nonlocal model, moved
        np.divide(state.dual, state.mu, out=scaled)
        for _ in range(INNER_SWEEPS):
            np.subtract(ts.X, state.individual, out=work)  # X - G - E + dual/mu
            np.subtract(work, state.sparse_error, out=work)
            np.add(work, scaled, out=work)
            base_sums = work @ spread_t
            for i, block in enumerate(blocks):
                sums = attribute_sums(base_sums[:, block], products, cooc, i)
                update_h(state, ts, i, sums)
                update_f(state, i, sums)
                products[i][...] = state.bases[i] @ state.bank.selectors[i]
            shared_sum(stacked, spread, out=shared)
            np.subtract(ts.X, shared, out=fit)  # X - sum F_k H_k
            np.subtract(fit, state.sparse_error, out=work)  # the G step's residual
            update_g(state, np.add(work, scaled, out=work))
            model, moved = np.add(shared, state.individual, out=moved), model
            np.subtract(model, moved, out=moved)
            np.subtract(fit, state.individual, out=fit)
            update_e(state, ts, np.add(fit, scaled, out=work))
            if frobenius(moved) <= tol:
                break
        return (fit, normalized_residual(state, ts, norm, fit),
                constraint_residual(state, ts, norm, fit))

    closed: list[TrainDiagnostics] = []
    run_penalty_steps(state, step, observer, "training", lambda _, diags: closed.extend(diags))
    return ModelBundle(
        schema=ts.schema,
        bases=state.bases,
        bank=state.bank,
        individual=state.individual,
        sparse_error=state.sparse_error,
        diagnostics=closed[0],
        config=config,
    )
