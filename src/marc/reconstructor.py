"""ADMM reconstruction of single vectors against a trained model.

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
"""
from __future__ import annotations

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
    """Mutable reconstruction state, exposed to observers per iteration."""

    config: ReconConfig
    selectors: list[np.ndarray]
    indiv_coeffs: np.ndarray
    sparse_error: np.ndarray
    dual: np.ndarray
    mu: float
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


def reconstruct(
    y: np.ndarray,
    w_y: np.ndarray | None,
    bundle: ModelBundle,
    spec: TransferSpec | None = None,
    config: ReconConfig = ReconConfig(),
    observer: ReconObserver | None = None,
) -> ReconResult:
    """Solve the per-vector decomposition by ADMM.

    Every penalty step runs up to INNER_SWEEPS sweeps of the primal blocks,
    ending early once a sweep moves the synthesis by at most
    INNER_TOL * ||y||, then takes one dual step. The loop around the sweeps
    is `trainer.run_penalty_steps` on the residual
    ||y - sum F_i h_i - K w - e|| / ||y||, which e enters on every entry,
    so both residual histories hold it. `stop_reason` says whether it stopped
    at eps, at t_max, or stalled at mu_max. `observer` and the histories see
    one entry per penalty step, after its closing E step.

    Hidden entries of `y` enter no step: the solve runs on W.*y, so the
    selectors, coefficients, reconstruction and diagnostics are those of
    reconstruct(y * w_y, w_y). Only the returned sparse error reads them:
    its hidden entries add them back, so that there it absorbs y minus the
    synthesis.

    Pinned selectors are copied from the trained bank before the loop and
    never touched, so they come back bitwise identical. Non-convergence is
    flagged in diagnostics, not raised.
    """
    dim = bundle.dim
    y = _check_vector(y, dim, "input vector")
    if not np.all(np.isfinite(y)):
        raise ValidationError("input vector contains non-finite entries")
    if w_y is None:
        w_y = np.ones(dim)
    w_y = _check_vector(w_y, dim, "input mask")
    if not np.all((w_y == 0.0) | (w_y == 1.0)):
        raise ValidationError("input mask must be strictly binary (0/1 entries)")
    observed = y * w_y
    visible = w_y != 0.0
    if spec is None:
        spec = TransferSpec.all_free(bundle.schema)
    if len(spec.pinned) != bundle.schema.count:
        raise ValidationError("transfer spec does not cover the schema")
    for i, mode in enumerate(spec.pinned):
        if mode is not None and not 0 <= mode < bundle.schema.size(i):
            raise ValidationError(
                f"pinned instantiation {mode} out of range for attribute "
                f"'{bundle.schema.name(i)}'"
            )

    span = build_span(bundle, config.rank_rule) if config.use_individual else np.zeros((dim, 0))
    bases = bundle.bases
    j_count = bundle.schema.count
    selectors = [
        bundle.bank.selectors[i][:, mode].copy() if mode is not None
        else np.zeros(bundle.schema.size(i))
        for i, mode in enumerate(spec.pinned)
    ]
    free = [i for i, mode in enumerate(spec.pinned) if mode is None]

    lam = config.effective_lam(dim, 1)
    y_norm = float(np.linalg.norm(observed))
    if y_norm == 0.0:
        coeffs = np.zeros(span.shape[1])
        out = synthesize(bundle, spec, selectors, coeffs, config.rank_rule)
        return ReconResult(
            selectors=selectors,
            indiv_coeffs=coeffs,
            sparse_error=np.where(visible, 0.0, y - out),
            reconstruction=out,
            diagnostics=TrainDiagnostics.zero_input(lam),
        )

    state = ReconState(
        config=config,
        selectors=selectors,
        indiv_coeffs=np.zeros(span.shape[1]),
        sparse_error=np.zeros(dim),
        dual=np.zeros(dim),
        mu=config.mu0_scale / y_norm,
        lam=lam,
    )

    # The primal blocks of a sweep are x, the free selectors and the span
    # coefficients taken together, then the sparse error e. Hidden entries of
    # e carry no penalty and absorb whatever x leaves there, so the x step is
    # the least-squares fit on the visible rows, through the pseudo-inverse
    # `pinv` of the visible rows of the stacked design [F_free, K].
    blocks = [bases[i] for i in free] + ([span] if span.shape[1] else [])
    design = np.hstack(blocks) if blocks else np.zeros((dim, 0))
    design_v = design[visible]
    pinv = np.linalg.pinv(design_v)
    ends = np.cumsum([0] + [block.shape[1] for block in blocks])
    pieces = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    x = np.zeros(design.shape[1])
    pinned = np.zeros(dim)
    for k in range(j_count):
        if k not in free:
            pinned += bases[k] @ state.selectors[k]
    free_target = (observed - pinned)[visible]
    tol_sq = (INNER_TOL * y_norm) ** 2
    shared = indiv = np.zeros(dim)

    def sweeps() -> np.ndarray:
        nonlocal x, shared, indiv
        scaled_dual = state.dual / state.mu
        bound = lam / state.mu
        target = free_target + scaled_dual[visible]
        err = state.sparse_error[visible]
        for sweep in range(INNER_SWEEPS):
            new = pinv @ (target - err)
            step = new - x
            x = new
            # Blocks have orthonormal columns: ||step||^2 sums the squared
            # distances the sweep moved each block's synthesis.
            if sweep == INNER_SWEEPS - 1 or step @ step <= tol_sq:
                break
            err = soft_threshold(target - design_v @ x, bound)
        for i, piece in zip(free, pieces):
            state.selectors[i] = x[piece]
        if span.shape[1]:
            state.indiv_coeffs = x[pieces[-1]]
        # The closing E step, on every entry from freshly summed components,
        # so that hidden entries of e equal the residual bitwise.
        shared = np.zeros(dim)
        for k in range(j_count):
            shared += bases[k] @ state.selectors[k]
        indiv = span @ state.indiv_coeffs
        unexplained = observed - shared - indiv
        augmented = unexplained + scaled_dual
        state.sparse_error = np.where(visible, soft_threshold(augmented, bound), augmented)
        return unexplained

    def residual(unexplained: np.ndarray) -> tuple[float, float]:
        res = float(np.linalg.norm(unexplained - state.sparse_error)) / y_norm
        return res, res

    diag = run_penalty_steps(state, sweeps, residual, observer, "reconstruction")
    return ReconResult(
        selectors=state.selectors,
        indiv_coeffs=state.indiv_coeffs,
        sparse_error=np.where(visible, state.sparse_error, state.sparse_error + y),
        reconstruction=shared + indiv,
        diagnostics=diag,
    )


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
