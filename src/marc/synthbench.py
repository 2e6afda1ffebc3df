"""Synthetic instance generator, recovery metrics, and reference oracles.

The generator draws a planted model (orthonormal per-attribute bases with a
selector bank, a low-rank individual matrix with a prescribed spectrum, and
sparse gross errors on visible cells), applies a missing mask, and returns
both the assembled training set and the ground truth for scoring.

`rpca_reference` is a deliberately self-contained inexact augmented
Lagrangian solver for the low-rank-plus-sparse split. It shares no update
code with the trainer so the two can cross-check each other.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dataset import AttributeSchema, SelectorBank, TrainingSet, check_observed
from .errors import NumericalError, ValidationError, check_integer
from .proxops import random_orthonormal
from .trainer import ModelBundle


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a planted instance.

    sparsity and missing_frac are fractions of all dim*count cells. The
    individual spectrum is 10, 9, ... down to rank_g terms, so rank_g <= 9;
    rank_g = 0 drops the individual part. Gross errors fall on visible cells
    only, so there must be at least as many visible cells as errors. The spec
    checks itself when built: an invalid value raises ValidationError.
    """

    schema: AttributeSchema
    dim: int = 200
    count: int = 60
    rank_g: int = 5
    sparsity: float = 0.05
    missing_frac: float = 0.2
    noise_amp: float = 5.0
    seed: int = 7

    def __post_init__(self) -> None:
        for name, least in (("dim", 1), ("count", 1), ("rank_g", 0), ("seed", 0)):
            check_integer(getattr(self, name), name, least)
        for i in range(self.schema.count):
            if self.schema.size(i) > self.count:
                raise ValidationError(
                    f"attribute '{self.schema.name(i)}' has more instantiations "
                    f"than samples"
                )
            if self.schema.size(i) > self.dim:
                raise ValidationError(
                    f"attribute '{self.schema.name(i)}' has more instantiations "
                    f"than dimensions"
                )
        if not 0 <= self.rank_g < min(self.dim, self.count):
            raise ValidationError(f"rank_g must be in [0, min(dim, count)), got {self.rank_g}")
        if self.rank_g > 9:
            raise ValidationError("rank_g > 9 would need a nonpositive singular value")
        _check_corruption(self.dim * self.count, self.missing_frac, self.sparsity, self.noise_amp)


def _check_corruption(cells: int, missing_frac: float, sparsity: float, noise_amp: float) -> None:
    """ValidationError unless missing_frac, sparsity are in [0, 1), noise_amp
    is finite and > 0, and the visible ones of `cells` cells can take every
    gross error."""
    for name, frac in (("sparsity", sparsity), ("missing_frac", missing_frac)):
        if not 0.0 <= frac < 1.0:
            raise ValidationError(f"{name} must be in [0, 1), got {frac}")
    if not (math.isfinite(noise_amp) and noise_amp > 0):
        raise ValidationError(f"noise_amp must be positive, got {noise_amp}")
    n_sparse, n_visible = round(sparsity * cells), cells - round(missing_frac * cells)
    if n_sparse > n_visible:
        raise ValidationError(
            f"sparsity asks for {n_sparse} gross errors but missing_frac leaves "
            f"only {n_visible} visible cells"
        )


def _corrupt(rng: np.random.Generator, cells: int, missing_frac: float, sparsity: float,
             noise_amp: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask, errors) over `cells` flat cells: round(missing_frac * cells)
    hidden, then +-noise_amp on round(sparsity * cells) visible ones, drawn
    in that order; `_check_corruption` has seen that there are enough.
    Errors spare hidden cells, where one would leave a permanent gap in the
    masked residual."""
    mask = np.ones(cells)
    n_missing = round(missing_frac * cells)
    if n_missing:
        mask[rng.choice(cells, size=n_missing, replace=False)] = 0.0
    error = np.zeros(cells)
    n_sparse = round(sparsity * cells)
    if n_sparse:
        visible = np.flatnonzero(mask == 1.0)
        hit = rng.choice(visible, size=n_sparse, replace=False)
        error[hit] = noise_amp * (2.0 * rng.integers(0, 2, size=hit.size) - 1.0)
    return mask, error


def default_spec() -> SynthSpec:
    """The stock two-attribute instance used throughout the test suite."""
    schema = AttributeSchema.of(
        [
            ("attr1", [f"a{j}" for j in range(1, 4)]),
            ("attr2", [f"b{j}" for j in range(1, 5)]),
        ]
    )
    return SynthSpec(schema=schema)


@dataclass
class GroundTruth:
    """Planted factors plus the composed data, mask, and assignments."""

    schema: AttributeSchema
    bases: list[np.ndarray]
    bank: SelectorBank
    individual: np.ndarray
    sparse_error: np.ndarray
    mask: np.ndarray
    data: np.ndarray
    assignments: tuple[np.ndarray, ...]
    g_left: np.ndarray
    g_singulars: np.ndarray


def _assignments(spec: SynthSpec, rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for i in range(spec.schema.count):
        m = spec.schema.size(i)
        tiled = np.tile(np.arange(m, dtype=np.int64), math.ceil(spec.count / m))[: spec.count]
        out.append(rng.permutation(tiled))
    return out


def generate(spec: SynthSpec) -> tuple[TrainingSet, GroundTruth]:
    """Draw a planted instance. Deterministic in spec.seed; the training set
    is built from the planted data, mask and assignments themselves (its X
    and W are truth.data and truth.mask, not copies), so its label_index is
    the generator's assignments."""
    rng = np.random.default_rng(spec.seed)
    dim, count = spec.dim, spec.count
    schema = spec.schema

    assignments = _assignments(spec, rng)
    bases = [random_orthonormal(dim, schema.size(i), rng) for i in range(schema.count)]
    bank = SelectorBank([rng.standard_normal((schema.size(i), schema.size(i)))
                         for i in range(schema.count)])

    if spec.rank_g:
        g_left = random_orthonormal(dim, spec.rank_g, rng)
        g_right = random_orthonormal(count, spec.rank_g, rng)
        g_singulars = np.arange(10.0, 10.0 - spec.rank_g, -1.0)
        individual = (g_left * g_singulars) @ g_right.T
    else:
        g_left = np.zeros((dim, 0))
        g_singulars = np.zeros(0)
        individual = np.zeros((dim, count))

    mask, error = _corrupt(rng, dim * count, spec.missing_frac, spec.sparsity, spec.noise_amp)
    mask, error = mask.reshape(dim, count), error.reshape(dim, count)

    data = _clean_part(bases, bank, individual, assignments) + error

    ts = TrainingSet(schema, data, mask, tuple(assignments))
    truth = GroundTruth(
        schema=schema,
        bases=bases,
        bank=bank,
        individual=individual,
        sparse_error=error,
        mask=mask,
        data=data,
        assignments=tuple(assignments),
        g_left=g_left,
        g_singulars=g_singulars,
    )
    return ts, truth


@dataclass(frozen=True)
class HeldOutSample:
    """A fresh vector from the planted model: observed values, mask, the
    clean part before corruption and masking, and its attribute labels."""

    y: np.ndarray
    mask: np.ndarray
    clean: np.ndarray
    labels: dict[str, str]


def holdout_sample(
    truth: GroundTruth,
    seed: int,
    missing_frac: float = 0.3,
    sparsity: float = 0.05,
    noise_amp: float = 5.0,
) -> HeldOutSample:
    """Draw one out-of-sample vector from the planted factors.

    The individual part lives in the planted span with coefficients scaled
    to match the per-column energy of the planted individual matrix; mask
    and gross errors are drawn as in `generate`. A negative or non-integer
    seed, or corruption arguments SynthSpec refuses, raise ValidationError.
    """
    check_integer(seed, "seed")
    dim = truth.data.shape[0]
    count = truth.data.shape[1]
    _check_corruption(dim, missing_frac, sparsity, noise_amp)
    rng = np.random.default_rng(seed)
    labels: dict[str, str] = {}
    clean = np.zeros(dim)
    for i in range(truth.schema.count):
        j = int(rng.integers(truth.schema.size(i)))
        labels[truth.schema.name(i)] = truth.schema.labels(i)[j]
        clean += truth.bases[i] @ truth.bank.selectors[i][:, j]
    if truth.g_singulars.size:
        coeffs = truth.g_singulars * rng.standard_normal(truth.g_singulars.size) / math.sqrt(count)
        clean += truth.g_left @ coeffs

    mask, error = _corrupt(rng, dim, missing_frac, sparsity, noise_amp)
    return HeldOutSample(y=clean + error, mask=mask, clean=clean, labels=labels)


SUPPORT_THRESHOLD = 1e-6


@dataclass
class MetricsReport:
    """Recovery scores of a trained bundle against the planted truth.

    Clean-part errors compare sum_i F_i H_i + G between model and truth;
    support scores compare |E| > 1e-6 on visible cells; angles are the
    largest principal angle (radians) between trained and planted bases,
    one per attribute.
    """

    clean_rel_err_observed: float
    clean_rel_err_overall: float
    support_precision: float
    support_recall: float
    support_f1: float
    subspace_angles: tuple[float, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "subspace_angles": list(self.subspace_angles)}

    def to_text(self) -> str:
        lines = [
            f"clean_rel_err_observed={self.clean_rel_err_observed:.9e}",
            f"clean_rel_err_overall={self.clean_rel_err_overall:.9e}",
            f"support_precision={self.support_precision:.6f}",
            f"support_recall={self.support_recall:.6f}",
            f"support_f1={self.support_f1:.6f}",
        ]
        for i, angle in enumerate(self.subspace_angles):
            lines.append(f"subspace_angle_{i}={angle:.9e}")
        return "\n".join(lines) + "\n"


def _clean_part(bases: Sequence[np.ndarray], bank: SelectorBank,
                individual: np.ndarray, assignments: Sequence[np.ndarray]) -> np.ndarray:
    total = individual.copy()
    for i, basis in enumerate(bases):
        total += basis @ bank.selectors[i][:, assignments[i]]
    return total


def recovery_metrics(bundle: ModelBundle, truth: GroundTruth) -> MetricsReport:
    """Score a trained bundle against the planted truth it was trained on."""
    if bundle.individual.shape != truth.individual.shape:
        raise ValidationError(
            f"bundle shape {bundle.individual.shape} does not match "
            f"truth shape {truth.individual.shape}"
        )
    if bundle.schema != truth.schema:
        raise ValidationError("bundle and truth schemas differ")

    model_clean = _clean_part(bundle.bases, bundle.bank, bundle.individual, truth.assignments)
    true_clean = _clean_part(truth.bases, truth.bank, truth.individual, truth.assignments)
    diff = model_clean - true_clean
    observed = truth.mask == 1.0
    err_obs = float(np.linalg.norm(diff[observed]) / np.linalg.norm(true_clean[observed]))
    err_all = float(np.linalg.norm(diff) / np.linalg.norm(true_clean))

    pred = (np.abs(bundle.sparse_error) > SUPPORT_THRESHOLD) & observed
    actual = (np.abs(truth.sparse_error) > SUPPORT_THRESHOLD) & observed
    tp = int(np.count_nonzero(pred & actual))
    fp = int(np.count_nonzero(pred & ~actual))
    fn = int(np.count_nonzero(~pred & actual))
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    angles = []
    for basis, planted in zip(bundle.bases, truth.bases):
        overlap = np.linalg.svd(basis.T @ planted, compute_uv=False)
        angles.append(float(np.arccos(np.clip(overlap.min(), -1.0, 1.0))))
    return MetricsReport(
        clean_rel_err_observed=err_obs,
        clean_rel_err_overall=err_all,
        support_precision=precision,
        support_recall=recall,
        support_f1=f1,
        subspace_angles=tuple(angles),
    )


def rpca_reference(
    X: np.ndarray,
    W: np.ndarray | None = None,
    lam: float | None = None,
    eps: float = 1e-7,
    t_max: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked low-rank-plus-sparse split by the classic inexact augmented
    Lagrangian iteration, kept independent of the trainer on purpose.

    Hidden cells (W = 0) take the residual without shrinking. Returns
    (low_rank, sparse). Input that breaks `check_observed` raises
    ValidationError naming its column; divergence raises NumericalError.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("rpca_reference expects a 2-D matrix")
    X, W = check_observed(X, W, lambda c: f"column {c}")
    m, n = X.shape
    if lam is None:
        lam = 1.0 / math.sqrt(max(m, n))

    norm_two = float(np.linalg.norm(X, 2))
    norm_fro = float(np.linalg.norm(X))
    if norm_fro == 0.0:
        return np.zeros_like(X), np.zeros_like(X)
    norm_inf = float(np.abs(X).max()) / lam
    Y = X / max(norm_two, norm_inf)
    mu = 1.25 / norm_two
    mu_cap = mu * 1e7
    rho = 1.5
    visible = W != 0.0
    L = np.zeros_like(X)
    S = np.zeros_like(X)
    for t in range(t_max):
        R = X - L + Y / mu
        shrunk = np.sign(R) * np.maximum(np.abs(R) - lam / mu, 0.0)
        S = np.where(visible, shrunk, R)
        u, s, vh = np.linalg.svd(X - S + Y / mu, full_matrices=False)
        s = np.maximum(s - 1.0 / mu, 0.0)
        keep = int(np.count_nonzero(s))
        L = (u[:, :keep] * s[:keep]) @ vh[:keep] if keep else np.zeros_like(X)
        gap = X - L - S
        crit = float(np.linalg.norm(gap)) / norm_fro
        if not np.isfinite(crit):
            raise NumericalError(f"rpca_reference diverged at iteration {t}")
        Y = Y + mu * gap
        mu = min(rho * mu, mu_cap)
        if crit < eps:
            break
    return L, S


def procrustes_sampling_oracle(
    a: np.ndarray,
    b: np.ndarray,
    n_samples: int,
    seed: int,
) -> float:
    """Monte-Carlo lower bound check for the orthonormal fitting problem:
    the smallest ||Omega @ a - b||_F over `n_samples` Haar-random Omega with
    orthonormal columns. Never beats the closed-form optimum."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValidationError("oracle needs 2-D a, b with matching column counts")
    rng = np.random.default_rng(seed)
    rows, inner = b.shape[0], a.shape[0]
    best = float("inf")
    chunk = 2000
    done = 0
    while done < n_samples:
        take = min(chunk, n_samples - done)
        g = rng.standard_normal((take, rows, inner))
        q, r = np.linalg.qr(g)
        diag_signs = np.sign(np.einsum("bii->bi", r))
        diag_signs[diag_signs == 0] = 1.0
        q = q * diag_signs[:, None, :]
        objectives = np.linalg.norm(q @ a - b[None, :, :], axis=(1, 2))
        best = min(best, float(objectives.min()))
        done += take
    return best
