"""Acceptance gate: one test per pinned behavioral guarantee, each printing
a single PASS/FAIL line with the measured numbers before asserting.

The checks run at the pinned default configuration; the penalty schedule
itself (mu0_scale=25, rho=1.2, mu_max=1e7) is part of the packaged interface
contract (see test_penalty_schedule_conformance). At that start the sparse
part first absorbs clean signal, and a solver that takes one Gauss-Seidel
pass per penalty step freezes at the wrong split once the penalty caps: the
no-attribute cross-check and masked holdout completion failed that way.
Both solvers now sweep each penalty step's subproblem until it settles (the
exact augmented Lagrangian method), and both checks pass.

Default-instance recovery still fails on its masked residual alone (4.1e-4
against 1e-6; clean error 3.8e-3 and support F1 0.972 pass). On hidden
cells that residual is the model's completion error against the clean
values X stores there, so the bound asks for exact recovery of the planted
instance, which the solver does not reach at the default lam: the sparse
part still holds some clean cells (support precision 0.946).
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import bundle_from_truth
from marc.dataset import AttributeSchema, TrainingSet, columns_of, materialize_h
from marc.formats import load_bundle, read_matrix, save_bundle, write_matrix
from marc.proxops import (
    RankRule,
    deterministic_svd,
    procrustes,
    shrink_matrix,
    svt,
)
from marc.reconstructor import ReconConfig, TransferSpec, build_span, reconstruct
from marc.synthbench import (
    default_spec,
    generate,
    holdout_sample,
    procrustes_sampling_oracle,
    recovery_metrics,
    rpca_reference,
)
from marc.trainer import SolverConfig, error_residual, train


def verdict(name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def fresh_invariants() -> dict:
    return {"max_orthonormality_dev": 0.0, "hidden_exact": True,
            "sharing_exact": True, "iterations": 0}


def train_observer(ts, inv):
    """Collect the per-iteration structural invariants during training."""
    hidden = ~ts.visible

    def watch(state, t):
        inv["iterations"] += 1
        for basis in state.bases:
            gram = basis.T @ basis
            dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
            if dev > inv["max_orthonormality_dev"]:
                inv["max_orthonormality_dev"] = dev
        if hidden.any():
            aug = error_residual(state, ts) - state.sparse_error
            if np.any(aug[hidden] != 0.0):
                inv["hidden_exact"] = False
        for i in range(ts.schema.count):
            h = materialize_h(state.bank, ts, i)
            for j in range(ts.schema.size(i)):
                cols = columns_of(ts, i, j)
                if not np.all(h[:, cols] == state.bank.selectors[i][:, j][:, None]):
                    inv["sharing_exact"] = False

    return watch


def recon_observer(y_in, w, bundle, inv):
    hidden = w == 0.0
    span = build_span(bundle, RankRule.energy_fraction(0.99))

    def watch(state, t):
        inv["iterations"] += 1
        shared = np.zeros(y_in.size)
        for k, basis in enumerate(bundle.bases):
            shared += basis @ state.selectors[k]
        residual = y_in - shared - span @ state.indiv_coeffs + state.dual / state.mu
        if np.any(state.sparse_error[hidden] != residual[hidden]):
            inv["hidden_exact"] = False

    return watch


@pytest.fixture(scope="module")
def stock_run():
    """The stock planted instance trained once at the pinned defaults, with
    the invariant observer attached."""
    ts, truth = generate(default_spec())
    inv = fresh_invariants()
    start = time.perf_counter()
    bundle = train(ts, SolverConfig(), observer=train_observer(ts, inv))
    wall = time.perf_counter() - start
    return {"ts": ts, "truth": truth, "bundle": bundle, "wall": wall, "inv": inv}


@pytest.fixture(scope="module")
def degenerate_run():
    """No-attribute instance (100x80, rank 3, 10% gross corruption, fully
    observed) solved by the trainer and by the self-contained reference."""
    rng = np.random.default_rng(11)
    low_rank = rng.standard_normal((100, 3)) @ rng.standard_normal((3, 80))
    spikes = np.where(rng.random((100, 80)) < 0.10,
                      5.0 * np.sign(rng.standard_normal((100, 80))), 0.0)
    X = low_rank + spikes
    ts = TrainingSet(AttributeSchema.of([]), X, np.ones_like(X), ())
    inv = fresh_invariants()
    start = time.perf_counter()
    bundle = train(ts, SolverConfig(), observer=train_observer(ts, inv))
    ref_low, _ = rpca_reference(X)
    wall = time.perf_counter() - start
    return {"low_rank": low_rank, "bundle": bundle, "ref_low": ref_low,
            "wall": wall, "inv": inv}


@pytest.fixture(scope="module")
def completion_run(stock_run):
    """A held-out vector from the stock planted model, 30% hidden, completed
    freely against the exact planted factors."""
    truth = stock_run["truth"]
    bundle = bundle_from_truth(truth)
    build_span(bundle, RankRule.energy_fraction(0.99))
    ho = holdout_sample(truth, seed=23, missing_frac=0.3)
    y_in = ho.y * ho.mask  # hidden entries are unknown to the solver
    inv = fresh_invariants()
    start = time.perf_counter()
    result = reconstruct(y_in, ho.mask, bundle, config=ReconConfig(),
                         observer=recon_observer(y_in, ho.mask, bundle, inv))
    wall = time.perf_counter() - start
    return {"holdout": ho, "bundle": bundle, "result": result, "wall": wall,
            "inv": inv}


def test_operator_identities_hold_in_bulk():
    rng = np.random.default_rng(100)
    start = time.perf_counter()

    shrink_bad = 0
    for _ in range(1000):
        x = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9))) \
            * 10.0 ** rng.integers(-3, 4)
        tau = float(rng.uniform(0, 2.0))
        out = shrink_matrix(x, tau)
        if not (np.array_equal(np.abs(out), np.maximum(np.abs(x) - tau, 0.0))
                and np.all(np.sign(out[out != 0]) == np.sign(x[out != 0]))):
            shrink_bad += 1

    svt_bad = 0
    for _ in range(1000):
        m = rng.standard_normal((rng.integers(2, 11), rng.integers(2, 9)))
        tau = float(rng.uniform(0, 1.5))
        expected = np.maximum(np.linalg.svd(m, compute_uv=False) - tau, 0.0)
        got = np.linalg.svd(svt(m, tau), compute_uv=False)
        if not np.allclose(got, expected, rtol=1e-9, atol=1e-12):
            svt_bad += 1

    ortho_dev = 0.0
    for _ in range(1000):
        m = rng.standard_normal((rng.integers(2, 9), rng.integers(2, 9)))
        q = procrustes(m)
        k = min(m.shape)
        gram = q.T @ q if m.shape[0] >= m.shape[1] else q @ q.T
        ortho_dev = max(ortho_dev, float(np.max(np.abs(gram - np.eye(k)))))
        u, s, vh = deterministic_svd(m)
        if not np.allclose((u * s) @ vh, m, atol=1e-10):
            ortho_dev = math.inf

    wall = time.perf_counter() - start
    ok = shrink_bad == 0 and svt_bad == 0 and ortho_dev <= 1e-10 and wall < 10
    line = verdict(
        "operator-identities", ok,
        f"1000 cases each: shrink mismatches={shrink_bad}, "
        f"svt mismatches={svt_bad} (rtol 1e-9), "
        f"orthonormality dev={ortho_dev:.2e} (need <=1e-10), "
        f"wall={wall:.1f}s (need <10)")
    assert ok, line


def test_rotation_fit_beats_sampling():
    rng = np.random.default_rng(200)
    start = time.perf_counter()
    worst_gap = -math.inf
    for case in range(20):
        a = rng.standard_normal((3, 6))
        b = rng.standard_normal((5, 6))
        closed = float(np.linalg.norm(procrustes(b @ a.T) @ a - b))
        sampled = procrustes_sampling_oracle(a, b, n_samples=10000, seed=case)
        worst_gap = max(worst_gap, closed - sampled)
    wall = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and wall < 30
    line = verdict(
        "rotation-fit-optimality", ok,
        f"20 cases x 10000 samples: max(closed - sampled)={worst_gap:.3e} "
        f"(need <=1e-9), wall={wall:.1f}s (need <30)")
    assert ok, line


def test_default_instance_recovery(stock_run):
    bundle = stock_run["bundle"]
    report = recovery_metrics(bundle, stock_run["truth"])
    res = bundle.diagnostics.final_residual
    wall = stock_run["wall"]
    ok = (res <= 1e-6 and report.clean_rel_err_observed <= 5e-2
          and report.support_f1 >= 0.90 and wall < 60)
    line = verdict(
        "default-instance-recovery", ok,
        f"residual={res:.3e} (need <=1e-6), "
        f"clean_err_observed={report.clean_rel_err_observed:.3e} (need <=5e-2), "
        f"support_f1={report.support_f1:.3f} (need >=0.90), "
        f"wall={wall:.1f}s (need <60); "
        f"converged={bundle.diagnostics.converged} at "
        f"iteration {bundle.diagnostics.iterations}")
    assert ok, line


def test_no_attribute_mode_matches_reference_solver(degenerate_run):
    got = degenerate_run["bundle"].individual
    ref = degenerate_run["ref_low"]
    rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    wall = degenerate_run["wall"]
    ok = rel <= 1e-3 and wall < 30
    line = verdict(
        "no-attribute-cross-check", ok,
        f"low-rank disagreement={rel:.3e} (need <=1e-3), "
        f"wall={wall:.1f}s (need <30)")
    assert ok, line


def test_masked_holdout_completion(completion_run, stock_run):
    ho = completion_run["holdout"]
    recon = completion_run["result"].reconstruction
    hidden = ho.mask == 0.0
    rel = float(np.linalg.norm(recon[hidden] - ho.clean[hidden])
                / np.linalg.norm(ho.clean[hidden]))
    wall = completion_run["wall"]

    # informational only: same completion against the trained bundle, which
    # stacks the training failure on top of the reconstruction one
    trained = dataclasses.replace(stock_run["bundle"])
    build_span(trained, RankRule.energy_fraction(0.99))
    via_trained = reconstruct(ho.y * ho.mask, ho.mask, trained,
                              config=ReconConfig()).reconstruction
    rel_trained = float(np.linalg.norm(via_trained[hidden] - ho.clean[hidden])
                        / np.linalg.norm(ho.clean[hidden]))

    ok = rel <= 0.1 and wall < 5
    line = verdict(
        "masked-holdout-completion", ok,
        f"hidden-entry error={rel:.3e} (need <=0.1), "
        f"wall={wall:.1f}s (need <5); "
        f"for the record, via the trained bundle: {rel_trained:.3e}")
    assert ok, line


def test_self_transfer_matches_completion(stock_run):
    truth = stock_run["truth"]
    bundle = bundle_from_truth(truth)
    build_span(bundle, RankRule.energy_fraction(0.99))
    ho = holdout_sample(truth, seed=31, missing_frac=0.0, sparsity=0.0)
    spec = TransferSpec.targets(truth.schema, ho.labels)
    pinned = reconstruct(ho.y, None, bundle, spec=spec)
    free = reconstruct(ho.y, None, bundle)
    rel = float(np.linalg.norm(pinned.reconstruction - free.reconstruction)
                / np.linalg.norm(free.reconstruction))

    bitwise = True
    for i, mode in enumerate(spec.pinned):
        own = bundle.bases[i] @ bundle.bank.selectors[i][:, mode]
        if not np.array_equal(bundle.bases[i] @ pinned.selectors[i], own):
            bitwise = False
    ok = rel <= 1e-6 and bitwise
    line = verdict(
        "self-transfer-consistency", ok,
        f"pinned-vs-free disagreement={rel:.3e} (need <=1e-6), "
        f"pinned components bitwise={bitwise}")
    assert ok, line


def test_per_iteration_invariants(stock_run, degenerate_run, completion_run):
    checks = []
    for name, run in (("training", stock_run), ("no-attribute", degenerate_run)):
        inv = run["inv"]
        mu = run["bundle"].diagnostics.mu_history
        monotone = all(b == min(1.2 * a, 1e7) for a, b in zip(mu, mu[1:]))
        checks.append((name, inv["max_orthonormality_dev"] <= 1e-8
                       and inv["hidden_exact"] and inv["sharing_exact"]
                       and monotone and inv["iterations"] == len(mu)))
    inv = completion_run["inv"]
    mu = completion_run["result"].diagnostics.mu_history
    monotone = all(b == min(1.2 * a, 1e7) for a, b in zip(mu, mu[1:]))
    checks.append(("completion", inv["hidden_exact"] and monotone
                   and inv["iterations"] == len(mu)))
    ok = all(flag for _, flag in checks)
    dev = stock_run["inv"]["max_orthonormality_dev"]
    line = verdict(
        "per-iteration-invariants", ok,
        f"runs={[name for name, _ in checks]}, all pass={ok}; "
        f"max orthonormality dev={dev:.2e} (need <=1e-8), hidden-entry "
        f"residuals exactly zero, selector sharing bitwise, penalty monotone")
    assert ok, line


def test_determinism_and_round_trips(stock_run, tmp_path):
    first = stock_run["bundle"]
    second = train(stock_run["ts"], SolverConfig())
    same = (
        all(np.array_equal(a, b) for a, b in zip(first.bases, second.bases))
        and all(np.array_equal(a, b) for a, b in
                zip(first.bank.selectors, second.bank.selectors))
        and np.array_equal(first.individual, second.individual)
        and np.array_equal(first.sparse_error, second.sparse_error)
        and first.diagnostics == second.diagnostics
    )
    save_bundle(tmp_path / "bundle", first)
    back = load_bundle(tmp_path / "bundle")
    round_trip = (
        back.schema == first.schema and back.config == first.config
        and back.diagnostics == first.diagnostics
        and all(np.array_equal(a, b) for a, b in zip(first.bases, back.bases))
        and all(np.array_equal(a, b) for a, b in
                zip(first.bank.selectors, back.bank.selectors))
        and np.array_equal(first.individual, back.individual)
        and np.array_equal(first.sparse_error, back.sparse_error)
    )
    write_matrix(tmp_path / "m.marc", first.individual)
    matrix_trip = read_matrix(tmp_path / "m.marc").tobytes() \
        == first.individual.tobytes()
    ok = same and round_trip and matrix_trip
    line = verdict(
        "determinism-and-round-trips", ok,
        f"repeat run bitwise={same}, bundle round-trip bitwise={round_trip}, "
        f"matrix round-trip bit-exact={matrix_trip}")
    assert ok, line


def test_penalty_schedule_conformance(stock_run):
    ts = stock_run["ts"]
    mu = stock_run["bundle"].diagnostics.mu_history
    start_exact = mu[0] == 25.0 / float(np.linalg.norm(ts.X, 2))
    steps_exact = all(b == min(1.2 * a, 1e7) for a, b in zip(mu, mu[1:]))
    capped = mu[-1] == 1e7
    ok = start_exact and steps_exact and capped
    line = verdict(
        "penalty-schedule-conformance", ok,
        f"start bitwise={start_exact}, every step min(1.2*mu, 1e7)="
        f"{steps_exact}, cap reached={capped}, {len(mu)} iterations")
    assert ok, line
