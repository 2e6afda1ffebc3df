"""Training loop and its step functions, each checked against an
independently coded oracle where one exists (least squares for the selector
step, sampled rotations for the basis step, a direct SVD computation for the
individual step)."""
import dataclasses
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from marc import dataset, proxops, trainer
from marc.dataset import AttributeSchema, Sample, SelectorBank, TrainingSet, assemble, columns_of, materialize_h
from marc.errors import NumericalError, ValidationError
from marc.formats import save_bundle
from marc.proxops import random_orthonormal
from marc.synthbench import SynthSpec, default_spec, generate
from marc.trainer import (
    Schedule,
    SolverConfig,
    TrainState,
    attribute_residual,
    attribute_sums,
    constraint_residual,
    cooccurrence,
    error_residual,
    indicator,
    label_space,
    normalized_residual,
    shared_component,
    shared_sum,
    train,
    update_duals,
    update_e,
    update_f,
    update_g,
    update_h,
)


def make_state(ts, seed=0, mu=0.7, lam=0.1):
    """A fully populated random solver state for step-level tests."""
    rng = np.random.default_rng(seed)
    return TrainState(
        config=SolverConfig(),
        bases=[random_orthonormal(ts.dim, ts.schema.size(i), rng)
               for i in range(ts.schema.count)],
        bank=SelectorBank([rng.standard_normal((ts.schema.size(i), ts.schema.size(i)))
                           for i in range(ts.schema.count)]),
        individual=0.3 * rng.standard_normal(ts.X.shape),
        sparse_error=0.3 * rng.standard_normal(ts.X.shape),
        dual=0.3 * rng.standard_normal(ts.X.shape),
        mu=mu,
        lam=lam,
    )


def three_attribute_instance():
    """A wide instance with three attributes of 4, 8 and 16 labels."""
    schema = AttributeSchema.of([(f"attr{i}", [f"l{j}" for j in range(m)])
                                 for i, m in enumerate((4, 8, 16))])
    ts, _ = generate(SynthSpec(schema=schema, dim=16, count=64, rank_g=2, seed=8))
    return ts


def gathered_shared(state, ts, exclude=None):
    """sum_k F_k H_k gathered and added attribute by attribute, in schema
    order: the reference `shared_sum` is checked against."""
    total = np.zeros_like(ts.X)
    for k, (basis, sel) in enumerate(zip(state.bases, state.bank.selectors)):
        if k != exclude:
            total += (basis @ sel)[:, ts.label_index[k]]
    return total


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert (cfg.eps, cfg.t_max, cfg.rho, cfg.mu_max) == (1e-7, 1000, 1.2, 1e7)
        assert cfg.mu0_scale == 25.0
        assert cfg.lam is None

    def test_effective_lam(self):
        assert SolverConfig().effective_lam(200, 60) == 1.0 / math.sqrt(200)
        assert SolverConfig().effective_lam(10, 40) == 1.0 / math.sqrt(40)
        assert SolverConfig(lam=0.05).effective_lam(200, 60) == 0.05

    @pytest.mark.parametrize("bad", [
        dict(lam=-1.0), dict(lam=0.0), dict(eps=0.0), dict(t_max=0),
        dict(rho=1.0), dict(mu_max=0.0), dict(mu0_scale=0.0),
        dict(seed=-1), dict(seed=True), dict(seed=1.0), dict(seed="0"),
        dict(t_max=2.5), dict(t_max=True),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValidationError):
            SolverConfig(**bad)

    def test_seed_message(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
            SolverConfig(seed=-1)
        assert SolverConfig(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("bad", [
        dict(lam=0.0), dict(eps=0.0), dict(t_max=0), dict(rho=1.0),
        dict(mu_max=0.0), dict(mu0_scale=float("nan")),
    ])
    def test_schedule_checks_itself_when_built(self, bad):
        with pytest.raises(ValidationError):
            Schedule(**bad)


class TestStepFunctions:
    def test_shared_component_exclusion(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=1)
        full = shared_component(state, ts)
        for i in range(ts.schema.count):
            own = state.bases[i] @ materialize_h(state.bank, ts, i)
            assert np.allclose(full - shared_component(state, ts, exclude=i), own,
                               atol=1e-12)

    def test_attribute_residual_formula(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=2)
        expect = ts.X.copy()
        for k in range(ts.schema.count):
            if k != 1:
                expect -= state.bases[k] @ materialize_h(state.bank, ts, k)
        expect -= state.individual + state.sparse_error
        expect += state.dual / state.mu
        assert np.allclose(attribute_residual(state, ts, 1), expect, atol=1e-12)

    def test_update_h_matches_least_squares_oracle(self, small_instance):
        """The selector step must solve min_h sum_cols ||R_c - F h||^2; the
        oracle stacks the columns and calls lstsq instead of using the
        orthonormal shortcut."""
        ts, _ = small_instance
        state = make_state(ts, seed=3)
        for attr in range(ts.schema.count):
            residual = attribute_residual(state, ts, attr)
            got = update_h(state, ts, attr, residual @ indicator(ts, attr))
            m = ts.schema.size(attr)
            assert got.shape == (m, m)
            assert got is state.bank.selectors[attr]
            for inst in range(m):
                cols = columns_of(ts, attr, inst)
                stacked_f = np.vstack([state.bases[attr]] * cols.size)
                stacked_r = residual[:, cols].T.reshape(-1)
                oracle, *_ = np.linalg.lstsq(stacked_f, stacked_r, rcond=None)
                assert np.allclose(got[:, inst], oracle, atol=1e-10)

    def test_update_f_beats_sampled_rotations(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=4)
        rng = np.random.default_rng(99)
        for attr in range(ts.schema.count):
            residual = attribute_residual(state, ts, attr)
            h = materialize_h(state.bank, ts, attr)
            before = np.linalg.norm(state.bases[attr] @ h - residual)
            new_f = update_f(state, attr, residual @ indicator(ts, attr))
            after = np.linalg.norm(new_f @ h - residual)
            assert after <= before + 1e-12
            assert np.allclose(new_f.T @ new_f, np.eye(h.shape[0]), atol=1e-10)
            for _ in range(40):
                q = random_orthonormal(ts.dim, h.shape[0], rng)
                assert after <= np.linalg.norm(q @ h - residual) + 1e-9

    def test_update_g_matches_direct_svd(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=5, mu=0.9)
        residual = ts.X - shared_component(state, ts) - state.sparse_error \
            + state.dual / state.mu
        got = update_g(state, residual)
        u, s, vh = np.linalg.svd(residual, full_matrices=False)
        expect = (u * np.maximum(s - 1.0 / 0.9, 0.0)) @ vh
        assert np.allclose(got, expect, atol=1e-12)
        before = np.linalg.svd(residual, compute_uv=False).sum()
        after = np.linalg.svd(got, compute_uv=False).sum()
        assert after <= before + 1e-12

    def test_update_e_masked_split(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=6)
        residual = error_residual(state, ts)
        got = update_e(state, ts, residual)
        tau = state.lam / state.mu
        shrunk = np.sign(residual) * np.maximum(np.abs(residual) - tau, 0.0)
        assert np.array_equal(got[ts.visible], shrunk[ts.visible])
        assert np.array_equal(got[~ts.visible], residual[~ts.visible])

    def test_update_e_zeroes_hidden_augmented_residual_exactly(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=7)
        update_e(state, ts, error_residual(state, ts))
        augmented = error_residual(state, ts) - state.sparse_error
        assert np.all(augmented[~ts.visible] == 0.0)

    def test_update_duals_closed_form(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=8, mu=5.0)
        fit = ts.X - shared_component(state, ts) - state.individual
        dual_before = state.dual.copy()
        update_duals(state, fit)
        assert np.array_equal(state.dual, dual_before + 5.0 * (fit - state.sparse_error))
        assert state.mu == min(1.2 * 5.0, 1e7)
        state.mu = 9.9e6
        update_duals(state, fit)
        assert state.mu == 1e7

    def test_indicator_is_one_hot(self, tiny_training_set):
        z = indicator(tiny_training_set, 0)
        assert np.array_equal(z, [[1, 0], [0, 1], [1, 0], [0, 1]])

    def test_shared_component_matches_materialized_product(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=11)
        expect = sum(state.bases[k] @ materialize_h(state.bank, ts, k)
                     for k in range(ts.schema.count))
        assert np.allclose(shared_component(state, ts), expect, atol=1e-12)

    def test_label_space_sums_match_the_attribute_residual(self):
        """On a wide instance with three attributes of 4, 8 and 16 labels,
        R Z_i formed in label space (co-occurrence counts and the products
        F_k S_k) equals the attribute residual times Z_i, and the shared sum
        from the same products is shared_component bitwise."""
        ts = three_attribute_instance()
        state = make_state(ts, seed=11)
        base = ts.X - state.individual - state.sparse_error + state.dual / state.mu
        products = [f @ sel for f, sel in zip(state.bases, state.bank.selectors)]
        zs = [indicator(ts, attr) for attr in range(ts.schema.count)]
        spread, blocks = label_space(ts)
        assert np.array_equal(spread, np.hstack(zs).T) and spread.flags.c_contiguous
        cooc = cooccurrence(spread, blocks)
        for attr, z in enumerate(zs):
            got = attribute_sums(base @ z, products, cooc, attr)
            expect = attribute_residual(state, ts, attr) @ z
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
            counts = np.bincount(ts.label_index[attr], minlength=ts.schema.size(attr))
            assert np.array_equal(cooc[attr][attr], np.diag(counts.astype(float)))
            for k, zk in enumerate(zs):
                assert np.array_equal(cooc[k][attr], zk.T @ z)
        assert np.array_equal(shared_sum(np.hstack(products), spread),
                              shared_component(state, ts))

    @pytest.mark.parametrize("sizes", [(), (3,), (2, 3), (4, 8, 16)],
                             ids=["none", "one", "two", "three"])
    def test_shared_sum_is_the_gather_and_add(self, sizes):
        """The one product [P_1 ... P_J] [Z_1 ... Z_J]^T, through
        shared_component with and without an excluded attribute, is the
        per-attribute gather-and-add: bitwise with up to two attributes,
        to 1e-15 relative with three; zeros with none. shared_sum of the
        stacked products is shared_component bitwise."""
        schema = AttributeSchema.of([(f"attr{i}", [f"l{j}" for j in range(m)])
                                     for i, m in enumerate(sizes)])
        rng = np.random.default_rng(len(sizes))
        labels = tuple(rng.permutation(np.arange(64) % m) for m in sizes)
        X = rng.standard_normal((16, 64))
        ts = TrainingSet(schema, X, np.ones_like(X), labels)
        state = make_state(ts, seed=12)
        for exclude in [None, *range(len(sizes))]:
            got = shared_component(state, ts, exclude)
            expect = gathered_shared(state, ts, exclude)
            assert got.shape == ts.X.shape
            if len(sizes) <= 2:
                assert np.array_equal(got, expect)
            else:
                assert np.linalg.norm(got - expect) <= 1e-15 * np.linalg.norm(expect)
        spread, blocks = label_space(ts)
        assert [block.stop - block.start for block in blocks] == list(sizes)
        products = [f @ sel for f, sel in zip(state.bases, state.bank.selectors)]
        stacked = np.hstack(products) if products else np.zeros((ts.dim, 0))
        assert np.array_equal(shared_sum(stacked, spread), shared_component(state, ts))
        if not sizes:
            assert np.array_equal(shared_component(state, ts), np.zeros_like(ts.X))

    def test_residual_definitions(self, small_instance):
        ts, _ = small_instance
        state = make_state(ts, seed=9)
        fit = ts.X - shared_component(state, ts) - state.individual
        gap_masked = fit - ts.W * state.sparse_error
        gap_full = fit - state.sparse_error
        norm_x = np.linalg.norm(ts.X)
        assert np.isclose(normalized_residual(state, ts, norm_x, fit),
                          np.linalg.norm(gap_masked) / norm_x)
        assert np.isclose(constraint_residual(state, ts, norm_x, fit),
                          np.linalg.norm(gap_full) / norm_x)


class TestTrainLoop:
    def test_zero_input_returns_zero_bundle(self):
        schema = AttributeSchema.of([("kind", ["a", "b"])])
        samples = [Sample(np.zeros(5), {"kind": "a"}),
                   Sample(np.zeros(5), {"kind": "b"})]
        bundle = train(assemble(schema, samples))
        assert bundle.diagnostics.iterations == 0
        assert bundle.diagnostics.converged
        assert bundle.diagnostics.final_residual == 0.0
        assert bundle.diagnostics.mu_history == []
        assert bundle.diagnostics.stop_reason == "converged"
        assert not np.any(bundle.individual)
        assert not np.any(bundle.sparse_error)
        assert all(not np.any(b) for b in bundle.bases)

    def test_exactly_representable_instance_converges(self):
        schema = AttributeSchema.of([("shape", ["round", "square"]),
                                     ("tint", ["warm", "cool", "none"])])
        spec = SynthSpec(schema=schema, dim=40, count=24, rank_g=0,
                         sparsity=0.0, missing_frac=0.0, seed=5)
        ts, _ = generate(spec)
        bundle = train(ts)
        assert bundle.diagnostics.converged
        assert bundle.diagnostics.final_residual <= 1e-7
        assert bundle.diagnostics.iterations < 1000

    def test_determinism_is_bitwise(self, small_instance):
        ts, _ = small_instance
        cfg = SolverConfig(t_max=60)
        one = train(ts, cfg)
        two = train(ts, cfg)
        for a, b in zip(one.bases, two.bases):
            assert np.array_equal(a, b)
        for a, b in zip(one.bank.selectors, two.bank.selectors):
            assert np.array_equal(a, b)
        assert np.array_equal(one.individual, two.individual)
        assert np.array_equal(one.sparse_error, two.sparse_error)
        assert one.diagnostics.residual_history == two.diagnostics.residual_history

    @pytest.mark.parametrize("shape", ["stock", "labels"])
    def test_warm_g_step_trains_the_same_model(self, shape, default_instance, tmp_path,
                                               monkeypatch):
        """The G step's warm path changes a full run only at rounding
        level: the same steps and stop, G and E within 1e-10 ||X||_F and
        bases within 1e-9 of a run with the warm path switched off, bitwise
        repeatable, and no basis reaches the saved bundle."""
        if shape == "stock":
            ts, _ = default_instance
        else:
            schema = AttributeSchema.of([
                (f"attr{i}", [f"{prefix}{j}" for j in range(1, m + 1)])
                for i, (prefix, m) in enumerate((("a", 8), ("b", 16), ("c", 32)), start=1)])
            ts, _ = generate(dataclasses.replace(default_spec(), schema=schema, dim=64,
                                                 count=256, seed=11))
        warmed = Counter()
        original = proxops._warm_factors

        def counted(*args):
            found = original(*args)
            warmed[found is not None] += 1
            return found

        monkeypatch.setattr(proxops, "_warm_factors", counted)
        warm, again = train(ts), train(ts)
        assert warmed[True] > 2 * warmed[False] > 0
        monkeypatch.setattr(proxops, "_warm_factors", lambda *args: None)
        cold = train(ts)

        scale = float(np.linalg.norm(ts.X))
        assert np.abs(warm.individual - cold.individual).max() <= 1e-10 * scale
        assert np.abs(warm.sparse_error - cold.sparse_error).max() <= 1e-10 * scale
        for a, b in zip(warm.bases, cold.bases):
            assert np.abs(a - b).max() <= 1e-9
        for field in ("iterations", "stop_reason", "mu_history"):
            assert getattr(warm.diagnostics, field) == getattr(cold.diagnostics, field)
        for a, b in zip(warm.bases + warm.bank.selectors + [warm.individual, warm.sparse_error],
                        again.bases + again.bank.selectors + [again.individual, again.sparse_error]):
            assert np.array_equal(a, b)
        assert warm.diagnostics == again.diagnostics

        save_bundle(tmp_path / "warm", warm)
        save_bundle(tmp_path / "cold", cold)
        names = sorted(p.name for p in (tmp_path / "warm").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert (tmp_path / "warm" / "config.json").read_bytes() \
            == (tmp_path / "cold" / "config.json").read_bytes()

    def test_non_convergence_is_flagged_not_raised(self, small_instance):
        ts, _ = small_instance
        bundle = train(ts, SolverConfig(t_max=2))
        assert not bundle.diagnostics.converged
        assert bundle.diagnostics.iterations == 2
        assert bundle.diagnostics.stop_reason == "t_max"

    def test_mu_schedule_and_cap_count(self, small_instance):
        ts, _ = small_instance
        cfg = SolverConfig(t_max=120)
        bundle = train(ts, cfg)
        mu = bundle.diagnostics.mu_history
        mu0 = 25.0 / np.linalg.norm(ts.X, 2)
        assert mu[0] == mu0
        for prev, cur in zip(mu, mu[1:]):
            assert cur == min(1.2 * prev, 1e7)
            assert cur >= prev
        cap_step = math.ceil(math.log(1e7 * np.linalg.norm(ts.X, 2) / 25.0)
                             / math.log(1.2))
        assert mu[cap_step] == 1e7
        assert mu[cap_step - 1] < 1e7

    def test_penalty_start_is_capped_at_mu_max(self, small_instance):
        """With mu_max below mu0_scale / ||X||_2 the run starts at mu_max,
        with mu a float, and mu never decreases or passes the cap."""
        ts, _ = small_instance
        cap = 0.5 * 25.0 / float(np.linalg.norm(ts.X, 2))
        kinds = []
        d = train(ts, SolverConfig(mu_max=cap, t_max=5),
                  observer=lambda state, t: kinds.append(type(state.mu))).diagnostics
        assert set(kinds) == {float}
        assert d.mu_history == [cap] * d.iterations

    def test_stalled_run_stops_after_the_cap_step(self, small_instance):
        """Once mu sits at mu_max and the masked residual moves too slowly to
        reach eps by t_max, training stops, flagged as not converged, well
        before t_max."""
        ts, _ = small_instance
        bundle = train(ts, SolverConfig())
        d = bundle.diagnostics
        cap_step = math.ceil(math.log(1e7 * np.linalg.norm(ts.X, 2) / 25.0)
                             / math.log(1.2))
        assert not d.converged
        assert d.stop_reason == "stalled"
        assert d.final_residual > 1e-7
        assert d.iterations == cap_step + 1
        assert d.mu_history[-1] == 1e7 and d.mu_history[-2] < 1e7
        moved = abs(d.residual_history[-1] - d.residual_history[-2])
        assert moved * (1000 - d.iterations) < d.final_residual - 1e-7

    def test_sweeps_drop_to_one_once_the_split_settles(self, small_instance, monkeypatch):
        """Measured sweep counts of the default run: the first 24 penalty
        steps use all INNER_SWEEPS, every later one a single sweep, so the
        inner tolerance and not the cap ends most steps."""
        ts, _ = small_instance
        calls = Counter()
        real = trainer.update_g

        def counted(*args, **kwargs):
            calls["sweeps"] += 1
            return real(*args, **kwargs)

        per_step = []

        def watch(state, t):
            per_step.append(calls["sweeps"])
            calls["sweeps"] = 0

        monkeypatch.setattr(trainer, "update_g", counted)
        d = train(ts, SolverConfig(), observer=watch).diagnostics
        assert len(per_step) == d.iterations == 86
        assert per_step[:24] == [trainer.INNER_SWEEPS] * 24
        assert per_step[24:] == [1] * (d.iterations - 24)

    @pytest.mark.parametrize("t_max, converged, iterations", [(50, True, 15), (13, False, 12)])
    def test_stall_stop_looks_ahead_to_t_max(self, small_instance, monkeypatch,
                                             t_max, converged, iterations):
        """A capped run whose residual sits just above eps and falls by less
        than eps per step converges when t_max leaves it the steps to get
        there, and stalls only when it does not."""
        ts, _ = small_instance
        script = iter([0.5**k for k in range(10)] + [3e-7, 2.4e-7, 1.8e-7, 1.2e-7, 6e-8])
        monkeypatch.setattr(trainer, "normalized_residual", lambda *_: next(script))
        d = train(ts, SolverConfig(mu_max=1.0, t_max=t_max)).diagnostics
        assert d.mu_history[-1] == 1.0
        assert d.converged is converged
        assert d.stop_reason == ("converged" if converged else "stalled")
        assert d.iterations == iterations

    @pytest.mark.parametrize("t_max, reason, iterations",
                             [(3, "t_max", 3), (90, "t_max", 90), (1000, "stalled", 90)])
    def test_stop_reason_of_the_stock_run(self, default_instance, t_max, reason, iterations):
        """The stock run stalls at iteration 90. With t_max=90 that stall
        step is also the last step, and the run counts as stopped at t_max;
        the record is otherwise the stalled run's."""
        ts, _ = default_instance
        d = train(ts, SolverConfig(t_max=t_max)).diagnostics
        assert (d.stop_reason, d.iterations, d.converged) == (reason, iterations, False)
        if t_max == 90:
            stalled = train(ts, SolverConfig()).diagnostics
            assert dataclasses.replace(d, stop_reason="stalled") == stalled

    def test_no_attribute_instance_stops_converged(self):
        """The no-attribute instance of the acceptance cross-check (100x80,
        rank 3, 10% gross corruption, fully observed) reaches eps."""
        rng = np.random.default_rng(11)
        low_rank = rng.standard_normal((100, 3)) @ rng.standard_normal((3, 80))
        spikes = np.where(rng.random((100, 80)) < 0.10,
                          5.0 * np.sign(rng.standard_normal((100, 80))), 0.0)
        X = low_rank + spikes
        d = train(TrainingSet(AttributeSchema.of([]), X, np.ones_like(X), ())).diagnostics
        assert d.stop_reason == "converged" and d.converged
        assert d.final_residual <= 1e-7
        assert d.iterations == 9

    def test_observer_sees_every_iteration(self, small_instance):
        ts, _ = small_instance
        seen = []

        def watch(state, t):
            seen.append(t)
            for basis in state.bases:
                gram = basis.T @ basis
                assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

        bundle = train(ts, SolverConfig(t_max=15), observer=watch)
        assert seen == list(range(bundle.diagnostics.iterations))

    def test_arrays_handed_to_the_observer_are_never_written_again(self, small_instance):
        """The sweep works in buffers of its own: every array the state
        holds at an observer call (G, E, the dual, each basis and each
        selector block) still equals its copy from that call after the
        whole run, on the two-attribute instance and on a three-attribute
        one."""
        for ts in (small_instance[0], three_attribute_instance()):
            kept = []

            def keep(state, t):
                arrays = [state.individual, state.sparse_error, state.dual,
                          *state.bases, *state.bank.selectors]
                kept.extend((a, a.copy()) for a in arrays)

            bundle = train(ts, observer=keep)
            assert len(kept) == bundle.diagnostics.iterations * (3 + 2 * ts.schema.count)
            for array, copy in kept:
                assert np.array_equal(array, copy)

    def test_histories_align_with_iterations(self, small_instance):
        ts, _ = small_instance
        bundle = train(ts, SolverConfig(t_max=10))
        d = bundle.diagnostics
        assert len(d.residual_history) == d.iterations
        assert len(d.residual_history_unmasked) == d.iterations
        assert len(d.mu_history) == d.iterations
        assert d.final_residual == d.residual_history[-1]

    def test_iteration_work_is_bounded(self, small_instance, monkeypatch):
        """Per Gauss-Seidel sweep (one G step each): one SVT, through the
        warm or the Gram path, never the SVD, and no attribute residual,
        shared-component rebuild, per-instantiation column lookup or
        materialized selector (the sweep works in label space)."""
        ts, _ = small_instance
        calls = Counter()

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(trainer, "attribute_residual")
        spy(trainer, "shared_component")
        spy(trainer, "svt")
        spy(trainer, "update_g")
        spy(proxops, "_svt_svd")
        for name in ("columns_of", "materialize_h"):
            for module in (dataset, trainer):
                if hasattr(module, name):
                    spy(module, name)
        iterations = train(ts, SolverConfig(t_max=5)).diagnostics.iterations
        assert iterations == 5
        # Measured: each of the first five penalty steps runs every sweep
        # (test_sweeps_drop_to_one_once_the_split_settles covers the rest).
        sweeps = calls["update_g"]
        assert sweeps == trainer.INNER_SWEEPS * iterations
        assert calls["attribute_residual"] == 0
        assert calls["shared_component"] == 0
        assert calls["svt"] == sweeps
        assert calls["_svt_svd"] == 0
        assert calls["columns_of"] == 0
        assert calls["materialize_h"] == 0

    def test_loop_hands_each_step_its_reference_residual(self, small_instance, monkeypatch):
        """Every residual the sweep forms is bitwise the one the reference
        functions build from the state at that moment: the G step's
        X - shared - E + dual/mu, the E step's error_residual, and the fit
        X - shared - G that the residual measures (and the dual step) read,
        the measures with ||X||_F as their norm. So on the two-attribute
        instance and on a three-attribute one, whose shared sum BLAS may add
        in any order."""
        calls = Counter()

        def reference(state, name):
            shared = shared_component(state, ts)
            if name == "update_g":
                return ts.X - shared - state.sparse_error + state.dual / state.mu
            if name == "update_e":
                return error_residual(state, ts)
            return ts.X - shared - state.individual

        def spy(name):
            original = getattr(trainer, name)

            def checked(state, *args):
                assert np.array_equal(args[-1], reference(state, name)), name
                if name == "normalized_residual":
                    assert args[-2] == proxops.frobenius(ts.X)
                calls[name] += 1
                return original(state, *args)

            monkeypatch.setattr(trainer, name, checked)

        for name in ("update_g", "update_e", "normalized_residual"):
            spy(name)
        for ts in (small_instance[0], three_attribute_instance()):
            calls.clear()
            assert train(ts, SolverConfig(t_max=5)).diagnostics.iterations == 5
            sweeps = trainer.INNER_SWEEPS * 5
            assert calls == {"update_g": sweeps, "update_e": sweeps, "normalized_residual": 5}

    def test_the_last_step_takes_no_dual_step(self, small_instance, monkeypatch):
        """A run of t_max=5 steps takes a dual step after each of the first
        four alone: the fifth stops the run, and no bundle field reads the
        dual or penalty it would make."""
        calls = Counter()
        update = trainer.update_duals

        def counted(state, fit):
            calls["update_duals"] += 1
            update(state, fit)

        monkeypatch.setattr(trainer, "update_duals", counted)
        assert train(small_instance[0], SolverConfig(t_max=5)).diagnostics.iterations == 5
        assert calls["update_duals"] == 4

    def test_train_norms_the_data_once(self, default_instance, monkeypatch):
        """One train takes ||X||_F once, before its first step; the residual
        measures of every step divide by that norm."""
        ts, _ = default_instance
        normed = Counter()

        def counted(a):
            normed[a is ts.X] += 1
            return proxops.frobenius(a)

        monkeypatch.setattr(trainer, "frobenius", counted)
        train(ts)
        assert normed[True] == 1

    @pytest.mark.parametrize("scale, cause", [
        (1e150, "procrustes Gram overflows float64"),
        (1e160, "the norm of the training matrix overflows float64"),
    ])
    def test_overflow_is_a_numerical_error(self, scale, cause):
        """A training matrix with a finite norm whose basis step's Gram
        matrix overflows, and one whose norm overflows: each raises
        NumericalError naming that cause, with no numpy warning."""
        ts, _ = generate(dataclasses.replace(default_spec(), dim=30, count=12, seed=1))
        scaled = TrainingSet(ts.schema, ts.X * scale, ts.W, ts.label_index)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=f"training diverged at iteration 0: {cause}"):
                train(scaled, SolverConfig(t_max=50))

    def test_an_overflowing_norm_raises_before_any_step(self):
        """Finite entries whose norm overflows float64 raise NumericalError
        before the first step, with no numpy warning on the way."""
        ts, _ = generate(dataclasses.replace(default_spec(), dim=30, count=12, seed=1))
        X = ts.X.copy()
        X[:, 4] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="training diverged at iteration 0: the norm "
                                                     "of the training matrix overflows float64"):
                train(TrainingSet(ts.schema, X, ts.W, ts.label_index), SolverConfig(t_max=50))

    def test_lam_echoed_in_diagnostics(self, small_instance):
        ts, _ = small_instance
        bundle = train(ts, SolverConfig(t_max=2))
        assert bundle.diagnostics.lam_effective == 1.0 / math.sqrt(max(ts.dim, ts.count))
        bundle = train(ts, SolverConfig(t_max=2, lam=0.33))
        assert bundle.diagnostics.lam_effective == 0.33


class TestDegenerateMode:
    """With no attributes the loop must collapse to plain masked
    low-rank-plus-sparse iterations on the same penalty schedule."""

    def build(self, seed=17, missing=True):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 1)) @ rng.standard_normal((1, 14)) \
            + np.where(rng.random((3, 14)) < 0.1, 5.0, 0.0)
        W = np.where(rng.random((3, 14)) < 0.2, 0.0, 1.0) if missing else np.ones((3, 14))
        X = np.vstack([X] * 6)  # 18 x 14
        W = np.vstack([W] * 6)
        schema = AttributeSchema.of([])
        ts = TrainingSet(schema, X, W, ())
        return ts

    def test_matches_inline_reference_iteration(self):
        """Each penalty step sweeps G then E until a sweep moves G by at most
        INNER_TOL * ||X||_F (at most INNER_SWEEPS sweeps), then takes one
        dual step."""
        ts = self.build()
        t_max = 6
        bundle = train(ts, SolverConfig(t_max=t_max))

        X, W = ts.X, ts.W
        visible = W != 0.0
        lam = 1.0 / math.sqrt(max(X.shape))
        mu = 25.0 / np.linalg.norm(X, 2)
        tol = trainer.INNER_TOL * np.linalg.norm(X)
        G = np.zeros_like(X)
        E = np.zeros_like(X)
        dual = np.zeros_like(X)
        for _ in range(t_max):
            for _ in range(trainer.INNER_SWEEPS):
                u, s, vh = np.linalg.svd(X - E + dual / mu, full_matrices=False)
                G, previous = (u * np.maximum(s - 1.0 / mu, 0.0)) @ vh, G
                r = X - G + dual / mu
                shrunk = np.sign(r) * np.maximum(np.abs(r) - lam / mu, 0.0)
                E = np.where(visible, shrunk, r)
                if np.linalg.norm(G - previous) <= tol:
                    break
            dual = dual + mu * (X - G - E)
            mu = min(1.2 * mu, 1e7)

        assert np.allclose(bundle.individual, G, atol=1e-12)
        assert np.allclose(bundle.sparse_error, E, atol=1e-12)


def test_readme_quick_start_runs():
    """The Python quick start in README.md runs as printed and gives a
    finite fit and completion."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert math.isfinite(scope["bundle"].diagnostics.final_residual)
    assert np.all(np.isfinite(scope["filled"]))
