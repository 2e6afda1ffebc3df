"""Per-vector reconstruction: contracts and recovery at the default
configuration, and recovery quality at a gentle penalty start
(mu0_scale=1.25). The planted-model fixtures make the correct answer known
in closed form."""
import ast
import dataclasses
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bundle_from_truth
from marc import decode as decoder, proxops
from marc import reconstructor, trainer
from marc.dataset import AttributeSchema, SelectorBank
from marc.errors import DegenerateMatrixError, NumericalError, ValidationError
from marc.formats import load_bundle, save_bundle
from marc.proxops import RankRule, sorted_gap
from marc.reconstructor import (
    ReconConfig,
    TransferSpec,
    build_span,
    complete,
    reconstruct,
    reconstruct_many,
    synthesize,
    transfer,
)
from marc.synthbench import SynthSpec, generate, holdout_sample
from marc.trainer import TrainDiagnostics


@pytest.fixture(scope="module")
def planted():
    """Small planted model, its bundle, an in-model vector, and its pieces."""
    schema = AttributeSchema.of([("shape", ["round", "square"]),
                                 ("tint", ["warm", "cool", "none"])])
    spec = SynthSpec(schema=schema, dim=40, count=24, rank_g=2,
                     sparsity=0.04, missing_frac=0.1, noise_amp=5.0, seed=3)
    _, truth = generate(spec)
    bundle = bundle_from_truth(truth)
    span = build_span(bundle, RankRule.fixed(2))
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(2)
    y = truth.bases[0] @ truth.bank.selectors[0][:, 1] \
        + truth.bases[1] @ truth.bank.selectors[1][:, 0] \
        + span @ coeffs
    return truth, bundle, y, rng


GENTLE = dict(rank_rule=RankRule.fixed(2), mu0_scale=1.25)


class TestValidation:
    def test_config_fields(self):
        for bad in (dict(lam=0.0), dict(eps=-1.0), dict(t_max=0),
                    dict(rho=0.5), dict(mu_max=0.0), dict(mu0_scale=-2.0)):
            with pytest.raises(ValidationError):
                ReconConfig(**bad)

    @pytest.mark.parametrize("bad", [dict(rho=1.0), dict(t_max=0), dict(mu_max=float("inf")),
                                     dict(rank_rule=0.9)])
    def test_config_checks_itself_when_built(self, bad):
        with pytest.raises(ValidationError):
            dataclasses.replace(ReconConfig(), **bad)

    def test_vector_shape_and_content(self, planted):
        _, bundle, y, _ = planted
        with pytest.raises(ValidationError, match="length 39"):
            reconstruct(y[:-1], None, bundle)
        bad = y.copy()
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            reconstruct(bad, None, bundle)

    def test_mask_must_be_binary(self, planted):
        _, bundle, y, _ = planted
        w = np.ones_like(y)
        w[0] = 0.5
        with pytest.raises(ValidationError, match="binary"):
            reconstruct(y, w, bundle)

    def test_spec_coverage_and_range(self, planted):
        _, bundle, y, _ = planted
        with pytest.raises(ValidationError, match="does not cover"):
            reconstruct(y, None, bundle, spec=TransferSpec((None,)))
        with pytest.raises(ValidationError, match="out of range"):
            reconstruct(y, None, bundle, spec=TransferSpec((None, 3)))
        # The spec is checked once per call, before any slice: an empty
        # block has none, and is checked all the same.
        empty = np.zeros((bundle.dim, 0))
        with pytest.raises(ValidationError, match="pinned instantiation 99 out of range"):
            reconstruct_many(empty, None, bundle, TransferSpec((99, None)))
        with pytest.raises(ValidationError, match="does not cover"):
            reconstruct_many(empty, None, bundle, TransferSpec((None,)))
        with pytest.raises(ValidationError, match="pinned instantiation must be an integer"):
            TransferSpec((True, None))

    def test_transfer_spec_by_name(self, planted):
        truth, _, _, _ = planted
        spec = TransferSpec.targets(truth.schema, {"tint": "cool"})
        assert spec.pinned == (None, 1)
        assert TransferSpec.all_free(truth.schema).pinned == (None, None)
        with pytest.raises(ValidationError):
            TransferSpec.targets(truth.schema, {"flavor": "cool"})
        with pytest.raises(ValidationError):
            TransferSpec.targets(truth.schema, {"tint": "lukewarm"})


class TestSpan:
    def test_zero_individual_has_no_span(self, planted):
        truth, _, _, _ = planted
        bundle = bundle_from_truth(truth)
        bundle = dataclasses.replace(bundle, individual=np.zeros_like(bundle.individual))
        with pytest.raises(DegenerateMatrixError, match="rank_rule=None"):
            build_span(bundle, ReconConfig().rank_rule)
        # An explicit rank finds no span either, so the message offers none.
        with pytest.raises(DegenerateMatrixError, match="rank_rule=None") as info:
            build_span(bundle, RankRule.fixed(2))
        assert "--rank" not in str(info.value) and "RankRule" not in str(info.value)

    def test_span_follows_each_rank_rule(self, planted):
        truth, _, y, _ = planted
        bundle = bundle_from_truth(truth)
        # One bundle, two rules in turn: each reconstruction takes its own.
        widths = [reconstruct(y, None, bundle,
                              config=ReconConfig(rank_rule=RankRule.fixed(r))).indiv_coeffs.size
                  for r in (5, 1)]
        assert widths == [5, 1]
        span = build_span(bundle, RankRule.fixed(2))
        assert span.shape == (40, 2)
        assert np.allclose(span.T @ span, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("rule", [
        RankRule.energy_fraction(0.5), RankRule.energy_fraction(0.99),
        RankRule.energy_fraction(1.0), RankRule.fixed(1), RankRule.fixed(2), RankRule.fixed(24),
    ], ids=lambda rule: f"energy-{rule.energy}" if rule.energy else f"explicit-{rule.explicit}")
    def test_the_stored_energy_prefix_cuts_the_spans_width(self, planted, tmp_path, rule):
        """`build_span` takes its width from the energy prefix the bundle
        computed once, next to its SVD, and cuts from that SVD, bitwise, the
        span a cut taken here from the squared singular values keeps; a
        saved bundle stores no prefix, and loads with the same one."""
        truth, _, _, _ = planted
        bundle = bundle_from_truth(truth)
        u, s, _ = bundle.individual_svd
        if rule.explicit is not None:
            width = rule.explicit
        else:
            rank_tol = max(truth.individual.shape) * np.finfo(float).eps * s[0]
            energies = np.cumsum(s[s > rank_tol] ** 2)
            width = int(np.argmax(energies >= rule.energy * energies[-1])) + 1
        assert build_span(bundle, rule).tobytes() == u[:, :width].copy().tobytes()
        save_bundle(tmp_path / "b", bundle)
        assert not any("energy" in p.name for p in (tmp_path / "b").iterdir())
        loaded = load_bundle(tmp_path / "b")
        assert loaded.individual_energy.tobytes() == bundle.individual_energy.tobytes()

    def test_no_rank_rule_skips_span_entirely(self, planted):
        truth, _, y, _ = planted
        bundle = bundle_from_truth(truth)
        bundle = dataclasses.replace(bundle, individual=np.zeros_like(bundle.individual))
        cfg = ReconConfig(rank_rule=None, mu0_scale=1.25)
        result = reconstruct(y, None, bundle, config=cfg)
        assert result.indiv_coeffs.size == 0
        assert result.diagnostics.iterations >= 1


class TestRecoveryAtGentleStart:
    def test_clean_fully_visible_vector_is_recovered(self, planted):
        _, bundle, y, _ = planted
        result = reconstruct(y, None, bundle, config=ReconConfig(**GENTLE))
        rel = np.linalg.norm(result.reconstruction - y) / np.linalg.norm(y)
        assert rel <= 1e-6
        assert np.linalg.norm(result.sparse_error) <= 1e-12
        assert result.diagnostics.converged

    def test_masked_vector_fills_hidden_entries(self, planted):
        _, bundle, y, _ = planted
        rng = np.random.default_rng(7)
        w = (rng.random(y.size) >= 0.3).astype(float)
        result = reconstruct(y * w, w, bundle, config=ReconConfig(**GENTLE))
        hidden = w == 0.0
        assert hidden.any()
        rel_hidden = np.linalg.norm(result.reconstruction[hidden] - y[hidden]) \
            / np.linalg.norm(y[hidden])
        assert rel_hidden <= 1e-6

    def test_spikes_land_in_the_sparse_part(self, planted):
        _, bundle, y, _ = planted
        rng = np.random.default_rng(13)
        e = np.zeros_like(y)
        e[rng.choice(y.size, 3, replace=False)] = np.array([5.0, -5.0, 5.0])
        result = reconstruct(y + e, None, bundle, config=ReconConfig(**GENTLE))
        assert np.linalg.norm(result.reconstruction - y) / np.linalg.norm(y) <= 1e-5
        assert np.linalg.norm(result.sparse_error - e) <= 1e-5

    def test_self_transfer_agrees_with_completion(self, planted):
        _, bundle, y, _ = planted
        cfg = ReconConfig(**GENTLE)
        pinned_own = transfer(y, None, bundle,
                              {"shape": "square", "tint": "warm"}, config=cfg)
        completed = complete(y, None, bundle, config=cfg)
        ny = np.linalg.norm(y)
        assert np.linalg.norm(pinned_own - completed) / ny <= 1e-6
        assert np.linalg.norm(pinned_own - y) / ny <= 1e-10

    def test_transfer_applies_planted_shift(self, planted):
        truth, bundle, y, _ = planted
        cfg = ReconConfig(**GENTLE)
        moved = transfer(y, None, bundle, {"tint": "cool"}, config=cfg)
        shift = truth.bases[1] @ (truth.bank.selectors[1][:, 1]
                                  - truth.bank.selectors[1][:, 0])
        assert np.linalg.norm(moved - (y + shift)) / np.linalg.norm(y) <= 1e-6


class TestRecoveryAtDefaults:
    """The pinned penalty start: the sparse part first absorbs clean signal,
    and the sweeps of each penalty step must hand it back."""

    def spiked_and_masked(self, y, seed):
        rng = np.random.default_rng(seed)
        e = np.zeros_like(y)
        e[rng.choice(y.size, 3, replace=False)] = np.array([5.0, -5.0, 5.0])
        w = (rng.random(y.size) >= 0.3).astype(float)
        w[e != 0.0] = 1.0
        return e, w

    @pytest.mark.parametrize("seed", range(8))
    def test_masked_spiked_vector_is_recovered(self, planted, seed):
        _, bundle, y, _ = planted
        e, w = self.spiked_and_masked(y, seed)
        result = reconstruct((y + e) * w, w, bundle,
                             config=ReconConfig(rank_rule=RankRule.fixed(2)))
        visible = w != 0.0
        assert result.diagnostics.converged
        assert np.linalg.norm(result.reconstruction - y) / np.linalg.norm(y) <= 1e-5
        assert np.linalg.norm((result.sparse_error - e)[visible]) <= 1e-5

    def test_nothing_free_and_nothing_visible(self, planted):
        truth, bundle, y, _ = planted
        spec = TransferSpec.targets(truth.schema, {"shape": "round", "tint": "cool"})
        cfg = ReconConfig(rank_rule=None)
        pinned = reconstruct(y, np.zeros_like(y), bundle, spec=spec, config=cfg)
        expect = truth.bases[0] @ truth.bank.selectors[0][:, 0] \
            + truth.bases[1] @ truth.bank.selectors[1][:, 1]
        assert np.allclose(pinned.reconstruction, expect, atol=1e-12)
        assert pinned.diagnostics.converged
        assert pinned.diagnostics.stop_reason == "converged"
        free = reconstruct(y, np.zeros_like(y), bundle, config=cfg)
        assert not np.any(free.reconstruction)
        assert np.array_equal(free.sparse_error, y)


class TestContracts:
    def test_pinned_selectors_come_back_bitwise(self, planted):
        truth, bundle, y, _ = planted
        spec = TransferSpec.targets(truth.schema, {"tint": "cool"})
        result = reconstruct(y, None, bundle, spec=spec)
        assert np.array_equal(result.selectors[1], truth.bank.selectors[1][:, 1])

    def test_zero_vector_short_circuits(self, planted):
        truth, bundle, _, _ = planted
        zero = np.zeros(bundle.dim)
        free = reconstruct(zero, None, bundle)
        assert free.diagnostics.iterations == 0
        assert free.diagnostics.converged
        assert not np.any(free.reconstruction)
        spec = TransferSpec.targets(truth.schema, {"shape": "round"})
        round_ = truth.bank.selectors[0][:, 0]
        expect = truth.bases[0] @ round_
        pinned = [reconstruct(zero, None, bundle, spec=spec),
                  *reconstruct_many(np.column_stack([zero, zero]), None, bundle, spec)]
        for result in pinned:
            assert result.reconstruction.tobytes() == expect.tobytes()
            assert result.selectors[0].tobytes() == round_.tobytes()
            assert not np.any(result.selectors[1]) and not np.any(result.sparse_error)
            assert result.diagnostics == free.diagnostics

    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}])
    def test_hidden_entries_of_y_enter_no_step(self, planted, pins):
        """Values at hidden cells change nothing but the sparse error there,
        which absorbs them: the solve is that of y * w bitwise, for a
        completion as for a transfer, alone and in a block. The hidden
        sparse error is y minus the reconstruction there, bitwise."""
        truth, bundle, y, _ = planted
        rng = np.random.default_rng(5)
        w = (rng.random(y.size) >= 0.3).astype(float)
        hidden = w == 0.0
        spiked = y.copy()
        spiked[[2, 9]] += 5.0
        loud = np.where(hidden, 1e6, spiked)
        spec = TransferSpec.targets(truth.schema, pins)
        one = reconstruct(loud, w, bundle, spec=spec)
        two = reconstruct(loud * w, w, bundle, spec=spec)
        block = reconstruct_many(np.column_stack([loud, loud * w]), np.column_stack([w, w]),
                                 bundle, spec)
        for a, b in ((one, two), block):
            for x, z in zip(a.selectors, b.selectors):
                assert np.array_equal(x, z)
            assert np.array_equal(a.indiv_coeffs, b.indiv_coeffs)
            assert np.array_equal(a.reconstruction, b.reconstruction)
            assert a.diagnostics == b.diagnostics
            assert np.array_equal(a.sparse_error[~hidden], b.sparse_error[~hidden])
            assert np.allclose(a.sparse_error[hidden] - b.sparse_error[hidden], 1e6,
                               rtol=1e-12)
            for result, y_in in ((a, loud), (b, loud * w)):
                assert np.array_equal(result.sparse_error[hidden],
                                      (y_in - result.reconstruction)[hidden])

    def test_mu_schedule(self, planted):
        _, bundle, y, _ = planted
        result = reconstruct(y, None, bundle, config=ReconConfig(t_max=200))
        mu = result.diagnostics.mu_history
        assert mu[0] == 25.0 / float(np.linalg.norm(y))
        for prev, cur in zip(mu, mu[1:]):
            assert cur == min(1.2 * prev, 1e7)

    def test_penalty_start_is_capped_at_mu_max(self, default_instance):
        """A vector so small that mu0_scale / ||w .* y|| exceeds mu_max
        starts at mu_max, alone (mu a float) and in a block (one entry per
        column), so mu never decreases and never passes the cap."""
        _, truth = default_instance
        bundle = bundle_from_truth(truth)
        h = holdout_sample(truth, 3, 0.5, 0.30, 5.0)
        tiny = h.y * 1e-9
        assert 25.0 / np.linalg.norm(tiny * h.mask) > 1e7
        kinds = []
        alone = reconstruct(tiny, h.mask, bundle,
                            observer=lambda state, t: kinds.append(type(state.mu)))
        assert set(kinds) == {float}
        block = reconstruct_many(np.column_stack([h.y, tiny]), np.column_stack([h.mask] * 2),
                                 bundle)
        for d in (alone.diagnostics, block[1].diagnostics):
            assert d.mu_history[0] == 1e7
        for d in (alone.diagnostics, *(r.diagnostics for r in block)):
            mu = d.mu_history
            assert max(mu) <= 1e7
            assert all(prev <= cur for prev, cur in zip(mu, mu[1:]))

    def test_determinism_and_complete_alias(self, planted):
        _, bundle, y, _ = planted
        one = reconstruct(y, None, bundle)
        two = reconstruct(y, None, bundle)
        assert np.array_equal(one.reconstruction, two.reconstruction)
        assert np.array_equal(one.sparse_error, two.sparse_error)
        for a, b in zip(one.selectors, two.selectors):
            assert np.array_equal(a, b)
        assert np.array_equal(complete(y, None, bundle), one.reconstruction)

    def test_non_convergence_is_flagged(self, planted):
        # Gross errors keep two iterations short of eps; an exact in-model
        # vector is fitted by the first least-squares step and converges.
        # Dense out-of-model noise keeps the first step's decode from
        # certifying the spiked vector, which it would solve exactly.
        _, bundle, y, _ = planted
        spiked = y + np.random.default_rng(8).standard_normal(y.size) * 0.05
        spiked[[3, 17]] += 5.0
        result = reconstruct(spiked, None, bundle, config=ReconConfig(t_max=2))
        assert not result.diagnostics.converged
        assert result.diagnostics.stop_reason == "t_max"
        assert result.diagnostics.iterations == 2
        assert len(result.diagnostics.residual_history) == 2
        exact = reconstruct(y, None, bundle, config=ReconConfig(t_max=2)).diagnostics
        assert exact.converged and exact.stop_reason == "converged"

    def test_record_holds_the_one_residual_twice(self, planted):
        """Reconstruction has one residual measure (e enters every entry);
        both histories of its record hold it, and lam_effective is the
        1/sqrt(dim) default."""
        _, bundle, y, _ = planted
        w = (np.random.default_rng(12).random(y.size) >= 0.3).astype(float)
        d = reconstruct(y * w, w, bundle, config=ReconConfig(t_max=30)).diagnostics
        assert d.residual_history_unmasked == d.residual_history
        assert d.final_residual_unmasked == d.final_residual == d.residual_history[-1]
        assert d.lam_effective == 1.0 / np.sqrt(y.size)
        assert len(d.mu_history) == d.iterations

    def test_observer_sees_hidden_error_identity(self, planted):
        _, bundle, y, _ = planted
        rng = np.random.default_rng(11)
        w = (rng.random(y.size) >= 0.25).astype(float)
        hidden = w == 0.0
        span = build_span(bundle, RankRule.fixed(2))
        ticks = []

        def watch(state, t):
            ticks.append(t)
            shared = np.zeros(y.size)
            for k, basis in enumerate(bundle.bases):
                shared += basis @ state.selectors[k]
            residual = y * w - shared - span @ state.indiv_coeffs \
                + state.dual / state.mu
            assert np.array_equal(state.sparse_error[hidden], residual[hidden])

        result = reconstruct(y * w, w, bundle, config=ReconConfig(t_max=30),
                             observer=watch)
        assert ticks == list(range(result.diagnostics.iterations))


class TestTransfer:
    """A transfer is its completion re-rendered under the pins."""

    @pytest.mark.parametrize("rank_rule", [ReconConfig().rank_rule, None], ids=["span", "no-span"])
    def test_a_transfer_re_renders_its_completion(self, default_instance, rank_rule, monkeypatch):
        """24 stock holdouts, a zero vector and a fully hidden one,
        transferred to attr2=b3 through the planted model, alone and as one
        block. The block builds one ReconResult per column. Where the
        completion certifies (all 24 holdouts with the default span; none
        without it, whose design misses the individual part), the transfer
        is within 1e-14 of the clean vector re-rendered with b3, relative to
        it. Every pinned selector is bitwise the trained column. Against the
        completion solved the same way, alone or in the block, the free
        selectors, span coefficients, record and visible sparse error are
        bitwise its own, the reconstruction is bitwise `synthesize` of them
        on the span, and the hidden sparse error is y minus it."""
        _, truth = default_instance
        bundle = bundle_from_truth(truth)
        config = ReconConfig(rank_rule=rank_rule)
        attr = truth.schema.attr_index("attr2")
        b3 = truth.schema.inst_index(attr, "b3")
        basis, trained = truth.bases[attr], truth.bank.selectors[attr]
        spec = TransferSpec.targets(truth.schema, {"attr2": "b3"})
        samples = [holdout_sample(truth, seed) for seed in range(24)]
        Y = np.column_stack([s.y for s in samples] + [np.zeros(bundle.dim), samples[0].y])
        W = np.column_stack([s.mask for s in samples] + [samples[1].mask, np.zeros(bundle.dim)])
        built = []

        class Counted(reconstructor.ReconResult):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(reconstructor, "ReconResult", Counted)
        block = reconstruct_many(Y, W, bundle, spec, config)
        assert len(built) == Y.shape[1]
        assert sorted(map(id, built)) == sorted(map(id, block))
        completions = reconstruct_many(Y, W, bundle, config=config)
        certified = 0
        for c, (in_block, free_in_block) in enumerate(zip(block, completions)):
            y, seen = Y[:, c], W[:, c] != 0.0
            alone = reconstruct(y, W[:, c], bundle, spec, config)
            free_alone = reconstruct(y, W[:, c], bundle, config=config)
            d = free_alone.diagnostics
            if c < len(samples) and (d.iterations, d.stop_reason, d.final_residual) \
                    == (1, "converged", 0.0):
                certified += 1
                own = truth.schema.inst_index(attr, samples[c].labels["attr2"])
                target = samples[c].clean - basis @ trained[:, own] + basis @ trained[:, b3]
                for result in (alone, in_block):
                    rel = np.linalg.norm(result.reconstruction - target) / np.linalg.norm(target)
                    assert rel <= 1e-14
            for result, free in ((alone, free_alone), (in_block, free_in_block)):
                assert result.selectors[attr].tobytes() == trained[:, b3].tobytes()
                for i, (a, b) in enumerate(zip(result.selectors, free.selectors)):
                    assert i == attr or a.tobytes() == b.tobytes()
                assert result.indiv_coeffs.tobytes() == free.indiv_coeffs.tobytes()
                assert result.diagnostics == free.diagnostics
                assert result.sparse_error[seen].tobytes() == free.sparse_error[seen].tobytes()
                synthesis = synthesize(bundle, spec, free.selectors, free.indiv_coeffs,
                                       build_span(bundle, rank_rule))
                assert result.reconstruction.tobytes() == synthesis.tobytes()
                assert result.sparse_error[~seen].tobytes() == (y - synthesis)[~seen].tobytes()
        assert certified == (24 if rank_rule else 0)


class TestBlock:
    """reconstruct_many solves each column as reconstruct solves it alone."""

    @staticmethod
    def assert_close(a, b, scale):
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12 * scale

    def columns(self, planted, layout="own-masks"):
        """Columns covering each path: an all-zero vector, a fully hidden
        one (both take no step), an exact in-model vector, which the first
        step's decode certifies, spiked vectors whose dense out-of-model
        noise keeps the decode from certifying them, so that they run on
        and stop at different steps, and two columns sharing one mask, and
        one with 3 visible entries, fewer than the design's 7 (5 without the
        span) columns, whose visible design is then rank deficient. With "one-mask", every
        column has the same mask and no column is fully hidden. "two-slices"
        adds 63 spiked columns with masks of their own and a second fully
        hidden one at the end: 71 columns, solved as slices of 36 and 35."""
        _, _, y, _ = planted
        rng = np.random.default_rng(17)

        def spike():
            v = y + rng.standard_normal(y.size) * 0.05
            v[rng.choice(y.size, 3, replace=False)] += 5.0
            return v

        spiked = [spike() for _ in range(3)]
        shared = (rng.random(y.size) >= 0.3).astype(float)
        if layout == "one-mask":
            ys = [np.zeros_like(y), y, *spiked]
            return np.column_stack(ys), np.column_stack([shared] * len(ys))
        ys = [np.zeros_like(y), spiked[0], y, *spiked]
        ws = [(rng.random(y.size) >= 0.3).astype(float), np.zeros_like(y),
              np.ones_like(y), (rng.random(y.size) >= 0.2).astype(float), shared, shared]
        few = np.zeros_like(y)
        few[rng.choice(y.size, 3, replace=False)] = 1.0
        ys.append(spiked[1])
        ws.append(few)
        if layout == "two-slices":
            ys += [spike() for _ in range(63)] + [spiked[2]]
            ws += [(rng.random(y.size) >= rng.uniform(0.1, 0.4)).astype(float)
                   for _ in range(63)] + [np.zeros_like(y)]
        return np.column_stack(ys), np.column_stack(ws)

    @pytest.mark.parametrize("layout", ["own-masks", "one-mask", "two-slices"])
    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}], ids=["free", "pinned"])
    @pytest.mark.parametrize("stop, options", [
        ("converged", {}), ("t_max", dict(t_max=6)), ("stalled", dict(mu_max=30.0)),
        ("converged", dict(rank_rule=None)),
        ("t_max", dict(t_max=6, rank_rule=None)),
        ("stalled", dict(mu_max=3.0, rank_rule=None)),
    ], ids=["defaults", "t_max-6", "mu_max-30", "no-span", "no-span-t_max-6", "no-span-mu_max-3"])
    def test_each_column_matches_its_single_solve(self, planted, layout, pins, stop, options):
        """Columns stop at different steps and leave the working set; with
        a small t_max some stop there, with a small mu_max some stall.
        Without the span (rank_rule=None) its coefficients are a
        zero-width block of the design; mu_max = 30 is not small enough to
        stall every such case, so those take mu_max = 3. Past BLOCK_WIDTH
        columns, every slice solves its columns as they are solved alone. A
        transfer re-renders each column's completion, in a block as alone."""
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted, layout)
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(**{"rank_rule": RankRule.fixed(2), **options})
        block = reconstruct_many(Y, W, bundle, spec, config)
        self.match_single_solves(Y, W, bundle, spec, config, block)
        reasons = {r.diagnostics.stop_reason for r in block}
        assert stop in reasons
        if stop != "t_max":
            assert len({r.diagnostics.iterations for r in block if r.diagnostics.iterations}) > 2

    def match_single_solves(self, Y, W, bundle, spec, config, block):
        """Each column of `block` is solved as `reconstruct` solves it alone."""
        assert len(block) == Y.shape[1]
        for c, got in enumerate(block):
            want = reconstruct(Y[:, c], W[:, c], bundle, spec, config)
            # Bases and span are orthonormal, so every part is on the scale
            # of the input; residuals are relative to it already.
            scale = np.linalg.norm(Y[:, c])
            for a, b in zip(got.selectors, want.selectors):
                self.assert_close(a, b, scale)
            self.assert_close(got.indiv_coeffs, want.indiv_coeffs, scale)
            self.assert_close(got.sparse_error, want.sparse_error, scale)
            self.assert_close(got.reconstruction, want.reconstruction, scale)
            g, w = got.diagnostics, want.diagnostics
            assert (g.iterations, g.stop_reason, g.converged) \
                == (w.iterations, w.stop_reason, w.converged)
            for a, b in ((g.residual_history, w.residual_history),
                         (g.residual_history_unmasked, w.residual_history_unmasked)):
                assert len(a) == len(b)
                self.assert_close(a, b, 1.0)
            assert len(g.mu_history) == len(w.mu_history)
            self.assert_close(g.mu_history, w.mu_history, np.linalg.norm(w.mu_history))

    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}], ids=["free", "pinned"])
    @pytest.mark.parametrize("rank_rule", [RankRule.fixed(2), None], ids=["span", "no-span"])
    def test_a_column_with_no_visible_signal_takes_its_fixed_result(self, planted, pins,
                                                                   rank_rule):
        """A zero vector and a fully hidden nonzero one take no step, alone
        and in a block whose other columns stop at different steps. Free
        selectors and span coefficients are zero, pinned selectors the
        trained ones; the reconstruction is the pinned synthesis, which the
        sparse error absorbs on hidden entries alone; the record is that of
        zero input. All of it bitwise, signed zeros included."""
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted)
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(rank_rule=rank_rule)
        block = self.check_no_signal_columns(truth, bundle, Y, W, spec, config)
        assert len({result.diagnostics.iterations for result in block[2:]}) > 2

    @staticmethod
    def check_no_signal_columns(truth, bundle, Y, W, spec, config):
        """Columns 0 and 1 of `Y` take their fixed result, in a block and
        alone. Returns the block's results."""
        block = reconstruct_many(Y, W, bundle, spec, config)
        trained = [np.zeros(truth.schema.size(i)) if mode is None
                   else bundle.bank.selectors[i][:, mode] for i, mode in enumerate(spec.pinned)]
        synthesis = np.zeros(bundle.dim)
        for i, mode in enumerate(spec.pinned):
            if mode is not None:
                synthesis += bundle.bases[i] @ trained[i]

        def bitwise(a, b):
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        assert not np.any(Y[:, 0]) and np.any(Y[:, 1]) and not np.any(W[:, 1])
        for c in (0, 1):  # the zero vector and the fully hidden one
            y, visible = Y[:, c], W[:, c] != 0.0
            for result in (block[c], reconstruct(y, W[:, c], bundle, spec, config)):
                assert all(map(bitwise, result.selectors, trained))
                assert bitwise(result.indiv_coeffs, np.zeros(0 if config.rank_rule is None else 2))
                assert bitwise(result.reconstruction, synthesis)
                assert bitwise(result.sparse_error,
                               np.where(visible, 0.0, y - result.reconstruction))
                assert result.diagnostics == TrainDiagnostics.zero_input(
                    config.effective_lam(bundle.dim, 1))
        return block

    def test_pinned_selectors_come_back_bitwise(self, planted):
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted)
        spec = TransferSpec.targets(truth.schema, {"tint": "cool"})
        for result in reconstruct_many(Y, W, bundle, spec, ReconConfig(rank_rule=RankRule.fixed(2))):
            assert np.array_equal(result.selectors[1], truth.bank.selectors[1][:, 1])

    def test_a_block_solved_twice_is_bitwise_equal(self, planted):
        _, bundle, _, _ = planted
        Y, W = self.columns(planted)
        config = ReconConfig(rank_rule=RankRule.fixed(2))
        one, two = (reconstruct_many(Y, W, bundle, config=config) for _ in range(2))
        for a, b in zip(one, two):
            for x, y in zip(a.selectors, b.selectors):
                assert np.array_equal(x, y)
            assert np.array_equal(a.indiv_coeffs, b.indiv_coeffs)
            assert np.array_equal(a.sparse_error, b.sparse_error)
            assert np.array_equal(a.reconstruction, b.reconstruction)
            assert a.diagnostics == b.diagnostics

    def test_the_observer_sees_the_working_set(self, planted):
        """The zero and fully hidden columns take no step; then columns
        leave as they stop. Past BLOCK_WIDTH columns the observer sees each
        slice's working set in turn, t restarting at 0."""
        _, bundle, _, _ = planted
        for layout, count in (("own-masks", 1), ("two-slices", 2)):
            Y, W = self.columns(planted, layout)
            seen = []
            results = reconstruct_many(Y, W, bundle,
                                       config=ReconConfig(rank_rule=RankRule.fixed(2)),
                                       observer=lambda state, t: seen.append((t, state.mu.size)))
            starts = [n for n, (t, _) in enumerate(seen) if t == 0] + [len(seen)]
            slices = np.array_split(np.arange(Y.shape[1]), count)
            assert len(starts) == count + 1
            for block, a, b in zip(slices, starts, starts[1:]):
                steps = [results[c].diagnostics.iterations for c in block]
                widths = [width for _, width in seen[a:b]]
                assert [t for t, _ in seen[a:b]] == list(range(max(steps)))
                assert widths[0] == sum(1 for n in steps if n)
                assert widths == sorted(widths, reverse=True)

    @staticmethod
    def spy_on_solve(monkeypatch):
        """The widths of the slices `_solve` is handed."""
        widths = []
        original = reconstructor._solve

        def counted(Y, *args):
            widths.append(Y.shape[1])
            return original(Y, *args)

        monkeypatch.setattr(reconstructor, "_solve", counted)
        return widths

    def test_block_input_is_checked(self, planted, monkeypatch):
        """Shapes, values and masks are checked on the whole input before
        any slice is solved: a fault past the first slice is named, by
        `name` when one is given, and nothing is solved."""
        _, bundle, y, _ = planted
        solved = self.spy_on_solve(monkeypatch)
        with pytest.raises(ValidationError, match=r"input block has shape \(40,\)"):
            reconstruct_many(y, None, bundle)
        with pytest.raises(ValidationError, match=r"input masks have shape \(40, 1\)"):
            reconstruct_many(np.column_stack([y, y]), np.ones((40, 1)), bundle)
        bad = np.column_stack([y, y, y])
        bad[4, 2] = np.inf
        with pytest.raises(ValidationError, match="column 2: input vector contains non-finite"):
            reconstruct_many(bad, None, bundle)
        w = np.ones_like(bad)
        w[0, 1] = 2.0
        with pytest.raises(ValidationError, match="column 1: input mask must be strictly binary"):
            reconstruct_many(np.column_stack([y, y, y]), w, bundle)
        wide = np.column_stack([y] * 70)
        wide[7, 66] = np.nan
        with pytest.raises(ValidationError, match="column 66: input vector contains non-finite"):
            reconstruct_many(wide, None, bundle)
        with pytest.raises(ValidationError, match="^v066.marc: input vector contains non-finite"):
            reconstruct_many(wide, None, bundle, name=lambda c: f"v{c:03d}.marc")
        assert solved == []
        assert reconstruct_many(np.zeros((40, 0)), None, bundle) == []

    def test_one_column_takes_the_one_vector_path(self, planted):
        """A one-column block is solved as `reconstruct` solves the vector
        alone: its result is bitwise that of `reconstruct`, and its observer
        sees 1-D iterates and a float mu, for every column of the covering
        set, free and pinned. A bad value in it is still named by `name`."""
        _, bundle, y, _ = planted
        Y, W = self.columns(planted)
        config = ReconConfig(rank_rule=RankRule.fixed(2))
        for pins in ({}, {"tint": "cool"}):
            spec = TransferSpec.targets(bundle.schema, pins)
            for c in range(Y.shape[1]):
                shapes = []
                block, = reconstruct_many(
                    Y[:, c:c + 1], W[:, c:c + 1], bundle, spec, config,
                    observer=lambda state, t: shapes.append(
                        (state.sparse_error.shape, state.indiv_coeffs.shape, type(state.mu))))
                alone = reconstruct(Y[:, c], W[:, c], bundle, spec, config)
                assert TestDecode.same(block, alone)
                assert shapes == [((40,), (2,), float)] * block.diagnostics.iterations
        bad = y.copy()[:, None]
        bad[3] = np.nan
        with pytest.raises(ValidationError, match="^v.marc: input vector contains non-finite"):
            reconstruct_many(bad, None, bundle, name=lambda c: "v.marc")

    def test_an_overflowing_norm_raises_before_any_step(self, planted, monkeypatch):
        """Finite entries whose norm overflows float64 raise NumericalError,
        with no numpy warning on the way, before any slice is solved."""
        _, bundle, y, _ = planted
        solved = self.spy_on_solve(monkeypatch)
        big = 1e160 * y / np.abs(y).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="iteration 0: the observed norm of the "
                                                     "input vector overflows"):
                reconstruct(big, None, bundle)
            with pytest.raises(NumericalError, match="iteration 0: the observed norm of "
                                                     "column 1 overflows"):
                reconstruct_many(np.column_stack([y, big]), None, bundle)
            wide = np.column_stack([y] * 66 + [big] + [y] * 3)
            with pytest.raises(NumericalError, match="iteration 0: the observed norm of "
                                                     "column 66 overflows"):
                reconstruct_many(wide, None, bundle)
            with pytest.raises(NumericalError, match="the observed norm of v066.marc overflows"):
                reconstruct_many(wide, None, bundle, name=lambda c: f"v{c:03d}.marc")
        assert solved == []


# The row of the stock model's first basis that TestDecode.inexact moves.
SHIFTED_ROW = 17


def no_decode(design, trusted, visible, target, x, norm, eps, table=None):
    """`decode.decode` with nothing certified: the ALM alone."""
    return x, np.zeros(np.shape(norm), dtype=bool)


def pinv_route(design, visible, table=None):
    """The x step's maps as `np.linalg.pinv` gives them for every column:
    P P^T with P = pinv(D_v), every column flagged as untrusted; for a
    (dim,) mask, its one map and a 0-d flag, as `normal_maps` gives them.
    The Gram table is not read."""
    if visible.ndim == 1:
        maps, trusted = pinv_route(design, visible[:, None])
        return maps[0], trusted.reshape(())
    factors = [np.linalg.pinv(design[mask]) for mask in visible.T]
    return np.stack([p @ p.T for p in factors]), np.zeros(len(factors), dtype=bool)


class TestNormalMaps:
    """The x step's factor, (D_v^T D_v)^-1 by one stacked `np.linalg.inv` of
    the Grams a shifted Cholesky test trusts, against the pinv route P P^T,
    P = pinv(D_v), on the design of the stock model: the free bases and the
    default span, 12 columns."""

    @pytest.fixture(scope="class")
    def stock(self, default_instance):
        _, truth = default_instance
        bundle = bundle_from_truth(truth)
        span = build_span(bundle, ReconConfig().rank_rule)
        return truth, bundle, np.concatenate(bundle.bases + [span], axis=1)

    @staticmethod
    def spy(monkeypatch):
        """The row counts of the matrices `np.linalg.pinv` is called on."""
        calls = []
        original = np.linalg.pinv

        def counted(a, *args, **kwargs):
            calls.append(a.shape[0])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted)
        return calls

    @staticmethod
    def masks(dim, count, seed):
        """`count` random masks hiding 10-50% of `dim` entries."""
        rng = np.random.default_rng(seed)
        return rng.random((dim, count)) >= rng.uniform(0.1, 0.5, count)

    def test_trusted_maps_match_the_pinv_route(self, stock, monkeypatch):
        """Every Gram of 64 random masks is trusted; its map agrees with
        P P^T to 1e-12 relative, in a block and alone (which forms its Gram
        by another product), and pinv never runs."""
        _, _, design = stock
        visible = self.masks(design.shape[0], 64, seed=5)
        want, _ = pinv_route(design, visible)
        calls = self.spy(monkeypatch)
        block, trusted = decoder.normal_maps(design, visible)
        alone = [decoder.normal_maps(design, mask[:, None]) for mask in visible.T[:8]]
        assert calls == [] and trusted.all() and all(t.tolist() == [True] for _, t in alone)
        for got, ref in zip(block, want):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        for (got, _), ref in zip(alone, want):
            assert np.linalg.norm(got[0] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["few-rows", "duplicated-column", "zero-width"])
    def test_untrusted_columns_take_the_pinv_route_bitwise(self, stock, monkeypatch, case):
        """A column that sees fewer rows than the design has columns, and
        every column of a design with a duplicated column (both have a
        singular Gram), are flagged untrusted and take P P^T exactly as pinv
        gives P, and pinv runs for them alone. A zero-width design (no
        attributes, no span) has empty maps either way."""
        _, _, design = stock
        visible = self.masks(design.shape[0], 6, seed=7)
        if case == "few-rows":
            visible[:, 2] = False
            visible[:design.shape[1] - 1, 2] = True
        elif case == "duplicated-column":
            design = np.column_stack([design, design[:, 3]])
        else:
            design = design[:, :0]
        untrusted = {"few-rows": [2], "duplicated-column": list(range(6)), "zero-width": []}[case]
        want, _ = pinv_route(design, visible)
        calls = self.spy(monkeypatch)
        maps, trusted = decoder.normal_maps(design, visible)
        assert calls == [np.count_nonzero(visible[:, c]) for c in untrusted]
        assert np.flatnonzero(~trusted).tolist() == untrusted
        for c in untrusted:
            assert np.array_equal(maps[c], want[c])
        if case == "few-rows":
            trusted = [0, 1, 3, 4, 5]
            assert np.linalg.norm(maps[trusted] - want[trusted]) <= 1e-12 * np.linalg.norm(want)
        assert maps.shape == want.shape

    def test_a_mixed_block_inverts_each_trusted_gram_alone(self, stock, monkeypatch):
        """In a block whose columns 1 and 4 are untrusted (one sees fewer rows
        than the design has columns, one sees none), each trusted column's
        map is bitwise `np.linalg.inv` of its own Gram as `_grams` forms it
        for the block, and each untrusted one takes P P^T as pinv gives P,
        flagged False; pinv runs for those two alone."""
        _, _, design = stock
        visible = self.masks(design.shape[0], 6, seed=13)
        visible[:, [1, 4]] = False
        visible[:design.shape[1] - 1, 1] = True
        grams = decoder._grams(design, visible.T)
        want, _ = pinv_route(design, visible)
        calls = self.spy(monkeypatch)
        maps, trusted = decoder.normal_maps(design, visible)
        assert trusted.tolist() == [True, False, True, True, False, True]
        assert calls == [design.shape[1] - 1, 0]
        for c, flag in enumerate(trusted):
            ref = np.linalg.inv(grams[c]) if flag else want[c]
            assert maps[c].tobytes() == ref.tobytes()

    def test_a_lone_column_inverts_its_own_gram(self, stock, monkeypatch):
        """A lone column's map is bitwise `np.linalg.inv` of its own Gram
        D^T diag(w) D, formed by two products, after the same test a block
        takes: a Cholesky factorization of G - NORMAL_RATIO * tr(G) * I."""
        _, _, design = stock
        k = design.shape[1]
        shifted = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shifted.append(a) or cholesky(a))
        for mask in self.masks(design.shape[0], 8, seed=11).T:
            gram = (design.T * mask) @ design
            maps, trusted = decoder.normal_maps(design, mask[:, None])
            assert trusted.tolist() == [True] and maps.shape == (1, k, k)
            assert maps[0].tobytes() == np.linalg.inv(gram).tobytes()
            want = gram - decoder.NORMAL_RATIO * np.trace(gram) * np.eye(k)
            assert len(shifted) == 1 and shifted.pop()[0].tobytes() == want.tobytes()

    def test_a_lone_mask_takes_its_blocks_first_map(self, stock):
        """`normal_maps` of a (dim,) mask is bitwise the [0] of the same mask
        as a (dim, 1) block: one k x k map and a 0-d flag, for a mask whose
        Gram is trusted and for one that sees fewer than k rows, whose map
        comes from pinv."""
        _, _, design = stock
        k = design.shape[1]
        mask = self.masks(design.shape[0], 1, seed=17)[:, 0]
        few = np.zeros_like(mask)
        few[:k - 1] = True
        for visible, flag in ((mask, True), (few, False)):
            maps, trusted = decoder.normal_maps(design, visible)
            block, flags = decoder.normal_maps(design, visible[:, None])
            assert maps.shape == (k, k) and trusted.shape == ()
            assert bool(trusted) == flags[0] == flag
            assert maps.tobytes() == block[0].tobytes()

    def test_a_block_and_a_lone_column_trust_the_same_grams(self, stock):
        """A Gram G is trusted when lambda_min(G) > NORMAL_RATIO * tr(G),
        which a block and a lone column test alike, by a Cholesky
        factorization of the shifted Gram. With one design column shrunk so
        that the masks' Grams straddle the threshold, both refuse the same
        columns, those the eigenvalues single out; the block's stacked
        Cholesky fails, so it tests its columns one by one. Each lone
        column's map, formed from its Gram by other products, matches the
        block's to 1e-14 relative."""
        _, _, design = stock
        visible = self.masks(design.shape[0], 24, seed=9)

        def eigenvalues(shrink):
            scaled = design * np.where(np.arange(design.shape[1]) == 0, shrink, 1.0)
            grams = np.einsum("dc,dk,dl->ckl", visible.astype(float), scaled, scaled)
            return scaled, np.linalg.eigvalsh(grams)

        # Once column 0 is small, its shrink s scales lambda_min / tr(G) by
        # about s^2: put the threshold at the median ratio.
        _, lam = eigenvalues(0.1)
        design, lam = eigenvalues(0.1 * np.sqrt(
            decoder.NORMAL_RATIO / np.median(lam[:, 0] / lam.sum(axis=1))))
        want = np.flatnonzero(lam[:, 0] <= decoder.NORMAL_RATIO * lam.sum(axis=1))
        assert 0 < want.size < visible.shape[1]
        maps, trusted = decoder.normal_maps(design, visible)
        lone = [decoder.normal_maps(design, visible[:, c:c + 1]) for c in range(visible.shape[1])]
        alone = [c for c, (_, flag) in enumerate(lone) if not flag[0]]
        assert np.flatnonzero(~trusted).tolist() == alone == want.tolist()
        for (got, _), ref in zip(lone, maps):
            assert np.linalg.norm(got[0] - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("pins, options, tol", [
        ({}, {}, 1e-12), ({"attr2": "b3"}, {}, 1e-12), ({}, dict(rank_rule=None), 1e-12),
        (None, dict(rank_rule=None), 0.0),
    ], ids=["free", "pinned", "no-span", "zero-width"])
    def test_solves_as_the_pinv_route(self, stock, monkeypatch, pins, options, tol):
        """Stock holdouts solved alone and as one block take the same
        iterations and stop as with the pinv route for the factor, and end
        within 1e-12 of it relative to the input; with a zero-width design
        (a schema with no attributes, no span) there is nothing to factor
        and the results are bitwise equal. The decode is not tried on a
        column whose map comes from pinv, so both routes run without it:
        this compares the ALM's two factors."""
        truth, bundle, _ = stock
        if pins is None:
            bundle = dataclasses.replace(bundle, schema=AttributeSchema.of([]), bases=[],
                                         bank=SelectorBank([]))
            pins = {}
        monkeypatch.setattr(decoder, "decode", no_decode)
        samples = [holdout_sample(truth, seed) for seed in range(16)]
        Y = np.column_stack([s.y for s in samples])
        W = np.column_stack([s.mask for s in samples])
        spec = TransferSpec.targets(bundle.schema, pins)
        config = ReconConfig(**options)

        def solve():
            alone = [reconstruct(Y[:, c], W[:, c], bundle, spec, config) for c in range(Y.shape[1])]
            return alone + reconstruct_many(Y, W, bundle, spec, config)

        gram = solve()
        monkeypatch.setattr(decoder, "normal_maps", pinv_route)
        pinv = solve()
        for c, (a, b) in enumerate(zip(gram, pinv)):
            scale = np.linalg.norm(Y[:, c % Y.shape[1]])
            for field in ("iterations", "stop_reason", "converged"):
                assert getattr(a.diagnostics, field) == getattr(b.diagnostics, field)
            for x, y in zip([*a.selectors, a.indiv_coeffs, a.sparse_error, a.reconstruction],
                            [*b.selectors, b.indiv_coeffs, b.sparse_error, b.reconstruction]):
                assert np.linalg.norm(x - y) <= tol * scale


class TestBlockPath:
    """The block path of `reconstruct_many` against test-local references:
    Grams formed from the design's table, and results built per slice."""

    @pytest.fixture(scope="class")
    def models(self, default_instance):
        """The stock truth, its planted model and a model trained on it."""
        ts, truth = default_instance
        return truth, {"planted": bundle_from_truth(truth), "trained": trainer.train(ts)}

    @staticmethod
    def design(bundle):
        return np.concatenate(bundle.bases + [build_span(bundle, ReconConfig().rank_rule)], axis=1)

    @pytest.mark.parametrize("model", ["planted", "trained"])
    def test_grams_from_the_table_are_the_full_products(self, models, model):
        """The Grams of a block, formed from the upper triangle of the
        design's outer-product table and mirrored, are bitwise the product
        of the block's masks with the full k x k table, for masks laid out
        by rows and by columns (a cut narrowed to fewer columns is the
        latter), with the table passed in or built by `_grams`. A one-column
        block still takes the one-row branch: two products."""
        _, bundles = models
        design = self.design(bundles[model])
        dim, k = design.shape
        full = (design[:, :, None] * design[:, None, :]).reshape(dim, k * k)
        table = decoder.gram_table(design)
        assert table[0].shape == (dim, k * (k + 1) // 2)
        rng = np.random.default_rng(23)
        for count in (2, 3, 39, 50, 64):
            visible = rng.random((dim, count)) >= rng.uniform(0.1, 0.6, count)
            for mask in (visible, np.asfortranarray(visible)):
                want = (mask.T.astype(np.float64) @ full).reshape(count, k, k).tobytes()
                assert decoder._grams(design, mask.T, table).tobytes() == want
                assert decoder._grams(design, mask.T).tobytes() == want
        lone = visible[:, :1]
        want = ((design.T * lone.T.astype(np.float64)) @ design)[None]
        assert decoder._grams(design, lone.T, table).tobytes() == want.tobytes()

    @pytest.mark.parametrize("pins", [{}, {"attr2": "b3"}], ids=["free", "pinned"])
    def test_a_mixed_block_builds_each_result_on_its_own(self, models, monkeypatch, pins):
        """One 64-wide block through the model one row off
        (`TestDecode.inexact`): holdouts that certify at the first cut (those
        hiding the moved row) and at the second, spiked ones that run the
        penalty loop, a zero input, and a fully hidden one and one with
        k - 1 visible rows, whose visible Grams are not trusted. Free, each
        reconstruction is bitwise the sum of the closing step's products for
        its column, the shared part plus the individual part, as an observer
        recomputes them; pinned, it is bitwise `synthesize` of its selectors. Every hidden sparse error is
        y minus the reconstruction, bitwise. No two results share memory,
        and writing into one leaves every other unchanged."""
        truth, bundles = models
        bundle = TestDecode.inexact(bundles["planted"])
        spec = TransferSpec.targets(truth.schema, pins)
        span = build_span(bundle, ReconConfig().rank_rule)
        k = self.design(bundle).shape[1]
        samples = [holdout_sample(truth, seed) for seed in range(55)]
        samples += [holdout_sample(truth, seed, 0.5, 0.3, 5.0) for seed in range(6)]
        few = samples[0].mask.copy()
        few[np.flatnonzero(few)[k - 1:]] = 0.0
        zero = np.zeros(bundle.dim)
        Y = np.column_stack([s.y for s in samples] + [zero, samples[1].y, samples[2].y])
        W = np.column_stack([s.mask for s in samples] + [samples[3].mask, zero, few])
        assert Y.shape[1] == reconstructor.BLOCK_WIDTH
        flags, steps = [], []
        maps = decoder.normal_maps

        def spy(design, visible, table=None):
            got = maps(design, visible, table)
            flags.append(got[1])
            return got

        def observer(state, t):
            shared = np.zeros(state.sparse_error.shape)
            for basis, sel in zip(bundle.bases, state.selectors):
                shared += basis @ sel
            steps.append(shared + span @ state.indiv_coeffs)

        with monkeypatch.context() as patch:
            patch.setattr(decoder, "DECODE_ROUNDS", 1)
            once = reconstruct_many(Y, W, bundle, spec)
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "normal_maps", spy)
            results = reconstruct_many(Y, W, bundle, spec, observer=observer)
        iterations = [r.diagnostics.iterations for r in results]

        def certified(block):
            return sum(r.diagnostics.iterations == 1 and r.diagnostics.converged for r in block)

        assert 0 < certified(once) < certified(results)
        assert max(iterations) > 2 and iterations[-3:-1] == [0, 0]
        assert np.flatnonzero(~flags[0]).tolist() == [62, 63]  # no rows; k - 1 rows
        for c, r in enumerate(results):
            if pins:
                want = synthesize(bundle, spec, r.selectors, r.indiv_coeffs, span)
            elif iterations[c]:
                t = iterations[c] - 1
                working = [n for n, steps_n in enumerate(iterations) if steps_n > t]
                want = steps[t][:, working.index(c)]
            else:
                want = np.zeros(bundle.dim)
            assert r.reconstruction.tobytes() == want.tobytes()
            hidden = W[:, c] == 0.0
            assert r.sparse_error[hidden].tobytes() == (Y[:, c] - r.reconstruction)[hidden].tobytes()

        arrays = [[*r.selectors, r.indiv_coeffs, r.sparse_error, r.reconstruction] for r in results]
        for a, b in itertools.combinations(arrays, 2):
            assert not any(np.shares_memory(x, y) for x in a for y in b)
        kept = [[x.copy() for x in a] for a in arrays]
        for j, a in enumerate(arrays):
            for x in a:
                x += 1.0
            assert all(x.tobytes() == y.tobytes()
                       for i, (b, before) in enumerate(zip(arrays, kept)) if i != j
                       for x, y in zip(b, before))
            for x, y in zip(a, kept[j]):
                x[...] = y


def test_the_decoder_imports_only_proxops_from_the_package():
    """`decode` imports numpy and, of the package, `proxops` alone, so that
    `trainer`, which `reconstructor` imports, can import it too."""
    imported = set()
    for node in ast.walk(ast.parse(Path(decoder.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported |= {"." * node.level + name for name in names}
    assert "numpy" in imported
    assert {name for name in imported if name.startswith((".", "marc"))} == {".proxops"}


class TestDecode:
    """The first step's decode against an independent check: a certified
    column is the exact LAD fit, an uncertified one is the ALM's result
    bitwise, on the stock planted model."""

    @pytest.fixture(scope="class")
    def stock(self, default_instance):
        _, truth = default_instance
        return truth, bundle_from_truth(truth)

    @staticmethod
    def solve(monkeypatch, sample, bundle, spec):
        """One vector solved with the decode, whether it certified, and the
        same vector solved with the decode patched out (the ALM alone)."""
        flags = []
        decode = decoder.decode

        def spy(*args, **kwargs):
            x, certified = decode(*args, **kwargs)
            flags.append(bool(certified))
            return x, certified

        with monkeypatch.context() as patch:
            patch.setattr(decoder, "decode", spy)
            result = reconstruct(sample.y, sample.mask, bundle, spec)
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "decode", no_decode)
            alm = reconstruct(sample.y, sample.mask, bundle, spec)
        assert len(flags) == 1
        return result, flags[0], alm

    @staticmethod
    def same(a, b):
        """Bitwise equal results and equal records."""
        return all(x.tobytes() == y.tobytes() for x, y in zip(
            [*a.selectors, a.indiv_coeffs, a.sparse_error, a.reconstruction],
            [*b.selectors, b.indiv_coeffs, b.sparse_error, b.reconstruction])) \
            and a.diagnostics == b.diagnostics

    @staticmethod
    def error(result, sample):
        return np.linalg.norm(result.reconstruction - sample.clean) / np.linalg.norm(sample.clean)

    @staticmethod
    def inexact(bundle):
        """The bundle with row SHIFTED_ROW of its first basis moved by 1e-3:
        a model that is off on one row, as a trained one can be."""
        bases = [b.copy() for b in bundle.bases]
        bases[0][SHIFTED_ROW] += 1e-3
        return dataclasses.replace(bundle, bases=bases)

    @staticmethod
    def signs(r, kept, norm):
        """u off K: sign(r), but 0 where |r| <= 1e-13 * `norm` (rounding)."""
        return np.where(~kept & (np.abs(r) > 1e-13 * norm), np.sign(r), 0.0)

    @classmethod
    def redo(cls, d_v, y_v, eps, norm=None):
        """`decode.decode`'s gap cuts redone by `np.linalg.lstsq` on the visible
        design `d_v` and target `y_v`: cut the rows of K above the largest gap
        of the residual, refit on what is kept, and take the minimum-norm g
        with D_K^T g = -D_S^T u_S, u = `signs` (a row fitted to rounding
        takes u = 0, relative to the observed `norm`, ||y_v|| by default);
        certified when ||g||_inf < 1 and 2 ||r_{u=0}||_1 / (1 - ||g||_inf) <=
        eps ||y_v||_1, else cut again while ||g||_inf < 1, up to
        DECODE_ROUNDS cuts. Returns the last refit, its kept rows, its g, the
        cuts made and whether it certified."""
        norm = np.linalg.norm(y_v) if norm is None else norm
        kept = np.ones(y_v.size, dtype=bool)
        x = np.linalg.lstsq(d_v, y_v, rcond=None)[0]
        for cuts in range(1, decoder.DECODE_ROUNDS + 1):
            mags = np.abs(y_v - d_v @ x)
            mags[~kept] = mags[kept].min()
            kept[np.argsort(-mags, kind="stable")[:sorted_gap(np.sort(mags)[::-1])]] = False
            x = np.linalg.lstsq(d_v[kept], y_v[kept], rcond=None)[0]
            r = y_v - d_v @ x
            u = cls.signs(r, kept, norm)
            g = np.linalg.lstsq(d_v[kept].T, -d_v[~kept].T @ u[~kept], rcond=None)[0]
            top = np.abs(g).max(initial=0.0)
            if top >= 1.0:
                break
            if 2.0 * np.abs(r[u == 0.0]).sum() <= eps * np.abs(y_v).sum() * (1.0 - top):
                return x, kept, g, cuts, True
        return x, kept, g, cuts, False

    def test_the_step_at_which_every_column_stops_takes_no_dual_step(self, stock, monkeypatch):
        """`run_penalty_steps` takes no dual step after the step at which
        every problem left stops, and nothing reads the dual it would make:
        a lone vector that certifies takes none. In a block of two such
        vectors around one that runs the penalty loop (50% hidden, 30%
        spikes of amplitude 5), the dual step follows every step but the
        last, the first over all three columns, before the certified two
        retire."""
        truth, bundle = stock
        widths = []
        update = trainer.update_duals

        def counted(state, fit):
            widths.append(np.size(state.mu))
            update(state, fit)

        monkeypatch.setattr(trainer, "update_duals", counted)
        free = TransferSpec.all_free(truth.schema)
        easy = [holdout_sample(truth, seed) for seed in (0, 1)]
        assert reconstruct(easy[0].y, easy[0].mask, bundle, free).diagnostics.iterations == 1
        assert widths == []
        hard = holdout_sample(truth, 2, 0.5, 0.3, 5.0)
        block = [easy[0], hard, easy[1]]
        results = reconstruct_many(np.column_stack([s.y for s in block]),
                                   np.column_stack([s.mask for s in block]), bundle, free)
        steps = [r.diagnostics.iterations for r in results]
        assert steps[0] == steps[2] == 1 and steps[1] > 2
        assert widths == [3] + [1] * (steps[1] - 2)

    @pytest.mark.parametrize("model", ["planted", "inexact"], ids=["free-planted", "free-inexact"])
    def test_certified_columns_pass_an_independent_check(self, stock, monkeypatch, model):
        """`redo` decodes every completion again by `np.linalg.lstsq`, cut
        round by cut round, and the gap cuts certify the same vectors; a
        vector they certify has that refit as its x. Every certified
        vector's dual certificate, u = g on K and `signs` off K, checked on
        its own, has ||u||_inf <= 1 and D_v^T u = 0 to rounding, and the
        primal-dual gap ||t_v - D_v x||_1 - u^T t_v is within the bound
        eps * ||t_v||_1. A certified completion matches the clean vector to
        1e-12 on every row the model gets right; it took one step and its
        residual is 0. Every uncertified vector is bitwise the ALM's result.
        On the planted model every completion certifies at the first cut; on
        the inexact one, all but those hiding the shifted row certify at the
        second."""
        truth, bundle = stock
        if model == "inexact":
            bundle = self.inexact(bundle)
        spec = TransferSpec.all_free(truth.schema)
        eps = ReconConfig().eps
        span = build_span(bundle, ReconConfig().rank_rule)
        design = np.concatenate(bundle.bases + [span], axis=1)
        right = np.arange(bundle.dim) != SHIFTED_ROW if model == "inexact" else slice(None)
        cuts = []
        for seed in range(24):
            sample = holdout_sample(truth, seed)
            result, decoded, alm = self.solve(monkeypatch, sample, bundle, spec)
            seen = sample.mask != 0.0
            d_v, y_v = design[seen], sample.y[seen]
            norm = np.linalg.norm(sample.y[seen])
            refit, kept, g, rounds, certifies = self.redo(d_v, y_v, eps, norm)
            got = np.concatenate(result.selectors + [result.indiv_coeffs])
            scale = np.linalg.norm(y_v)
            r = y_v - d_v @ got
            if not certifies:
                assert not decoded and self.same(result, alm)
                continue
            assert decoded
            cuts.append(rounds)
            assert np.linalg.norm(got - refit) <= 1e-12 * scale
            u = self.signs(r, kept, norm)
            u[kept] = g
            assert np.abs(u).max() <= 1.0
            assert np.linalg.norm(d_v.T @ u) <= 1e-12 * np.linalg.norm(u)
            gap = np.abs(r).sum() - u @ y_v
            assert -1e-12 * scale <= gap <= eps * np.abs(y_v).sum()
            clean = np.linalg.norm(sample.clean)
            assert np.linalg.norm((result.reconstruction - sample.clean)[right]) <= 1e-12 * clean
            d = result.diagnostics
            assert (d.iterations, d.stop_reason, d.final_residual) == (1, "converged", 0.0)
        assert cuts == [1] * 24 if model == "planted" else sorted(cuts) == [1] * 3 + [2] * 21

    def test_an_inexact_model_certifies_at_the_second_cut(self, stock, monkeypatch):
        """Through a model off by 1e-3 on one row, a single cut certifies
        only the completions that hide that row: every other refit misses
        the row, by far more than eps allows. The second cut takes the row
        out of K, and then all 24 certify, each exact off that row."""
        truth, bundle = stock
        bundle = self.inexact(bundle)
        spec = TransferSpec.all_free(truth.schema)
        samples = [holdout_sample(truth, seed) for seed in range(24)]
        hidden = [s.mask[SHIFTED_ROW] == 0.0 for s in samples]
        assert sum(hidden) == 3
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "DECODE_ROUNDS", 1)
            once = [self.solve(monkeypatch, s, bundle, spec)[1] for s in samples]
        assert once == hidden
        right = np.arange(bundle.dim) != SHIFTED_ROW
        for sample in samples:
            result, decoded, _ = self.solve(monkeypatch, sample, bundle, spec)
            assert decoded
            clean = np.linalg.norm(sample.clean)
            assert np.linalg.norm((result.reconstruction - sample.clean)[right]) <= 1e-12 * clean

    def test_the_bound_decides_at_its_edge(self, stock, monkeypatch):
        """A stock holdout with dense noise on its visible entries, at
        amplitudes around where the refit's misfit meets the bound: the
        decode certifies exactly when `redo` does, so the bound it applies
        is 2 ||r_K||_1 / (1 - ||g||_inf) <= eps * ||t_v||_1, neither looser
        nor tighter; both outcomes occur on the sweep."""
        truth, bundle = stock
        spec = TransferSpec.all_free(truth.schema)
        eps = ReconConfig().eps
        design = np.concatenate(bundle.bases + [build_span(bundle, ReconConfig().rank_rule)],
                                axis=1)
        sample = holdout_sample(truth, 0)
        seen = sample.mask != 0.0
        noise = np.random.default_rng(3).standard_normal(bundle.dim) * seen
        # The refit's misfit grows linearly with the amplitude: find where
        # 2 ||r_K||_1 meets the bound, then sweep a factor 3 either side.
        refit, kept, _, _, _ = self.redo(design[seen], (sample.y + noise)[seen], eps)
        unit = np.abs(noise[seen][kept] - design[seen][kept] @ np.linalg.lstsq(
            design[seen][kept], noise[seen][kept], rcond=None)[0]).sum()
        edge = eps * np.abs(sample.y[seen]).sum() / (2.0 * unit)
        outcomes = set()
        for amplitude in edge * np.geomspace(1 / 3, 3, 25):
            noisy = dataclasses.replace(sample, y=sample.y + amplitude * noise)
            _, decoded, _ = self.solve(monkeypatch, noisy, bundle, spec)
            d_v, y_v = design[seen], noisy.y[seen]
            assert decoded == self.redo(d_v, y_v, eps)[-1]
            outcomes.add(decoded)
        assert outcomes == {True, False}

    def test_a_kept_gram_the_normal_rule_refuses_is_not_certified(self, stock, monkeypatch):
        """A cut whose kept rows' Gram fails the NORMAL_RATIO rule is not
        certified, and the vector comes back as the ALM's result, bitwise.
        The stock holdout of seed 159 at 60% hidden and 20% spikes is one:
        its full visible Gram is trusted, the Gram of the rows its second cut
        keeps is not. The rule alone decides it for the holdout of seed 2,
        which certifies at its first cut: with NORMAL_RATIO between the
        smallest-eigenvalue-to-trace ratios of its kept rows' Gram and of its
        full visible Gram, it no longer certifies."""
        truth, bundle = stock
        spec = TransferSpec.all_free(truth.schema)
        maps = decoder.normal_maps
        refused = []  # per call: the x step's Grams, then each cut's

        def spy(design, visible, table=None):
            got = maps(design, visible, table)
            refused.append(not got[1].all())
            return got

        monkeypatch.setattr(decoder, "normal_maps", spy)
        sample = holdout_sample(truth, 159, 0.6, 0.20, 1.0)
        result, decoded, alm = self.solve(monkeypatch, sample, bundle, spec)
        assert refused[:3] == [False, False, True]
        assert not decoded and self.same(result, alm)

        design = np.concatenate(bundle.bases + [build_span(bundle, ReconConfig().rank_rule)],
                                axis=1)
        sample = holdout_sample(truth, 2)
        seen = sample.mask != 0.0
        kept = self.redo(design[seen], sample.y[seen], ReconConfig().eps)[1]

        def ratio(rows):
            lam = np.linalg.eigvalsh(rows.T @ rows)
            return lam[0] / lam.sum()

        low, high = ratio(design[seen][kept]), ratio(design[seen])
        assert low < high
        assert self.solve(monkeypatch, sample, bundle, spec)[1]
        monkeypatch.setattr(decoder, "NORMAL_RATIO", np.sqrt(low * high))
        refused.clear()
        result, decoded, alm = self.solve(monkeypatch, sample, bundle, spec)
        assert refused[:2] == [False, True]
        assert not decoded and self.same(result, alm)

    def test_a_visible_gram_the_normal_rule_refuses_is_not_decoded(self, stock):
        """A column whose visible Gram the x step does not trust (its map
        came from pinv) is not decoded, although its cut would certify: the
        stock holdout of seed 2, decoded from its least-squares fit."""
        truth, bundle = stock
        design = np.concatenate(bundle.bases + [build_span(bundle, ReconConfig().rank_rule)],
                                axis=1)
        sample = holdout_sample(truth, 2)
        seen = sample.mask != 0.0
        norm, eps = np.linalg.norm(sample.y * seen), ReconConfig().eps
        target = sample.y * seen
        x = np.linalg.lstsq(design[seen], target[seen], rcond=None)[0]
        for trusted in (True, False):
            out, decoded = decoder.decode(design, np.array([trusted]), seen, target, x, norm, eps)
            assert bool(decoded) == trusted
            assert (out.tobytes() == x.tobytes()) != trusted

    def test_a_row_fitted_to_rounding_takes_no_sign(self, stock, monkeypatch):
        """The stock holdout of seed 9 at 50% hidden and 15% spikes
        (amplitude 0.5) cuts rows its refit then fits to ~1e-16: with u =
        sign(r) on them, as `redo` gives it with a zero norm, rounding picks
        the signs and ||g||_inf reaches 1. With u = 0 there, counted in the
        misfit, it certifies, exact to the clean vector, in one step."""
        truth, bundle = stock
        sample = holdout_sample(truth, 9, 0.5, 0.15, 0.5)
        seen = sample.mask != 0.0
        design = np.concatenate(bundle.bases + [build_span(bundle, ReconConfig().rank_rule)],
                                axis=1)
        eps = ReconConfig().eps
        assert not self.redo(design[seen], sample.y[seen], eps, norm=0.0)[-1]
        assert self.redo(design[seen], sample.y[seen], eps)[-1]
        result, decoded, _ = self.solve(monkeypatch, sample, bundle, TransferSpec.all_free(truth.schema))
        assert decoded and self.error(result, sample) <= 1e-12
        d = result.diagnostics
        assert (d.iterations, d.stop_reason, d.final_residual) == (1, "converged", 0.0)

    def test_a_lone_vector_decodes_as_a_one_column_block(self, stock, monkeypatch):
        """`decode` of a 1-D vector from its least-squares fit is bitwise the
        same vector decoded as a (dim, 1) block: its x, and its flag, 0-d.
        The stock holdouts below reach every outcome, as the lone decode's
        calls of `normal_maps` (one per cut) and `_passes` (its bound) show:
        certified at the first cut and at the second, its bound failing at
        the first cut, its misfit failing at both, a visible Gram not
        trusted (fewer than k visible rows), and a kept Gram not trusted
        (the holdout of seed 2, which certifies at its first cut, with
        NORMAL_RATIO between the ratios of its kept rows' Gram and its
        visible Gram)."""
        truth, bundle = stock
        design = np.concatenate(bundle.bases + [build_span(bundle, ReconConfig().rank_rule)],
                                axis=1)
        k = design.shape[1]
        maps, passes = decoder.normal_maps, decoder._passes
        cuts, bounds = [], []

        def spy_maps(design, visible):
            got = maps(design, visible)
            cuts.append((visible.copy(), bool(got[1])))
            return got

        def spy_passes(mags, counted, bound, budget):
            bounds.append(bound)
            return passes(mags, counted, bound, budget)

        def both(sample):
            """The lone decode and the block's column, and the lone outcome."""
            seen = sample.mask != 0.0
            target = sample.y * seen
            lone_maps, trusted = maps(design, seen)
            x = lone_maps @ (design.T @ target)
            norm, eps = np.linalg.norm(target), ReconConfig().eps
            cuts.clear()
            bounds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(decoder, "normal_maps", spy_maps)
                patch.setattr(decoder, "_passes", spy_passes)
                out, certified = decoder.decode(design, trusted, seen, target, x, norm, eps)
            block, flags = decoder.decode(design, trusted.reshape(1), seen[:, None],
                                          target[:, None], x[:, None], np.array([norm]), eps)
            assert certified.shape == () and bool(certified) == flags[0]
            assert out.tobytes() == block[:, 0].tobytes()
            if not cuts:
                return "visible-untrusted"
            if not cuts[-1][1]:
                return "kept-untrusted"
            if certified:
                return f"certified-at-cut-{len(cuts)}"
            if bounds[-1] > 1.0 - decoder.CERT_MARGIN:
                return f"bound-fails-at-cut-{len(cuts)}"
            assert len(cuts) == decoder.DECODE_ROUNDS
            return "misfit-fails-at-both-cuts"

        few = holdout_sample(truth, 0)
        few.mask[np.flatnonzero(few.mask)[k - 1:]] = 0.0
        assert [both(sample) for sample in (
            holdout_sample(truth, 0), holdout_sample(truth, 1, 0.3, 0.3, 5.0),
            holdout_sample(truth, 3, 0.5, 0.3, 5.0), holdout_sample(truth, 0, 0.6, 0.2, 1.0),
            few)] == ["certified-at-cut-1", "certified-at-cut-2", "bound-fails-at-cut-1",
                      "misfit-fails-at-both-cuts", "visible-untrusted"]

        def ratio(rows):
            lam = np.linalg.eigvalsh(rows.T @ rows)
            return lam[0] / lam.sum()

        sample = holdout_sample(truth, 2)
        assert both(sample) == "certified-at-cut-1"
        low, high = ratio(design[cuts[0][0]]), ratio(design[sample.mask != 0.0])
        monkeypatch.setattr(decoder, "NORMAL_RATIO", np.sqrt(low * high))
        assert both(sample) == "kept-untrusted"

    def test_positive_definite_tries_each_matrix_after_a_failure(self):
        """The trust test of the shifted Grams G - NORMAL_RATIO * tr(G) * I
        in `decode.normal_maps`, `proxops.positive_definite`: a stacked
        Cholesky, and after it fails, one matrix at a time."""
        eye = np.eye(3)
        singular = np.diag([1.0, 1.0, 0.0])

        def positive_definite(a):
            return proxops.positive_definite(a).tolist()

        assert positive_definite(np.stack([eye, 2 * eye])) == [True, True]
        assert positive_definite(np.stack([eye, singular, -eye, 0.5 * eye])) == [
            True, False, False, True]
        assert positive_definite(singular[None]) == [False]
        assert positive_definite(np.zeros((2, 0, 0))) == [True, True]

    @pytest.mark.parametrize("missing, sparsity, amplitude, floor", [
        (missing, sparsity, amplitude, floor)
        for (missing, sparsity), floor in zip(
            itertools.product((0.3, 0.5), (0.05, 0.15, 0.30)), (6, 6, 2, 6, 5, 0))
        for amplitude in (0.5, 5.0)
    ] + [(0.6, 0.20, 1.0, 0)])
    def test_decoder_regime_grid(self, stock, monkeypatch, missing, sparsity, amplitude, floor):
        """Across hidden fractions, spike densities and amplitudes, each
        completion is either certified and exact (1e-12 relative to the
        clean vector) or bitwise the ALM's result, so no cell ends worse
        than the ALM alone. At least `floor` of a cell's 6 vectors certify,
        the counts the repeated cut reaches: a single cut certified 5, 1 and
        4 of them at 30% hidden with 15% and 30% spikes and at 50% hidden
        with 15%, where the floors are 6, 2 and 5. 60% hidden with 20%
        spikes is a cell where the ALM alone fails (median error 0.69 over
        20 vectors), and where the decode still certifies 2 of 20."""
        truth, bundle = stock
        spec = TransferSpec.all_free(truth.schema)
        errors, alm_errors, certified = [], [], 0
        for seed in range(6):
            sample = holdout_sample(truth, seed, missing, sparsity, amplitude)
            result, decoded, alm = self.solve(monkeypatch, sample, bundle, spec)
            if decoded:
                certified += 1
                assert self.error(result, sample) <= 1e-12
            else:
                assert self.same(result, alm)
            errors.append(self.error(result, sample))
            alm_errors.append(self.error(alm, sample))
        assert max(errors) <= max(max(alm_errors), 1e-12)
        assert certified >= floor
