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
from marc import decode as decoder
from marc import reconstructor
from marc.dataset import AttributeSchema
from marc.errors import DegenerateMatrixError, NumericalError, ValidationError
from marc.proxops import RankRule, deterministic_svd, largest_gap, svd_span
from marc.reconstructor import (
    ReconConfig,
    TransferSpec,
    build_span,
    complete,
    reconstruct,
    reconstruct_many,
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
    span = svd_span(deterministic_svd(truth.individual), RankRule.fixed(2))
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

    def test_use_individual_false_skips_span_entirely(self, planted):
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

    def test_post_hoc_transfer_applies_planted_shift(self, planted):
        truth, bundle, y, _ = planted
        cfg = ReconConfig(**GENTLE)
        moved = transfer(y, None, bundle, {"tint": "cool"}, config=cfg,
                         post_hoc=True)
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
        pinned = reconstruct(zero, None, bundle, spec=spec)
        expect = truth.bases[0] @ truth.bank.selectors[0][:, 0]
        assert np.array_equal(pinned.reconstruction, expect)

    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}])
    def test_hidden_entries_of_y_enter_no_step(self, planted, pins):
        """Values at hidden cells change nothing but the sparse error there,
        which absorbs them: the solve is that of y * w bitwise."""
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
        for a, b in zip(one.selectors, two.selectors):
            assert np.array_equal(a, b)
        assert np.array_equal(one.indiv_coeffs, two.indiv_coeffs)
        assert np.array_equal(one.reconstruction, two.reconstruction)
        assert one.diagnostics == two.diagnostics
        assert np.array_equal(one.sparse_error[~hidden], two.sparse_error[~hidden])
        assert np.allclose(one.sparse_error[hidden] - two.sparse_error[hidden], 1e6,
                           rtol=1e-12)

    def test_mu_schedule(self, planted):
        _, bundle, y, _ = planted
        result = reconstruct(y, None, bundle, config=ReconConfig(t_max=200))
        mu = result.diagnostics.mu_history
        assert mu[0] == 25.0 / float(np.linalg.norm(y))
        for prev, cur in zip(mu, mu[1:]):
            assert cur == min(1.2 * prev, 1e7)

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


class TestBlock:
    """reconstruct_many solves each column as reconstruct solves it alone."""

    @staticmethod
    def assert_close(a, b, scale):
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12 * scale

    def columns(self, planted, layout="own-masks"):
        """Columns covering each path: an all-zero vector, a fully hidden
        one (both take no step), an exact in-model vector, which the first
        step's decode certifies, spiked vectors whose dense out-of-model
        noise keeps the decode from certifying their completions, so that
        they run on and stop at different steps (their transfers certify at
        the vertex), and
        two columns sharing one mask, and one with 3 visible entries, fewer
        than the design's 7 (or 4, pinned; 5 free without the span) columns,
        whose visible design is then rank deficient. With "one-mask", every
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

    @staticmethod
    def decodes(monkeypatch, pins):
        """The runs a test makes: one with the decode; for a transfer, one
        more with `decode.decode` patched to `no_decode`, the ALM alone, since the
        decode certifies every pinned column it may try. The last run is the
        one whose columns stop at different steps."""
        yield
        if pins:
            with monkeypatch.context() as patch:
                patch.setattr(decoder, "decode", no_decode)
                yield

    @pytest.mark.parametrize("layout", ["own-masks", "one-mask", "two-slices"])
    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}], ids=["free", "pinned"])
    @pytest.mark.parametrize("stop, options", [
        ("converged", {}), ("t_max", dict(t_max=6)), ("stalled", dict(mu_max=30.0)),
        ("converged", dict(rank_rule=None)),
        ("t_max", dict(t_max=6, rank_rule=None)),
        ("stalled", dict(mu_max=3.0, rank_rule=None)),
    ], ids=["defaults", "t_max-6", "mu_max-30", "no-span", "no-span-t_max-6", "no-span-mu_max-3"])
    def test_each_column_matches_its_single_solve(self, planted, monkeypatch, layout, pins, stop,
                                                  options):
        """Columns stop at different steps and leave the working set; with
        a small t_max some stop there, with a small mu_max some stall.
        Without the span (rank_rule=None) its coefficients are a
        zero-width block of the design; mu_max = 30 is not small enough to
        stall every such case, so those take mu_max = 3. Past BLOCK_WIDTH
        columns, every slice solves its columns as they are solved alone.
        Transfers are checked with the decode and with the ALM alone, which
        gives the stop reasons and step counts the last asserts look for."""
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted, layout)
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(**{"rank_rule": RankRule.fixed(2), **options})
        for _ in self.decodes(monkeypatch, pins):
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
    def test_a_column_with_no_visible_signal_takes_its_fixed_result(self, planted, monkeypatch,
                                                                   pins, rank_rule):
        """A zero vector and a fully hidden nonzero one take no step, alone
        and in a block whose other columns stop at different steps (for a
        transfer, with the ALM alone; with the decode too). Free
        selectors and span coefficients are zero, pinned selectors the
        trained ones; the reconstruction is the pinned synthesis, which the
        sparse error absorbs on hidden entries alone; the record is that of
        zero input. All of it bitwise, signed zeros included."""
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted)
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(rank_rule=rank_rule)
        for _ in self.decodes(monkeypatch, pins):
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


def no_decode(design, trusted, visible, target, x, norm, eps, pinned):
    """`decode.decode` with nothing certified: the ALM alone."""
    return x, np.zeros(np.shape(norm), dtype=bool)


def pinv_route(design, visible):
    """The x step's maps as `np.linalg.pinv` gives them for every column:
    P P^T with P = pinv(D_v), every column flagged as untrusted."""
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
        gives P, and pinv runs for them alone. A zero-width design (everything pinned, no span)
        has empty maps either way."""
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
        ({"attr1": "a2", "attr2": "b3"}, dict(rank_rule=None), 0.0),
    ], ids=["free", "pinned", "no-span", "zero-width"])
    def test_solves_as_the_pinv_route(self, stock, monkeypatch, pins, options, tol):
        """Stock holdouts solved alone and as one block take the same
        iterations and stop as with the pinv route for the factor, and end
        within 1e-12 of it relative to the input; with a zero-width design
        (every attribute pinned, no span) there is nothing to factor and the
        results are bitwise equal. The decode is not tried on a column whose
        map comes from pinv, so both routes run without it: this compares
        the ALM's two factors."""
        truth, bundle, _ = stock
        monkeypatch.setattr(decoder, "decode", no_decode)
        samples = [holdout_sample(truth, seed) for seed in range(16)]
        Y = np.column_stack([s.y for s in samples])
        W = np.column_stack([s.mask for s in samples])
        spec = TransferSpec.targets(truth.schema, pins)
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

        def spy(*args):
            x, certified = decode(*args)
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
            kept[np.argsort(-mags, kind="stable")[:largest_gap(mags)]] = False
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

    @pytest.mark.parametrize("model", ["planted", "inexact"])
    @pytest.mark.parametrize("pins", [{}, {"attr2": "b3"}], ids=["free", "pinned"])
    def test_certified_columns_pass_an_independent_check(self, stock, monkeypatch, pins, model):
        """`redo` decodes every vector again by `np.linalg.lstsq`, cut round
        by cut round, and the gap cuts certify the same vectors; a vector
        they certify has that refit as its x. A transfer they leave goes to
        the vertex stage, and every one certifies there: its x is the exact
        fit of the k rows it fits best (the basis B), and K = B in the checks
        below. Every certified vector's dual certificate, u = g on K and
        `signs` off K, checked on its own, has ||u||_inf <= 1 and D_v^T u = 0
        to rounding, and the primal-dual gap ||t_v - D_v x||_1 - u^T t_v is
        within the bound eps * ||t_v||_1. A certified completion matches the
        clean vector to 1e-12 on every row the model gets right; it took one
        step and its residual is 0. Every uncertified vector is bitwise the
        ALM's result. On the planted model every completion certifies at the
        first cut; on the inexact one, all but those hiding the shifted row
        certify at the second. Of the 24 transfers to b3 the cuts certify 7,
        through either model, and the vertex stage the other 17."""
        truth, bundle = stock
        if model == "inexact":
            bundle = self.inexact(bundle)
        spec = TransferSpec.targets(truth.schema, pins)
        eps = ReconConfig().eps
        free = [i for i, mode in enumerate(spec.pinned) if mode is None]
        span = build_span(bundle, ReconConfig().rank_rule)
        design = np.concatenate([bundle.bases[i] for i in free] + [span], axis=1)
        k = design.shape[1]
        pinned = sum((bundle.bases[i] @ bundle.bank.selectors[i][:, mode]
                      for i, mode in enumerate(spec.pinned) if mode is not None),
                     np.zeros(bundle.dim))
        right = np.arange(bundle.dim) != SHIFTED_ROW if model == "inexact" else slice(None)
        cuts, vertices = [], 0
        for seed in range(24):
            sample = holdout_sample(truth, seed)
            result, decoded, alm = self.solve(monkeypatch, sample, bundle, spec)
            seen = sample.mask != 0.0
            d_v, y_v = design[seen], (sample.y - pinned)[seen]
            norm = np.linalg.norm(sample.y[seen])
            refit, kept, g, rounds, certifies = self.redo(d_v, y_v, eps, norm)
            got = np.concatenate([result.selectors[i] for i in free] + [result.indiv_coeffs])
            scale = np.linalg.norm(y_v)
            r = y_v - d_v @ got
            if certifies:
                assert decoded
                cuts.append(rounds)
                assert np.linalg.norm(got - refit) <= 1e-12 * scale
            elif pins and decoded:
                vertices += 1
                kept = np.zeros(y_v.size, dtype=bool)
                kept[np.argsort(np.abs(r), kind="stable")[:k]] = True
                exact = np.linalg.solve(d_v[kept], y_v[kept])
                assert np.linalg.norm(got - exact) <= 1e-12 * scale
                g = np.linalg.lstsq(d_v[kept].T, -d_v[~kept].T @ self.signs(r, kept, norm)[~kept],
                                    rcond=None)[0]
            else:
                assert not decoded and self.same(result, alm)
                continue
            u = self.signs(r, kept, norm)
            u[kept] = g
            assert np.abs(u).max() <= 1.0
            assert np.linalg.norm(d_v.T @ u) <= 1e-12 * np.linalg.norm(u)
            gap = np.abs(r).sum() - u @ y_v
            assert -1e-12 * scale <= gap <= eps * np.abs(y_v).sum()
            if not pins:
                clean = np.linalg.norm(sample.clean)
                assert np.linalg.norm((result.reconstruction - sample.clean)[right]) <= 1e-12 * clean
            d = result.diagnostics
            assert (d.iterations, d.stop_reason, d.final_residual) == (1, "converged", 0.0)
        if pins:
            assert (len(cuts), vertices) == (7, 17)
        else:
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

        def spy(design, visible):
            got = maps(design, visible)
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
        stock holdout of seed 2, decoded from its least-squares fit. Nor
        does it enter the vertex stage: the transfer to b3 of that holdout,
        which only the vertex certifies."""
        truth, bundle = stock
        span = build_span(bundle, ReconConfig().rank_rule)
        pinned = bundle.bases[1] @ bundle.bank.selectors[1][:, 2]
        sample = holdout_sample(truth, 2)
        seen = sample.mask != 0.0
        norm, eps = np.linalg.norm(sample.y * seen), ReconConfig().eps
        for design, t, vertex in ((np.concatenate(bundle.bases + [span], axis=1), 0.0, False),
                                  (np.concatenate([bundle.bases[0], span], axis=1), pinned, True)):
            target = (sample.y - t) * seen
            x = np.linalg.lstsq(design[seen], target[seen], rcond=None)[0]
            gap = decoder.decode(design, np.array([True]), seen, target, x, norm, eps, False)
            assert bool(gap[1]) != vertex  # the cuts certify the completion, not the transfer
            for trusted in (True, False):
                out, decoded = decoder.decode(design, np.array([trusted]), seen, target, x,
                                                     norm, eps, vertex)
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

    @staticmethod
    def gap_only(monkeypatch):
        """Patch `decode.decode` to skip its vertex stage: the gap cuts alone."""
        decode = decoder.decode
        monkeypatch.setattr(decoder, "decode", lambda *args: decode(*args[:-1], False))

    @staticmethod
    def parts(result):
        """The free selectors and span coefficients of a transfer to b3."""
        return result.selectors[0].tobytes() + result.indiv_coeffs.tobytes()

    def test_certified_transfers_do_not_read_the_schedule(self, stock, monkeypatch):
        """A certified transfer is the exact fit of its final basis, which
        the schedule does not reach: its selectors, coefficients and
        reconstruction are bitwise the same at rho 1.1 and 1.5, lam 0.05 and
        mu0_scale 10 as at the defaults, while the ALM's results (the decode
        patched out) move with each of them."""
        truth, bundle = stock
        spec = TransferSpec.targets(truth.schema, {"attr2": "b3"})
        samples = [holdout_sample(truth, seed) for seed in range(12)]
        configs = [ReconConfig(rho=1.1), ReconConfig(rho=1.5), ReconConfig(lam=0.05),
                   ReconConfig(mu0_scale=10.0)]

        def solve(config):
            return [reconstruct(s.y, s.mask, bundle, spec, config) for s in samples]

        base = solve(ReconConfig())
        assert all(r.diagnostics.iterations == 1 for r in base)
        for config in configs:
            for a, b in zip(base, solve(config)):
                assert self.parts(a) == self.parts(b)
                assert a.reconstruction.tobytes() == b.reconstruction.tobytes()
        monkeypatch.setattr(decoder, "decode", no_decode)
        alm = solve(ReconConfig())
        for config in configs:
            moved = [np.linalg.norm(a.reconstruction - b.reconstruction)
                     / np.linalg.norm(a.reconstruction) for a, b in zip(alm, solve(config))]
            assert np.median(moved) > 1e-3

    def test_vertex_certified_transfers_match_their_single_solves_bitwise(self, stock,
                                                                         monkeypatch):
        """A vertex-certified column's x is D_B^-1 t_B, read from one
        `np.linalg.inv` of its own basis, so its selectors and coefficients
        are bitwise the same in a block and alone: 34 of 48 stock holdouts
        transferred to b3 certify there (the gap cuts certify the other
        14)."""
        truth, bundle = stock
        spec = TransferSpec.targets(truth.schema, {"attr2": "b3"})
        samples = [holdout_sample(truth, seed) for seed in range(48)]
        Y = np.column_stack([s.y for s in samples])
        W = np.column_stack([s.mask for s in samples])
        block = reconstruct_many(Y, W, bundle, spec)
        alone = [reconstruct(s.y, s.mask, bundle, spec) for s in samples]
        with monkeypatch.context() as patch:
            self.gap_only(patch)
            gap = [reconstruct(s.y, s.mask, bundle, spec).diagnostics.iterations == 1
                   for s in samples]
        vertex = [c for c, r in enumerate(alone) if r.diagnostics.iterations == 1 and not gap[c]]
        assert (len(vertex), sum(gap)) == (34, 14)
        for c in vertex:
            assert block[c].diagnostics.iterations == 1
            assert self.parts(block[c]) == self.parts(alone[c])

    def test_a_singular_weighted_gram_or_basis_falls_back_per_column(self, stock, monkeypatch):
        """A column whose weighted Gram or first basis D_B is singular is not
        certified by the vertex stage, judged column by column: alone it
        comes back bitwise the ALM's result, while its block's other column
        certifies as it does alone. Basis: three rows where the design (the free basis,
        without the span) and the target are zero, which the first IRLS fit
        fits exactly, so they enter D_B; the column that hides them
        certifies. Gram: a design column that is zero on the rows one column
        sees, on `decode.decode` called directly."""
        truth, bundle = stock
        spec = TransferSpec.targets(truth.schema, {"attr2": "b3"})
        config = ReconConfig(rank_rule=None)
        rows = [0, 1, 2]
        bases = [b.copy() for b in bundle.bases]
        bases[0][rows] = 0.0
        zeroed = dataclasses.replace(bundle, bases=bases)
        pinned = bases[1] @ bundle.bank.selectors[1][:, 2]
        samples = [holdout_sample(truth, seed) for seed in (1, 2)]
        for sample, seen in zip(samples, (1.0, 0.0)):
            sample.y[rows] = pinned[rows]
            sample.mask[rows] = seen
        Y = np.column_stack([s.y for s in samples])
        W = np.column_stack([s.mask for s in samples])
        block = reconstruct_many(Y, W, zeroed, spec, config)
        alone = [reconstruct(s.y, s.mask, zeroed, spec, config) for s in samples]
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "decode", no_decode)
            alm = reconstruct(samples[0].y, samples[0].mask, zeroed, spec, config)
        assert self.same(alone[0], alm)
        # In the block, column 0 runs the ALM beside a column that retired
        # after one step: its result matches its single solve to rounding.
        assert block[0].diagnostics.iterations == alm.diagnostics.iterations > 1
        scale = np.linalg.norm(Y[:, 0])
        assert np.linalg.norm(block[0].reconstruction - alm.reconstruction) <= 1e-12 * scale
        assert block[1].diagnostics.iterations == alone[1].diagnostics.iterations == 1
        assert self.parts(block[1]) == self.parts(alone[1])

        design = np.concatenate([bundle.bases[0], build_span(bundle, ReconConfig().rank_rule)],
                                axis=1)
        design[:, 0] = np.where(samples[0].mask != 0.0, 0.0, design[:, 0])
        target = np.column_stack([(s.y - pinned) * s.mask for s in samples])
        seen = W != 0.0
        x = np.column_stack([np.linalg.lstsq(design[m], t[m], rcond=None)[0]
                             for m, t in zip(seen.T, target.T)])
        norm = np.linalg.norm(Y * W, axis=0)
        out, certified = decoder.decode(design, np.ones(2, dtype=bool), seen, target, x,
                                               norm, ReconConfig().eps, True)
        assert certified.tolist() == [False, True]
        assert out[:, 0].tobytes() == x[:, 0].tobytes()

    def test_a_column_at_the_pivot_cap_falls_back(self, stock, monkeypatch):
        """With PIVOTS patched to 0, only transfers whose first basis is
        already a vertex certify there; every other one the gap cuts leave
        is bitwise the ALM's result."""
        truth, bundle = stock
        spec = TransferSpec.targets(truth.schema, {"attr2": "b3"})
        monkeypatch.setattr(decoder, "PIVOTS", 0)
        outcomes = []
        for seed in range(24):
            result, decoded, alm = self.solve(monkeypatch, holdout_sample(truth, seed), bundle, spec)
            if not decoded:
                assert self.same(result, alm)
            outcomes.append(decoded)
        assert sum(outcomes) == 7

    def test_the_vertex_stage_takes_transfers_with_a_design_only(self, stock, monkeypatch):
        """Completions never enter the vertex stage, even where the gap cuts
        certify few of them (50% hidden, 30% spikes); nor does a transfer
        with a zero-width design (every attribute pinned, no span), which
        comes back bitwise the ALM's result."""
        truth, bundle = stock
        calls = []
        vertex = decoder._vertex
        monkeypatch.setattr(decoder, "_vertex", lambda *args: calls.append(1) or vertex(*args))
        free = TransferSpec.all_free(truth.schema)
        decoded = [self.solve(monkeypatch, holdout_sample(truth, seed, 0.5, 0.30, 5.0), bundle,
                              free)[1] for seed in range(6)]
        assert not all(decoded) and calls == []
        spec = TransferSpec.targets(truth.schema, {"attr1": "a2", "attr2": "b3"})
        sample = holdout_sample(truth, 3)
        config = ReconConfig(rank_rule=None)
        result = reconstruct(sample.y, sample.mask, bundle, spec, config)
        monkeypatch.setattr(decoder, "decode", no_decode)
        assert self.same(result, reconstruct(sample.y, sample.mask, bundle, spec, config))
        assert calls == []

    def test_positive_definite_tries_each_matrix_after_a_failure(self):
        """The trust test of the shifted Grams G - NORMAL_RATIO * tr(G) * I
        in `decode.normal_maps`, `_per_matrix` of `np.linalg.cholesky`: a stacked
        Cholesky, and after it fails, one matrix at a time."""
        eye = np.eye(3)
        singular = np.diag([1.0, 1.0, 0.0])

        def positive_definite(a):
            return decoder._per_matrix(np.linalg.cholesky, a)[1].tolist()

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
