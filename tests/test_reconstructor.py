"""Per-vector reconstruction: contracts and recovery at the default
configuration, and recovery quality at a gentle penalty start
(mu0_scale=1.25). The planted-model fixtures make the correct answer known
in closed form."""
import dataclasses
import warnings

import numpy as np
import pytest

from conftest import bundle_from_truth
from marc import reconstructor
from marc.dataset import AttributeSchema
from marc.errors import DegenerateMatrixError, NumericalError, ValidationError
from marc.proxops import RankRule, deterministic_svd, svd_span
from marc.reconstructor import (
    ReconConfig,
    TransferSpec,
    _normal_maps,
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

    @pytest.mark.parametrize("bad", [dict(rho=1.0), dict(t_max=0), dict(mu_max=float("inf"))])
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
        with pytest.raises(DegenerateMatrixError, match="use_individual=False"):
            build_span(bundle)
        # An explicit rank finds no span either, so the message offers none.
        with pytest.raises(DegenerateMatrixError, match="use_individual=False") as info:
            build_span(bundle, RankRule.fixed(2))
        assert "rank" not in str(info.value)

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
        cfg = ReconConfig(use_individual=False, mu0_scale=1.25)
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
        cfg = ReconConfig(use_individual=False)
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
        _, bundle, y, _ = planted
        spiked = y.copy()
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
        one (both take no step), an exact in-model vector, which converges
        early and leaves the working set, spiked vectors that run on, and
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

    @pytest.mark.parametrize("layout", ["own-masks", "one-mask", "two-slices"])
    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}], ids=["free", "pinned"])
    @pytest.mark.parametrize("stop, options", [
        ("converged", {}), ("t_max", dict(t_max=6)), ("stalled", dict(mu_max=30.0)),
        ("converged", dict(use_individual=False)),
        ("t_max", dict(t_max=6, use_individual=False)),
        ("stalled", dict(mu_max=3.0, use_individual=False)),
    ], ids=["defaults", "t_max-6", "mu_max-30", "no-span", "no-span-t_max-6", "no-span-mu_max-3"])
    def test_each_column_matches_its_single_solve(self, planted, layout, pins, stop, options):
        """Columns stop at different steps and leave the working set; with
        a small t_max some stop there, with a small mu_max some stall.
        Without the span (use_individual=False) its coefficients are a
        zero-width block of the design; mu_max = 30 is not small enough to
        stall every such case, so those take mu_max = 3. Past BLOCK_WIDTH
        columns, every slice solves its columns as they are solved alone."""
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted, layout)
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(rank_rule=RankRule.fixed(2), **options)
        block = reconstruct_many(Y, W, bundle, spec, config)
        assert len(block) == Y.shape[1]
        reasons = set()
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
            reasons.add(g.stop_reason)
        assert stop in reasons
        if stop != "t_max":
            assert len({r.diagnostics.iterations for r in block if r.diagnostics.iterations}) > 2

    @pytest.mark.parametrize("pins", [{}, {"tint": "cool"}], ids=["free", "pinned"])
    @pytest.mark.parametrize("use_individual", [True, False], ids=["span", "no-span"])
    def test_a_column_with_no_visible_signal_takes_its_fixed_result(self, planted, pins,
                                                                   use_individual):
        """A zero vector and a fully hidden nonzero one take no step, alone
        and in a block whose other columns stop at different steps. Free
        selectors and span coefficients are zero, pinned selectors the
        trained ones; the reconstruction is the pinned synthesis, which the
        sparse error absorbs on hidden entries alone; the record is that of
        zero input. All of it bitwise, signed zeros included."""
        truth, bundle, _, _ = planted
        Y, W = self.columns(planted)
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(rank_rule=RankRule.fixed(2), use_individual=use_individual)
        block = reconstruct_many(Y, W, bundle, spec, config)
        assert len({result.diagnostics.iterations for result in block[2:]}) > 2
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
                assert bitwise(result.indiv_coeffs, np.zeros(2 if use_individual else 0))
                assert bitwise(result.reconstruction, synthesis)
                assert bitwise(result.sparse_error,
                               np.where(visible, 0.0, y - result.reconstruction))
                assert result.diagnostics == TrainDiagnostics.zero_input(
                    config.effective_lam(bundle.dim, 1))

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


def pinv_route(design, visible):
    """The x step's factor as `np.linalg.pinv` gives it for every column:
    the maps P P^T and every P as a fallback, with P = pinv(D_v)."""
    factors = {c: np.linalg.pinv(design[mask]) for c, mask in enumerate(visible.T)}
    return np.stack([p @ p.T for p in factors.values()]), factors


class TestNormalMaps:
    """The x step's factor, (D_v^T D_v)^-1 from one stacked eigendecomposition
    of the Grams, against the pinv route P P^T, P = pinv(D_v), on the design
    of the stock model: the free bases and the default span, 12 columns."""

    @pytest.fixture(scope="class")
    def stock(self, default_instance):
        _, truth = default_instance
        bundle = bundle_from_truth(truth)
        return truth, bundle, np.concatenate(bundle.bases + [build_span(bundle)], axis=1)

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
        block, fallback = _normal_maps(design, visible)
        alone = [_normal_maps(design, mask[:, None]) for mask in visible.T[:8]]
        assert calls == [] and fallback == {} and all(not f for _, f in alone)
        for got, ref in zip(block, want):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        for (got, _), ref in zip(alone, want):
            assert np.linalg.norm(got[0] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["few-rows", "duplicated-column", "zero-width"])
    def test_untrusted_columns_take_the_pinv_route_bitwise(self, stock, monkeypatch, case):
        """A column that sees fewer rows than the design has columns, and
        every column of a design with a duplicated column (both have a
        singular Gram), take P and P P^T exactly as pinv gives them, and pinv
        runs for them alone. A zero-width design (everything pinned, no span)
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
        want, factors = pinv_route(design, visible)
        calls = self.spy(monkeypatch)
        maps, fallback = _normal_maps(design, visible)
        assert calls == [np.count_nonzero(visible[:, c]) for c in untrusted]
        assert sorted(fallback) == untrusted
        for c in untrusted:
            assert np.array_equal(fallback[c], factors[c])
            assert np.array_equal(maps[c], want[c])
        if case == "few-rows":
            trusted = [0, 1, 3, 4, 5]
            assert np.linalg.norm(maps[trusted] - want[trusted]) <= 1e-12 * np.linalg.norm(want)
        assert maps.shape == want.shape

    @pytest.mark.parametrize("pins, options, tol", [
        ({}, {}, 1e-12), ({"attr2": "b3"}, {}, 1e-12), ({}, dict(use_individual=False), 1e-12),
        ({"attr1": "a2", "attr2": "b3"}, dict(use_individual=False), 0.0),
    ], ids=["free", "pinned", "no-span", "zero-width"])
    def test_solves_as_the_pinv_route(self, stock, monkeypatch, pins, options, tol):
        """Stock holdouts solved alone and as one block take the same
        iterations and stop as with the pinv route for the factor, and end
        within 1e-12 of it relative to the input; with a zero-width design
        (every attribute pinned, no span) there is nothing to factor and the
        results are bitwise equal."""
        truth, bundle, _ = stock
        samples = [holdout_sample(truth, seed) for seed in range(16)]
        Y = np.column_stack([s.y for s in samples])
        W = np.column_stack([s.mask for s in samples])
        spec = TransferSpec.targets(truth.schema, pins)
        config = ReconConfig(**options)

        def solve():
            alone = [reconstruct(Y[:, c], W[:, c], bundle, spec, config) for c in range(Y.shape[1])]
            return alone + reconstruct_many(Y, W, bundle, spec, config)

        gram = solve()
        monkeypatch.setattr(reconstructor, "_normal_maps", pinv_route)
        pinv = solve()
        for c, (a, b) in enumerate(zip(gram, pinv)):
            scale = np.linalg.norm(Y[:, c % Y.shape[1]])
            for field in ("iterations", "stop_reason", "converged"):
                assert getattr(a.diagnostics, field) == getattr(b.diagnostics, field)
            for x, y in zip([*a.selectors, a.indiv_coeffs, a.sparse_error, a.reconstruction],
                            [*b.selectors, b.indiv_coeffs, b.sparse_error, b.reconstruction]):
                assert np.linalg.norm(x - y) <= tol * scale
