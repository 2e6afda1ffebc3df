"""Planted-instance generator, scoring, and the self-contained reference
solvers it cross-checks against."""
import dataclasses

import numpy as np
import pytest

from conftest import bundle_from_truth
from marc.dataset import AttributeSchema
from marc.errors import ValidationError
from marc.proxops import procrustes
from marc.synthbench import (
    SUPPORT_THRESHOLD,
    SynthSpec,
    default_spec,
    generate,
    holdout_sample,
    procrustes_sampling_oracle,
    recovery_metrics,
    rpca_reference,
)

TWO_ATTR = AttributeSchema.of([("shape", ["round", "square"]),
                               ("tint", ["warm", "cool", "none"])])


class TestSpecValidation:
    def test_default_spec_shape(self):
        spec = default_spec()
        assert (spec.dim, spec.count, spec.rank_g) == (200, 60, 5)
        assert [spec.schema.size(i) for i in range(spec.schema.count)] == [3, 4]

    @pytest.mark.parametrize("kw", [
        dict(dim=0), dict(count=0), dict(rank_g=-1), dict(rank_g=18),
        dict(rank_g=10, dim=50, count=50), dict(sparsity=1.0),
        dict(sparsity=-0.1), dict(missing_frac=1.0), dict(noise_amp=0.0),
        dict(seed=-5), dict(seed=True), dict(seed=2.0), dict(dim=50.5),
        dict(rank_g=5, count=5),
    ])
    def test_bad_parameters(self, kw):
        with pytest.raises(ValidationError):
            SynthSpec(schema=TWO_ATTR, **kw)

    def test_too_many_instantiations(self):
        wide = AttributeSchema.of([("kind", [f"k{j}" for j in range(9)])])
        with pytest.raises(ValidationError, match="than samples"):
            SynthSpec(schema=wide, dim=20, count=6)
        with pytest.raises(ValidationError, match="than dimensions"):
            SynthSpec(schema=wide, dim=4, count=30)

    def test_more_gross_errors_than_visible_cells(self):
        # 200 x 60 = 12000 cells: 7200 errors, 6000 hidden, 6000 visible
        with pytest.raises(ValidationError, match="7200 gross errors.*only 6000 visible"):
            dataclasses.replace(default_spec(), sparsity=0.6, missing_frac=0.5)
        spec = dataclasses.replace(default_spec(), dim=10, count=10,
                                   sparsity=0.5, missing_frac=0.5)
        _, truth = generate(spec)  # exactly as many errors as visible cells
        assert np.count_nonzero(truth.sparse_error) == np.count_nonzero(truth.mask) == 50


@pytest.fixture(scope="module")
def drawn():
    spec = SynthSpec(schema=TWO_ATTR, dim=30, count=18, rank_g=2,
                     sparsity=0.04, missing_frac=0.1, noise_amp=5.0, seed=3)
    return spec, generate(spec)


@pytest.fixture(scope="module")
def holdout_truth():
    spec = SynthSpec(schema=TWO_ATTR, dim=50, count=24, rank_g=2,
                     sparsity=0.04, missing_frac=0.1, seed=6)
    return generate(spec)[1]


@pytest.fixture(scope="module")
def scored_pair(drawn):
    _, (_, truth) = drawn
    return truth, bundle_from_truth(truth)


class TestGenerate:
    def test_deterministic_in_seed(self, drawn):
        spec, (ts, truth) = drawn
        ts2, truth2 = generate(spec)
        assert np.array_equal(ts.X, ts2.X)
        assert np.array_equal(ts.W, ts2.W)
        assert np.array_equal(truth.sparse_error, truth2.sparse_error)
        for a, b in zip(truth.bases, truth2.bases):
            assert np.array_equal(a, b)

    def test_data_decomposes_exactly(self, drawn):
        _, (ts, truth) = drawn
        clean = truth.individual.copy()
        for i in range(truth.schema.count):
            clean += truth.bases[i] @ truth.bank.selectors[i][:, truth.assignments[i]]
        assert np.array_equal(truth.data, clean + truth.sparse_error)
        assert np.array_equal(ts.X, truth.data)
        assert np.array_equal(ts.W, truth.mask)
        # hidden cells carry no gross error, so data == clean there
        hidden = truth.mask == 0.0
        assert np.array_equal(truth.data[hidden], clean[hidden])

    def test_planted_counts(self, drawn):
        spec, (_, truth) = drawn
        cells = spec.dim * spec.count
        assert np.count_nonzero(truth.mask == 0.0) == round(spec.missing_frac * cells)
        support = truth.sparse_error != 0.0
        assert np.count_nonzero(support) == round(spec.sparsity * cells)
        assert np.all(np.abs(truth.sparse_error[support]) == spec.noise_amp)
        assert np.all(truth.mask[support] == 1.0)

    def test_individual_spectrum_is_prescribed(self, drawn):
        _, (_, truth) = drawn
        s = np.linalg.svd(truth.individual, compute_uv=False)
        assert np.allclose(s[:2], [10.0, 9.0], atol=1e-9)
        assert np.all(s[2:] < 1e-9)
        for basis in truth.bases:
            gram = basis.T @ basis
            assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-12)

    def test_assignments_cover_and_match_labels(self, drawn):
        _, (ts, truth) = drawn
        for i in range(truth.schema.count):
            seen = np.unique(truth.assignments[i])
            assert set(seen) == set(range(truth.schema.size(i)))
            assert np.array_equal(ts.label_index[i], truth.assignments[i])
            assert ts.label_index[i].dtype == np.int64
        assert np.array_equal(ts.X, truth.data) and np.array_equal(ts.W, truth.mask)

    def test_rank_zero_drops_individual(self):
        spec = SynthSpec(schema=TWO_ATTR, dim=20, count=12, rank_g=0,
                         sparsity=0.0, missing_frac=0.0, seed=1)
        _, truth = generate(spec)
        assert not np.any(truth.individual)
        assert truth.g_left.shape == (20, 0)
        assert truth.g_singulars.size == 0


class TestHoldout:
    def test_deterministic(self, holdout_truth):
        one = holdout_sample(holdout_truth, seed=9)
        two = holdout_sample(holdout_truth, seed=9)
        assert np.array_equal(one.y, two.y)
        assert np.array_equal(one.mask, two.mask)
        assert one.labels == two.labels

    def test_clean_part_is_in_model(self, holdout_truth):
        ho = holdout_sample(holdout_truth, seed=9)
        shared = np.zeros(50)
        for i in range(holdout_truth.schema.count):
            j = holdout_truth.schema.inst_index(i, ho.labels[holdout_truth.schema.name(i)])
            shared += holdout_truth.bases[i] @ holdout_truth.bank.selectors[i][:, j]
        indiv = ho.clean - shared
        # the leftover must lie inside the planted individual span
        outside = indiv - holdout_truth.g_left @ (holdout_truth.g_left.T @ indiv)
        assert np.linalg.norm(outside) <= 1e-10

    def test_corruption_and_mask_structure(self, holdout_truth):
        ho = holdout_sample(holdout_truth, seed=9, missing_frac=0.3, sparsity=0.05,
                            noise_amp=4.0)
        assert np.count_nonzero(ho.mask == 0.0) == round(0.3 * 50)
        spikes = ho.y - ho.clean
        support = spikes != 0.0
        assert np.count_nonzero(support) == round(0.05 * 50)
        assert np.all(np.abs(spikes[support]) == 4.0)
        assert np.all(ho.mask[support] == 1.0)

    @pytest.mark.parametrize("kw, message", [
        (dict(seed=-1), "seed must be a non-negative integer, got -1"),
        (dict(seed=2.0), "seed must be an integer, got 2.0"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(missing_frac=1.5), r"missing_frac must be in \[0, 1\), got 1.5"),
        (dict(missing_frac=1.0), r"missing_frac must be in \[0, 1\), got 1.0"),
        (dict(sparsity=-0.1), r"sparsity must be in \[0, 1\), got -0.1"),
        (dict(sparsity=float("nan")), r"sparsity must be in \[0, 1\), got nan"),
        (dict(noise_amp=float("nan")), "noise_amp must be positive, got nan"),
        (dict(noise_amp=float("inf")), "noise_amp must be positive, got inf"),
        (dict(noise_amp=0.0), "noise_amp must be positive, got 0.0"),
        (dict(missing_frac=0.9, sparsity=0.5),
         "sparsity asks for 25 gross errors but missing_frac leaves only 5 visible cells"),
    ], ids=["seed-negative", "seed-float", "seed-bool", "missing_frac-1.5", "missing_frac-1",
            "sparsity-negative", "sparsity-nan", "noise_amp-nan", "noise_amp-inf", "noise_amp-0",
            "more-errors-than-visible-cells"])
    def test_bad_arguments(self, holdout_truth, kw, message):
        """Each raised a raw numpy ValueError, returned a non-finite y
        (noise_amp=nan) or planted fewer gross errors than asked (more errors
        than visible cells) before holdout_sample checked its arguments the
        way SynthSpec does."""
        with pytest.raises(ValidationError, match=message):
            holdout_sample(holdout_truth, **{"seed": 9, **kw})


class TestRecoveryMetrics:
    def test_perfect_bundle_scores_perfectly(self, scored_pair):
        truth, bundle = scored_pair
        report = recovery_metrics(bundle, truth)
        assert report.clean_rel_err_observed == 0.0
        assert report.clean_rel_err_overall == 0.0
        assert report.support_precision == 1.0
        assert report.support_recall == 1.0
        assert report.support_f1 == 1.0
        assert all(angle <= 1e-6 for angle in report.subspace_angles)

    def test_missing_error_support_scores_zero_recall(self, scored_pair):
        truth, bundle = scored_pair
        bundle = bundle_from_truth(truth)
        bundle = dataclasses.replace(bundle, sparse_error=np.zeros_like(bundle.sparse_error))
        report = recovery_metrics(bundle, truth)
        assert report.support_precision == 1.0  # no predictions, no false alarms
        assert report.support_recall == 0.0
        assert report.support_f1 == 0.0

    def test_report_serialization(self, scored_pair):
        truth, bundle = scored_pair
        report = recovery_metrics(bundle, truth)
        d = report.to_dict()
        assert d["support_f1"] == 1.0
        assert len(d["subspace_angles"]) == truth.schema.count
        text = report.to_text()
        assert "support_f1=1.000000" in text
        assert text.endswith("\n")

    def test_shape_and_schema_mismatch(self, scored_pair):
        truth, bundle = scored_pair
        other = generate(SynthSpec(schema=TWO_ATTR, dim=31, count=18, seed=3))[1]
        with pytest.raises(ValidationError, match="does not match"):
            recovery_metrics(bundle, other)
        relabeled = generate(SynthSpec(
            schema=AttributeSchema.of([("shape", ["round", "square"]),
                                       ("hue", ["warm", "cool", "none"])]),
            dim=30, count=18, rank_g=2, sparsity=0.04, missing_frac=0.1,
            seed=3))[1]
        with pytest.raises(ValidationError, match="schemas differ"):
            recovery_metrics(bundle, relabeled)

    def test_support_threshold_is_strict(self):
        assert SUPPORT_THRESHOLD == 1e-6


class TestRpcaReference:
    def test_exact_on_clean_low_rank(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))
        L, S = rpca_reference(X)
        assert np.linalg.norm(L - X) / np.linalg.norm(X) <= 1e-5
        assert np.abs(S).max() <= 1e-5

    def test_splits_spikes_from_low_rank(self):
        rng = np.random.default_rng(8)
        L0 = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 60))
        E0 = np.where(rng.random((60, 60)) < 0.05,
                      3.0 * np.sign(rng.standard_normal((60, 60))), 0.0)
        L, S = rpca_reference(L0 + E0)
        assert np.linalg.norm(L - L0) / np.linalg.norm(L0) <= 1e-5
        assert np.linalg.norm(S - E0) / np.linalg.norm(E0) <= 1e-5

    def test_masked_cells_are_completed(self):
        rng = np.random.default_rng(8)
        L0 = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 60))
        W = (rng.random((60, 60)) >= 0.1).astype(float)
        L, S = rpca_reference(L0 * W, W)
        hidden = W == 0.0
        assert np.linalg.norm((L - L0)[hidden]) / np.linalg.norm(L0[hidden]) <= 1e-4

    def test_zero_matrix(self):
        L, S = rpca_reference(np.zeros((4, 5)))
        assert not np.any(L) and not np.any(S)

    def test_validation(self):
        with pytest.raises(ValidationError, match="2-D"):
            rpca_reference(np.zeros(5))
        with pytest.raises(ValidationError, match="shape"):
            rpca_reference(np.zeros((4, 5)), W=np.ones((5, 4)))
        with pytest.raises(ValidationError, match="binary"):
            rpca_reference(np.zeros((4, 5)), W=np.full((4, 5), 0.5))


class TestProcrustesOracle:
    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = rng.standard_normal((3, 7))
            b = rng.standard_normal((6, 7))
            best_possible = np.linalg.norm(procrustes(b @ a.T) @ a - b)
            sampled = procrustes_sampling_oracle(a, b, n_samples=400, seed=2)
            assert sampled >= best_possible - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 5))
        b = rng.standard_normal((4, 5))
        assert procrustes_sampling_oracle(a, b, 300, seed=3) \
            == procrustes_sampling_oracle(a, b, 300, seed=3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            procrustes_sampling_oracle(np.zeros((2, 3)), np.zeros((4, 5)), 10, 0)
