"""Operator-level checks: shrinkage, SVT, Procrustes, spans, random bases."""
import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marc import proxops
from marc.dataset import AttributeSchema, SelectorBank
from marc.errors import DegenerateMatrixError, NumericalError, ValidationError
from marc.proxops import (
    GRAM_RATIO,
    POLAR_RATIO,
    RankRule,
    WarmStart,
    _svt_svd,
    deterministic_svd,
    frobenius,
    procrustes,
    random_orthonormal,
    shrink_matrix,
    soft_threshold,
    sorted_gap,
    svt,
)
from marc.reconstructor import build_span
from marc.trainer import ModelBundle, SolverConfig, TrainDiagnostics

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def shrink_scalar(sigma: float, tau: float) -> float:
    """The scalar soft threshold sgn(sigma) * max(|sigma| - tau, 0), the
    reference `shrink_matrix` is checked against entry by entry."""
    return float(np.sign(sigma) * max(abs(sigma) - tau, 0.0))


def test_shrink_matrix_magnitude_exact():
    rng = np.random.default_rng(42)
    sigma = rng.standard_normal((40, 25)) * 10.0 ** rng.integers(-3, 4, size=(40, 25))
    for tau in np.abs(rng.standard_normal(40)):
        out = shrink_matrix(sigma, tau)
        assert np.array_equal(np.abs(out), np.maximum(np.abs(sigma) - tau, 0.0))
        assert np.all(out * sigma >= 0.0)  # never flips sign


@given(finite, nonneg, nonneg)
def test_shrink_matrix_composes(sigma, a, b):
    # Exact in real arithmetic; (|x| - a) - b and |x| - (a + b) round
    # differently in float64, so compare with a tight tolerance.
    m = np.array([[sigma]])
    twice = shrink_matrix(shrink_matrix(m, a), b)[0, 0]
    once = shrink_matrix(m, a + b)[0, 0]
    assert twice == pytest.approx(once, rel=1e-12, abs=1e-9)
    assert twice * sigma >= 0.0 and once * sigma >= 0.0


def test_shrink_matrix_matches_scalar():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((9, 5)) * 3
    tau = 0.8
    out = shrink_matrix(m, tau)
    expect = np.array([[shrink_scalar(v, tau) for v in row] for row in m])
    assert np.array_equal(out, expect)


def test_soft_threshold_is_the_kernel_on_any_shape():
    v = np.random.default_rng(8).standard_normal(40) * 3
    assert np.array_equal(soft_threshold(v, 0.8), shrink_matrix(v[:, None], 0.8)[:, 0])
    assert np.array_equal(soft_threshold(v, 0.0), v)


def descending_magnitudes(values):
    """|values| sorted in descending order along the first axis, as
    `sorted_gap` takes them."""
    return np.sort(np.abs(values), axis=0)[::-1]


@pytest.mark.parametrize("values, count", [
    ([], 0),                                  # empty: no gap
    ([-4.0], 0),                              # one value: no gap
    ([0.0, 0.0, 0.0], 0),                     # all zeros: no gap
    ([2.5, -2.5, 2.5, -2.5], 0),              # all magnitudes equal: no gap
    ([0.01, -7.0, 0.02, 6.5, -0.015], 2),     # two levels, signs ignored
    ([5.0, 1.0, 5.0, 1.0, 1.0], 2),           # tied values fall on one side together
    ([3.0, 2.0, 1.0], 1),                     # tied gaps: the smallest count
    ([1.0, 2.0, 4.0, 6.0], 1),                # gaps 2, 2, 1: the first of the tied two
    ([1e-16, 3e-16, 1e-15], 1),               # absolute, not ratio: 1e-15 stands apart
])
def test_sorted_gap_counts_the_values_above_it(values, count):
    got = sorted_gap(descending_magnitudes(np.array(values)))
    assert type(got) is int and got == count


def test_sorted_gap_cuts_each_column_of_a_matrix():
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(30) * 1e-3 for _ in range(4)]
    columns[0][[2, 9]] = [5.0, -4.0]
    columns[1][:] = 0.0
    columns[3][7] = 1.0
    m = np.column_stack(columns)
    got = sorted_gap(descending_magnitudes(m))
    assert got.shape == (4,)
    assert got.tolist() == [sorted_gap(descending_magnitudes(c)) for c in columns]
    assert got[0] == 2 and got[1] == 0 and got[3] == 1
    assert sorted_gap(descending_magnitudes(np.zeros((0, 3)))).tolist() == [0, 0, 0]
    assert sorted_gap(np.ones((1, 3))).tolist() == [0, 0, 0]


def test_shrink_scalar_zero_threshold_is_identity():
    # The scalar case of the shrink: a 1x1 matrix per value.
    for v in (3.25, -3.25, 0.0):
        assert shrink_matrix(np.array([[v]]), 0.0)[0, 0] == v


def test_shrink_scalar_rejects_bad_input():
    with pytest.raises(ValidationError):
        shrink_matrix(np.array([[float("nan")]]), 1.0)
    with pytest.raises(ValidationError):
        shrink_matrix(np.array([[1.0]]), -0.5)
    with pytest.raises(ValidationError):
        shrink_matrix(np.array([[1.0]]), float("nan"))


def test_shrink_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        shrink_matrix(np.array([1.0, 2.0, np.inf]).reshape(1, 3), 0.1)
    with pytest.raises(ValidationError):
        shrink_matrix(np.ones((2, 2)), -1.0)
    with pytest.raises(ValidationError):
        shrink_matrix(np.ones(4), 0.1)  # 1-D


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 60)])
def test_frobenius_is_the_norm_to_rounding(shape):
    """`frobenius` sums in its own order, not np.linalg.norm's, so the two
    agree to rounding only; an overflowing sum reads inf, without a warning."""
    a = np.random.default_rng(2).standard_normal(shape)
    got = frobenius(a)
    assert type(got) is float and got == pytest.approx(np.linalg.norm(a), rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(np.full(shape, 1e200)) == np.inf


def test_deterministic_svd_reconstructs_and_fixes_signs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.standard_normal((6, 4))
        u, s, vh = deterministic_svd(m)
        assert np.allclose((u * s) @ vh, m, atol=1e-12)
        # the largest-magnitude entry of every left vector is positive
        pivot = np.argmax(np.abs(u), axis=0)
        assert np.all(u[pivot, np.arange(u.shape[1])] > 0)
        u2, s2, vh2 = deterministic_svd(m.copy())
        assert np.array_equal(u, u2) and np.array_equal(s, s2) and np.array_equal(vh, vh2)


def test_svt_spectrum_is_shrunk_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.standard_normal((8, 6)) * rng.uniform(0.1, 10)
        tau = float(rng.uniform(0, 3))
        s_before = np.linalg.svd(m, compute_uv=False)
        out = svt(m, tau)
        s_after = np.linalg.svd(out, compute_uv=False)
        expect = np.maximum(s_before - tau, 0.0)
        assert np.allclose(s_after, expect, rtol=1e-9, atol=1e-9 * s_before[0])
        assert np.linalg.matrix_rank(out) <= np.linalg.matrix_rank(m)


def test_svt_edge_cases():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 5))
    assert np.allclose(svt(m, 0.0), m, atol=1e-12)
    top = np.linalg.norm(m, 2)
    assert np.array_equal(svt(m, top * 1.01), np.zeros_like(m))
    with pytest.raises(ValidationError):
        svt(m, -0.1)


def svd_reference(m, tau):
    u, s, vh = deterministic_svd(m)
    return (u * np.maximum(s - tau, 0.0)) @ vh


def no_svd(m):
    raise AssertionError("fell back to the SVD")


def with_spectrum(rows, cols, s, seed):
    rng = np.random.default_rng(seed)
    k = len(s)
    return (random_orthonormal(rows, k, rng) * np.asarray(s)) @ random_orthonormal(cols, k, rng).T


@pytest.mark.parametrize("shape", [(60, 20), (20, 60), (30, 30)])
def test_svt_gram_path_matches_svd(shape, monkeypatch):
    """Well-conditioned input (s_min/s_max = 0.1) takes the Gram path at
    every threshold, including none."""
    monkeypatch.setattr(proxops, "deterministic_svd", no_svd)
    k = min(shape)
    m = with_spectrum(*shape, np.geomspace(5.0, 0.5, k), seed=sum(shape))
    for tau in (0.0, 0.3, 1.0, 4.0):
        got = svt(m, tau)
        ref = svd_reference(m, tau)
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


@pytest.mark.parametrize("shape", [(60, 40), (40, 60)])
def test_svt_fallback_on_rank_deficient_input(shape):
    """Rank 3 with a tiny threshold: max(tau, s_min) < GRAM_RATIO * s_max,
    so the result comes from the SVD, bitwise, and matches it; so it does
    once the unresolved tail holds a value above tau."""
    m = with_spectrum(*shape, [3.0, 2.0, 1.0], seed=3)
    tau = 1e-9
    got = svt(m, tau)
    assert np.array_equal(got, _svt_svd(m, tau))
    assert np.allclose(got, svd_reference(m, tau), rtol=1e-9, atol=1e-12)
    assert np.linalg.matrix_rank(got) <= np.linalg.matrix_rank(m) == 3
    spilled = with_spectrum(*shape, [3.0, 2.0, 1.0, 1e-6], seed=3)
    assert np.array_equal(svt(spilled, tau), _svt_svd(spilled, tau))


@pytest.mark.parametrize("shape", [(200, 60), (60, 200)])
def test_svt_unresolved_tail_takes_the_svd(shape):
    """Rank 5 over a tail of values at 0.8 tau, all far below GRAM_RATIO *
    s_max, as G looks once training has settled. Without a warm start that
    takes it, the Gram matrix cannot resolve the tail, so the result is the
    SVD path's, bitwise, and a holder whose start is too wide to try is
    handed the SVD's five kept right singular vectors."""
    tau = 1e-4
    k = min(shape)
    s = np.concatenate([[10.0, 8.0, 6.0, 5.0, 4.0], np.full(k - 5, 0.8 * tau)])
    assert tau <= 1e-2 * GRAM_RATIO * s[0]
    m = with_spectrum(*shape, s, seed=12)
    warm = WarmStart(np.eye(k)[:, :k // 3 + 1])
    got = svt(m, tau, warm)
    assert np.array_equal(got, _svt_svd(m, tau))
    lead = np.linalg.svd(m if shape[0] >= shape[1] else m.T)[2][:5].T
    assert warm.basis.shape == (k, 5)
    assert np.allclose(warm.basis @ warm.basis.T, lead @ lead.T, atol=1e-9)
    assert np.linalg.matrix_rank(got) == 5


@pytest.mark.parametrize("shape", [(200, 60), (60, 200)])
def test_svt_tail_above_threshold_falls_back(shape):
    """The same shape with one tail value at 2 tau: the result is the SVD
    path's, bitwise."""
    tau = 1e-4
    k = min(shape)
    s = np.concatenate([[10.0, 8.0, 6.0, 5.0, 4.0, 2.0 * tau], np.full(k - 6, 0.8 * tau)])
    m = with_spectrum(*shape, s, seed=13)
    assert np.array_equal(svt(m, tau), _svt_svd(m, tau))


def test_svt_fallback_on_ill_conditioned_input():
    s = np.geomspace(1.0, 1e-8, 30)
    m = with_spectrum(50, 30, s, seed=4)
    tau = 1e-6 * GRAM_RATIO
    got = svt(m, tau)
    assert np.array_equal(got, _svt_svd(m, tau))
    s_got = np.linalg.svd(got, compute_uv=False)
    assert np.allclose(s_got, np.maximum(s - tau, 0.0), rtol=1e-6, atol=1e-14)


def test_svt_large_threshold_on_rank_deficient_input_keeps_rank():
    """A threshold above GRAM_RATIO * s_max takes the Gram path even when the
    spectrum has exact zeros; those stay removed."""
    m = with_spectrum(60, 40, [3.0, 2.0, 1.0], seed=5)
    got = svt(m, 0.5)
    assert np.allclose(got, svd_reference(m, 0.5), rtol=1e-9, atol=1e-12)
    assert np.linalg.matrix_rank(got) == 3


@pytest.mark.parametrize("path", [svt, _svt_svd])
def test_svt_threshold_above_spectrum_is_exact_zero(path):
    rng = np.random.default_rng(8)
    for shape in ((9, 4), (4, 9), (6, 6)):
        m = rng.standard_normal(shape)
        out = path(m, np.linalg.norm(m, 2) * 1.0001)
        assert out.shape == shape
        assert np.array_equal(out, np.zeros(shape))
    assert np.array_equal(path(np.zeros((5, 3)), 0.0), np.zeros((5, 3)))


@pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
def test_svt_is_bitwise_repeatable(shape):
    rng = np.random.default_rng(9)
    gram_path = rng.standard_normal(shape), 0.5
    fallback = with_spectrum(*shape, [3.0, 2.0, 1.0], seed=9), 1e-12
    for m, tau in (gram_path, fallback):
        assert np.array_equal(svt(m, tau), svt(m.copy(), tau))


def test_svt_never_raises_nuclear_norm():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((7, 9))
    before = np.linalg.svd(m, compute_uv=False).sum()
    after = np.linalg.svd(svt(m, 0.5), compute_uv=False).sum()
    assert after <= before + 1e-12


def flat_tail(shape, tau, seed, lead=(10.0, 8.0, 6.0, 5.0, 4.0), top=0.95):
    """A matrix whose leading singular values are `lead` over a tail drawn
    from [0.5, top] * tau, as the training G step sees once mu has grown,
    and the exact right singular vectors (of m^T if `m` is wide) of `lead`."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    k = min(shape)
    s = np.concatenate([lead, rng.uniform(0.5, top, k - len(lead)) * tau])
    left, right = random_orthonormal(rows, k, rng), random_orthonormal(cols, k, rng)
    m = (left * s) @ right.T
    exact = right if rows >= cols else left
    return m, exact[:, :len(lead)]


def start_basis(kind, exact, seed):
    """A warm start of the given kind for a matrix whose kept right singular
    vectors are `exact`."""
    rng = np.random.default_rng(seed)
    n, k = exact.shape
    if kind == "exact":
        return exact.copy()
    if kind == "perturbed":  # the previous step's basis, a little stale
        return np.linalg.qr(exact + 1e-3 * rng.standard_normal(exact.shape))[0]
    if kind == "random":
        return random_orthonormal(n, k, rng)
    if kind == "too-narrow":  # the rank grew since the start was kept
        return exact[:, :k - 1].copy()
    assert kind == "too-wide"  # the rank shrank
    return np.linalg.qr(np.hstack([exact, rng.standard_normal((n, 3))]))[0]


def spy_warm(monkeypatch):
    """Record whether each call of the warm path returned factors."""
    outcomes = []
    original = proxops._warm_factors

    def spied(*args):
        found = original(*args)
        outcomes.append(found is not None)
        return found

    monkeypatch.setattr(proxops, "_warm_factors", spied)
    return outcomes


def spy_certificates(monkeypatch):
    """Record the name and argument shape of each Gram matrix svt forms
    (`_gram`) and each `positive_definite` test it asks for, in order."""
    calls = []
    for name in ("_gram", "positive_definite"):
        original = getattr(proxops, name)

        def spied(m, *args, name=name, original=original):
            calls.append((name, m.shape))
            return original(m, *args)

        monkeypatch.setattr(proxops, name, spied)
    return calls


def certificate_calls(form, shape):
    """What `spy_certificates` records for an svt call on a `shape` input
    whose warm path reaches the certificate of `form`: the call's own Gram
    matrix of the tall side, then for the "spill" form the Gram matrix of
    the left-out part formed from the input, and one `positive_definite`
    test on the short side."""
    tall, short = (max(shape), min(shape)), (min(shape), min(shape))
    spill = [("_gram", tall)] if form == "spill" else []
    return [("_gram", tall), *spill, ("positive_definite", short)]


# Thresholds well above and well below GRAM_RATIO * s_max (s_max = 10 in
# `flat_tail`): the warm path takes the left-out part's Gram matrix from the
# input's Gram matrix above it ("gram") and forms it from the left-out part
# of the input below it ("spill").
CERTIFICATE_FORMS = ((5e-2, "gram"), (1e-5, "spill"))


@pytest.mark.parametrize("shape", [(200, 60), (64, 256)], ids=["tall", "wide"])
@pytest.mark.parametrize("kind", ["exact", "perturbed", "random", "too-narrow", "too-wide"])
def test_svt_warm_start_matches_svd(shape, kind, monkeypatch):
    """From any start, with either certificate form, the result matches the
    SVD's. An exact, stale or random start takes the warm path, with no
    Gram eigendecomposition, certifies its tail in the form its threshold
    selects, and leaves the holder with the five kept right singular
    vectors. A start too narrow leaves a value above tau in the spill,
    which fails the certificate; one too wide cannot settle its columns in
    the flat tail within WARM_STEPS. Both fall back: above GRAM_RATIO *
    s_max to the Gram path; below it, where the Gram matrix cannot resolve
    the tail, to the SVD, bitwise. Either leaves the same five vectors."""
    for tau, form in CERTIFICATE_FORMS:
        assert (tau >= GRAM_RATIO * 10.0) == (form == "gram")
        with monkeypatch.context() as mp:
            m, exact = flat_tail(shape, tau, seed=21)
            ref = _svt_svd(m, tau)
            outcomes = spy_warm(mp)
            certificates = spy_certificates(mp)
            warm = WarmStart(start_basis(kind, exact, seed=22))
            got = svt(m, tau, warm)
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
            warmed = kind not in ("too-narrow", "too-wide")
            assert outcomes == [warmed]
            if not warmed and form == "spill":
                assert np.array_equal(got, ref)
            assert warm.basis.shape == (min(shape), 5)
            assert np.allclose(warm.basis.T @ warm.basis, np.eye(5), atol=1e-12)
            assert np.allclose(warm.basis @ warm.basis.T, exact @ exact.T, atol=1e-9)
            if warmed:
                assert certificates == certificate_calls(form, shape)
                mp.setattr(np.linalg, "eigh", no_svd)
                assert np.allclose(svt(m, tau, WarmStart(warm.basis)), ref,
                                   rtol=1e-9, atol=1e-9 * np.abs(ref).max())


@pytest.mark.parametrize("scale", [1e75, 1e76, 3e76, 1e77, 3e77, 1e78])
def test_svt_warm_power_step_near_overflow_gives_up_quietly(scale, monkeypatch):
    """A power step applies the Gram matrix twice, so its product overflows
    where the Gram matrix and the Ritz residual do not yet (s_max near
    1e77 with a stale start). The warm path then gives up, with no numpy
    warning, and svt still matches the SVD."""
    m, exact = flat_tail((40, 15), 5e-2, seed=21, lead=(10.0, 8.0))
    m, tau = m * scale, 5e-2 * scale
    outcomes = spy_warm(monkeypatch)
    got = svt(m, tau, WarmStart(start_basis("perturbed", exact, seed=22)))
    ref = _svt_svd(m, tau)
    assert len(outcomes) == 1
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


@pytest.mark.parametrize("shape", [(200, 60), (64, 256)], ids=["tall", "wide"])
def test_svt_warm_certificate_rejects_a_tail_value_above_tau(shape, monkeypatch):
    """One tail value at 1.05 tau: the power steps settle on the five
    leading vectors, but the spill certificate fails, in either form, and
    svt falls back to the Gram matrix's eigendecomposition, whose result it
    returns bitwise, with no further certificate. Above GRAM_RATIO * s_max
    the Gram path keeps the sixth value; below, that value is one the Gram
    matrix cannot resolve, and the result comes from the SVD. Either hands
    the holder the six kept right singular vectors."""
    for tau, form in CERTIFICATE_FORMS:
        with monkeypatch.context() as mp:
            m, exact = flat_tail(shape, tau, seed=23,
                                 lead=(10.0, 8.0, 6.0, 5.0, 4.0, 1.05 * tau))
            cold = svt(m, tau)
            outcomes = spy_warm(mp)
            certificates = spy_certificates(mp)
            grams = []
            eigh = np.linalg.eigh

            def counted(a):
                grams.append(a.shape)
                return eigh(a)

            mp.setattr(np.linalg, "eigh", counted)
            warm = WarmStart(exact[:, :5].copy())
            got = svt(m, tau, warm)
            assert outcomes == [False]
            assert certificates == certificate_calls(form, shape)
            assert grams == [(min(shape), min(shape))]
            assert np.array_equal(got, cold)
            ref = _svt_svd(m, tau)
            if form == "spill":
                assert np.array_equal(got, ref)
            assert warm.basis.shape == (min(shape), 6)
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


@pytest.mark.parametrize("shape", [(200, 60), (64, 256)], ids=["tall", "wide"])
def test_svt_warm_path_declines_an_untrusted_kept_value(shape, monkeypatch):
    """A sixth leading value of 5e-3, above tau = 1e-5 but below
    GRAM_RATIO * s_max = 1e-2: the Ritz matrix cannot resolve it, so the warm
    path declines before any certificate, even from the exact start, and
    the result is the SVD path's, which hands the holder its six kept right
    singular vectors."""
    tau = 1e-5
    m, exact = flat_tail(shape, tau, seed=27, lead=(10.0, 8.0, 6.0, 5.0, 4.0, 5e-3))
    outcomes = spy_warm(monkeypatch)
    certificates = spy_certificates(monkeypatch)
    warm = WarmStart(exact.copy())
    assert np.array_equal(svt(m, tau, warm), _svt_svd(m, tau))
    assert outcomes == [False]
    assert certificates == [("_gram", (max(shape), min(shape)))]
    assert warm.basis.shape == (min(shape), 6)
    assert np.allclose(warm.basis @ warm.basis.T, exact @ exact.T, atol=1e-9)


@pytest.mark.parametrize("shape", [(200, 60), (64, 256)], ids=["tall", "wide"])
def test_svt_warm_start_on_zero_input_and_zero_threshold(shape):
    m, exact = flat_tail(shape, 1e-2, seed=24)
    zero = np.zeros(shape)
    assert np.array_equal(svt(zero, 0.5, WarmStart(exact.copy())), zero)
    assert np.array_equal(svt(zero, 0.0, WarmStart(exact.copy())), zero)
    got = svt(m, 0.0, WarmStart(exact.copy()))
    assert np.allclose(got, m, rtol=1e-9, atol=1e-12 * np.abs(m).max())


@pytest.mark.parametrize("shape", [(200, 60), (64, 256)], ids=["tall", "wide"])
def test_svt_warm_start_is_bitwise_repeatable(shape):
    tau = 1e-2
    m, exact = flat_tail(shape, tau, seed=25)
    start = start_basis("perturbed", exact, seed=26)
    one, two = WarmStart(start.copy()), WarmStart(start.copy())
    assert np.array_equal(svt(m, tau, one), svt(m.copy(), tau, two))
    assert np.array_equal(one.basis, two.basis)


def test_procrustes_orthonormal_and_optimal():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = rng.standard_normal((3, 6))
        b = rng.standard_normal((5, 6))
        omega = procrustes(b @ a.T)
        assert np.allclose(omega.T @ omega, np.eye(3), atol=1e-10)
        best = np.linalg.norm(omega @ a - b)
        for _ in range(40):
            q = random_orthonormal(5, 3, rng)
            assert best <= np.linalg.norm(q @ a - b) + 1e-9


def test_procrustes_identity_fixed_point():
    eye = np.eye(4)
    assert np.allclose(procrustes(eye), eye, atol=1e-12)


def svd_polar(m):
    u, _, vh = deterministic_svd(m)
    return u @ vh


@pytest.mark.parametrize("shape", [(64, 32), (200, 4), (32, 64), (12, 12)])
@pytest.mark.parametrize("kappa", [1.0, 1e2, 0.99e4])
def test_procrustes_gram_path_matches_svd(shape, kappa, monkeypatch):
    """Condition number up to 1 / POLAR_RATIO: the Gram polar factor with
    its Newton-Schulz polish, no SVD, orthonormal to 1e-14 and within 1e-9
    of the SVD's factor."""
    assert kappa < 1.0 / POLAR_RATIO
    k = min(shape)
    m = with_spectrum(*shape, np.geomspace(3.0, 3.0 / kappa, k), seed=k)
    ref = svd_polar(m)
    monkeypatch.setattr(proxops, "deterministic_svd", no_svd)
    q = procrustes(m)
    gram = q.T @ q if shape[0] >= shape[1] else q @ q.T
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-14
    assert np.max(np.abs(q - ref)) <= 1e-9


@pytest.mark.parametrize("m", [
    np.zeros((5, 3)),
    np.zeros((3, 5)),
    with_spectrum(6, 4, [3.0, 2.0, 1.0], seed=14),
    with_spectrum(4, 6, [3.0, 2.0, 1.0], seed=15),
    with_spectrum(20, 8, np.geomspace(1.0, 1e-5, 8), seed=16),
], ids=["zero-tall", "zero-wide", "rank3-tall", "rank3-wide", "kappa1e5"])
def test_procrustes_degenerate_input_takes_the_svd_path(m):
    assert np.array_equal(procrustes(m), svd_polar(m))


@pytest.mark.parametrize("kernel", [
    procrustes,
    lambda m: svt(m, 1.0),
    lambda m: svt(m, 1.0, WarmStart(np.eye(4)[:, :1])),
], ids=["procrustes", "svt", "svt-warm"])
def test_overflowing_gram_is_a_numerical_error(kernel):
    # The input is finite but its Gram matrix overflows: the kernel says so,
    # before any power step or eigendecomposition, with no numpy warning.
    m = np.random.default_rng(0).standard_normal((30, 4)) * 1e160
    name = "procrustes" if kernel is procrustes else "svt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{name} Gram overflows float64$"):
            kernel(m)


@pytest.mark.parametrize("shape", [(30, 4), (4, 30)], ids=["tall", "wide"])
@pytest.mark.parametrize("scale, entry, error, message", [
    (1.0, np.nan, ValidationError, "input contains non-finite entries"),
    (1.0, np.inf, ValidationError, "input contains non-finite entries"),
    (1e160, np.inf, ValidationError, "input contains non-finite entries"),
    (1e160, 1.0, NumericalError, "Gram overflows float64"),
], ids=["nan", "inf", "inf-among-overflowing", "overflowing"])
@pytest.mark.parametrize("kernel", [
    procrustes,
    lambda m: svt(m, 1.0),
    lambda m: svt(m, 1.0, WarmStart(np.eye(4)[:, :1])),
], ids=["procrustes", "svt", "svt-warm"])
def test_non_finite_input_is_told_from_an_overflowing_gram(kernel, shape, scale, entry,
                                                           error, message):
    """svt and procrustes check their input through the Gram matrix they
    form: a NaN or infinite entry is the input's fault, also among entries
    whose Gram matrix overflows, and a finite input whose Gram matrix
    overflows is a numerical failure. No case gives a numpy warning."""
    m = np.random.default_rng(1).standard_normal(shape) * scale
    m[2, 3] = entry
    name = "procrustes" if kernel is procrustes else "svt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{name} {message}$"):
            kernel(m)


def test_only_proxops_names_cholesky():
    """One test of positive definiteness serves the package: of the modules
    of `marc`, only `proxops` names `np.linalg.cholesky`, in
    `positive_definite`."""
    naming = set()
    for path in Path(proxops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (node.attr if isinstance(node, ast.Attribute)
                     else node.id if isinstance(node, ast.Name)
                     else node.name if isinstance(node, ast.alias) else None)
            if named == "cholesky":
                naming.add(path.name)
    assert naming == {"proxops.py"}


def rank_r_span(m, rule):
    """The leading left-singular span of `m`, as `build_span` cuts it from
    a bundle whose individual part is `m`, with no attribute and a zero
    sparse part."""
    bundle = ModelBundle(schema=AttributeSchema.of([]), bases=[], bank=SelectorBank([]),
                         individual=m, sparse_error=np.zeros_like(m),
                         diagnostics=TrainDiagnostics.zero_input(1.0), config=SolverConfig())
    return build_span(bundle, rule)


def test_rank_r_span_explicit_and_energy():
    rng = np.random.default_rng(31)
    u = random_orthonormal(12, 4, rng)
    v = random_orthonormal(9, 4, rng)
    m = (u * np.array([8.0, 4.0, 2.0, 1.0])) @ v.T

    span2 = rank_r_span(m, RankRule.fixed(2))
    assert span2.shape == (12, 2)
    assert np.allclose(span2.T @ span2, np.eye(2), atol=1e-10)
    # leading subspace: projector matches the planted one
    planted = u[:, :2]
    assert np.allclose(span2 @ span2.T, planted @ planted.T, atol=1e-8)

    # energies cumulate 64, 80, 84, 85; 0.9 * 85 = 76.5 needs two directions
    assert rank_r_span(m, RankRule.energy_fraction(0.9)).shape[1] == 2
    assert rank_r_span(m, RankRule.energy_fraction(1.0)).shape[1] == 4
    assert rank_r_span(m, RankRule.energy_fraction(1e-9)).shape[1] == 1


def test_rank_r_span_rejects_degenerate():
    with pytest.raises(DegenerateMatrixError):
        rank_r_span(np.zeros((4, 4)), RankRule.fixed(1))
    with pytest.raises(ValidationError):
        rank_r_span(np.eye(3), RankRule.fixed(4))
    with pytest.raises(ValidationError):
        rank_r_span(np.eye(3), "two")


def test_rank_rule_validation():
    with pytest.raises(ValidationError):
        RankRule()
    with pytest.raises(ValidationError):
        RankRule(explicit=2, energy=0.5)
    with pytest.raises(ValidationError):
        RankRule.fixed(0)
    with pytest.raises(ValidationError, match="explicit rank must be an integer, got 2.5"):
        RankRule(explicit=2.5)
    with pytest.raises(ValidationError):
        RankRule.energy_fraction(0.0)
    with pytest.raises(ValidationError):
        RankRule.energy_fraction(1.5)


def test_random_orthonormal_properties():
    rng = np.random.default_rng(77)
    q = random_orthonormal(10, 3, rng)
    assert q.shape == (10, 3)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    q1 = random_orthonormal(10, 3, np.random.default_rng(123))
    q2 = random_orthonormal(10, 3, np.random.default_rng(123))
    assert np.array_equal(q1, q2)
    with pytest.raises(ValidationError):
        random_orthonormal(3, 10, rng)
