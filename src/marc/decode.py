"""Certified least-absolute-deviations decoding of vectors through a design.

Given a dim x k design D, a visibility mask and a target t per column, the
decoder looks for the least-absolute-deviations (LAD) fit
min_x ||t_v - D_v x||_1 of each column's visible rows, and certifies what it
finds: a duality gap bounds the distance of its fit to every LAD optimum.
It reads only the design, the masks, the targets, a least-squares start, the
columns' norms and a tolerance, so it serves any caller that holds those;
`reconstructor` runs it at the first penalty step of a reconstruction.

Least-squares fits go through each column's k x k normal map
(D_v^T D_v)^-1 (`normal_maps`): the decoder's refits, and every x step of a
reconstruction, a lone vector's as a block's. Every map comes from its Gram
G = D_v^T D_v by one rule: tested by a stacked Cholesky factorization and
inverted by one stacked `np.linalg.inv`. The normal equations square the
condition number, so a Gram is trusted only when its smallest eigenvalue is
above NORMAL_RATIO times its trace; any other column (a rank-deficient or
ill-conditioned visible design, or one with fewer than k rows) takes its map
P P^T from P = `np.linalg.pinv(D_v)` instead.

The LAD fit is often exact or nearly so, the gross errors being the rows it
misses (Candes & Tao, Decoding by linear programming, IEEE Trans. Inf.
Theory 2005). `decode` takes each column from its least-squares fit in two
stages. The gap cuts: it cuts the rows above the largest absolute gap of the
residual, refits on the kept rows alone through their own normal map,
trusted by the same NORMAL_RATIO rule, and certifies the refit by a dual
certificate whose duality gap bounds its distance to every LAD optimum by
eps * ||w .* target||_1. The refit need not fit the kept rows exactly, so
columns certify through inexact (trained) designs too. A column whose refit
fails on that bound alone cuts again, up to DECODE_ROUNDS cuts. The vertex:
a column the cuts leave is taken, when the caller asks for it, to an exact
LAD solution, a vertex where the design fits k visible rows exactly, by
reweighted least squares and a basis exchange (Barrodale & Roberts, SIAM J.
Numer. Anal. 1973), and certified by the same certificate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .proxops import largest_gap

# Each least-squares fit inverts a column's k x k Gram D_v^T D_v, which
# squares the condition number: its eigenvalues carry an absolute error of
# about eps * lambda_max, so the inverse carries a relative error of about
# eps * cond(D_v)^2 = eps * lambda_max / lambda_min. A Gram G is trusted
# when every eigenvalue is above NORMAL_RATIO * tr(G), which a Cholesky
# factorization of G - NORMAL_RATIO * tr(G) * I tests; as tr(G) >= lambda_max,
# that error is then below ~2e-13 (cond(D_v) < 32), and as
# tr(G) <= k * lambda_max, every Gram with cond(D_v) below
# 1 / sqrt(k * NORMAL_RATIO) (9.1 at k = 12) is trusted. On the benchmark's
# held-out masks (seeds 1 and 11) the stock and cli-pipeline designs have
# cond(D_v) <= 6.7.
NORMAL_RATIO = 1e-3

# The decode certifies a column only when its certificate g has
# ||g||_inf <= 1 - CERT_MARGIN: the margin keeps a certificate that only
# rounding puts below 1 from counting. A column that fails on its misfit
# alone cuts again, up to DECODE_ROUNDS cuts in all. Two suffice through
# cli-pipeline's trained stock bundle (200 held-out completions of seed 1
# certify by the second cut) and through the planted model with one basis row
# moved. More cuts certify more where gross errors are dense: over 13 cells
# of 20 stock holdouts (the decoder grid's hidden fractions, spike densities
# and amplitudes), free completions certify 173 / 177 / 179 of 260 at
# 2 / 3 / 5 cuts through the planted model and 161 / 171 / 173 through the
# one-row-off one (before the rounding-level sign rule of `_signs`, which
# brings the planted count at 2 cuts to 174), while the cuts certify 58 of
# the trained bundle's 200 transfers at each, and a failing column pays every
# cut (a third cut: 94.8 -> 99.0 ms for those transfers, min of 4, one BLAS
# thread, 2-core VM).
CERT_MARGIN = 1e-9
DECODE_ROUNDS = 2

# The vertex stage starts its basis exchange after IRLS_STEPS reweighted
# least-squares steps, and gives a column up when it still needs a pivot
# after PIVOTS. Measured on the transfers to attr2=b3 the gap cuts leave (144
# of recon-holdout's 200 of seed 4242, one at a time; 161 of cli-pipeline's
# 200 of seed 271828 through its trained bundle, as blocks): from the
# least-squares fit alone the exchange takes a median of 20 and 21 pivots
# (max 32 and 39), after 8 steps 4 and 4 (max 11 and 13). From 6 to 12 steps
# the stage costs about the same (a step costs a third of a pivot or less);
# 4 steps or 16 cost more (one BLAS thread, 2-core VM).
IRLS_STEPS = 8
PIVOTS = 40


def _grams(design: np.ndarray, count: int) -> Callable[[np.ndarray], np.ndarray]:
    """The rule that forms the weighted Grams D^T diag(w) D of the dim x k
    `design` for `count` weight rows w at a time, (count, dim) -> stacked
    count x k x k: two products for a lone row, and for more one product with
    the row-wise outer products of `design`, formed here once. For one row
    the outer products cost more than they save: +24% / +10% on free /
    pinned calls that certify, +7% on penalty-loop solves (the traffic and
    timing `reconstructor._solve`'s doc names)."""
    dim, k = design.shape
    if count == 1:
        return lambda w: ((design.T * w) @ design).reshape(1, k, k)
    outer = (design[:, :, None] * design[:, None, :]).reshape(dim, k * k)
    return lambda w: (w.astype(np.float64, copy=False) @ outer).reshape(count, k, k)


def normal_maps(design: np.ndarray, visible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k x k normal map (D_v^T D_v)^-1 of each column of the dim x B
    boolean `visible`, D_v being the rows of the dim x k `design` it sees,
    stacked B x k x k, and which columns' Grams are trusted, (B,) bool. The
    Grams come from `_grams`. A Gram G is trusted when its smallest
    eigenvalue is above NORMAL_RATIO * tr(G) (a zero-width Gram is,
    vacuously), which a column that sees fewer than k rows, or a
    rank-deficient D_v, never passes: for every B alike, a Cholesky
    factorization of G - NORMAL_RATIO * tr(G) * I tests it, and one stacked
    `np.linalg.inv` takes the trusted maps. Any other column's map is P P^T,
    P = pinv(D_v) as `np.linalg.pinv` gives it."""
    k = design.shape[1]
    grams = _grams(design, visible.shape[1])(visible.T)
    unit = np.eye(k)
    trace = np.trace(grams, axis1=1, axis2=2)[:, None, None]
    trusted = _per_matrix(np.linalg.cholesky, grams - NORMAL_RATIO * trace * unit)[1]
    maps = np.linalg.inv(np.where(trusted[:, None, None], grams, unit))
    for c in np.flatnonzero(~trusted):
        factor = np.linalg.pinv(design[visible[:, c]])
        maps[c] = factor @ factor.T
    return maps, trusted


def decode(design: np.ndarray, trusted: np.ndarray, visible: np.ndarray, target: np.ndarray,
           x: np.ndarray, norm: float | np.ndarray, eps: float,
           pinned: bool) -> tuple[np.ndarray, np.ndarray]:
    """Certified decoding of the least-absolute-deviations fit
    min_x ||t_v - D_v x||_1 (t = `target`) from its least-squares fit `x`,
    for one vector (1-D arrays, a float norm) or a block (one column each),
    in two stages: gap cuts for every column, then, when the spec pins an
    attribute (`pinned`), an exact vertex for the columns the cuts leave.

    S, the rows of a column's visible residual r = t - D x above the largest
    absolute gap of |r| (`largest_gap`), are cut, and x is refitted on the
    kept rows K alone: x_K = M_K D^T (K .* t), M_K = (D_K^T D_K)^-1 being
    the normal map `normal_maps` gives for K. With r = t - D x_K,
    g = -D_K M_K D_S^T sign(r_S) makes u = (g on K, sign(r_S) on S) a dual
    certificate: D_v^T u = 0, and when ||g||_inf < 1 every LAD optimum x*
    satisfies ||D_K (x* - x_K)||_1 <= 2 ||r_K||_1 / (1 - ||g||_inf) (the
    duality gap; for r_K = 0, x_K is the one optimum: Candes & Tao, Decoding
    by linear programming, IEEE Trans. Inf. Theory 2005). A row of S that
    the refit fits to rounding (|r| <= 1e-13 * `norm`) takes u = 0 instead
    and counts with K in the misfit, so that no sign of a rounding error
    decides ||g||_inf. A column is certified when ||g||_inf <= 1 -
    CERT_MARGIN and that bound is at most `eps` * ||t_v||_1: its x_K is
    within the schedule's own tolerance of every optimum, whether or not the
    design fits K exactly.

    A column that fails on the bound alone cuts again, at the largest gap
    of |r_K| on K, and refits on what is kept by the same rule, up to
    DECODE_ROUNDS cuts in all: the rows where an inexact model is off, and
    gross errors the first fit smeared below the gap, leave K at a later cut.

    A column whose visible Gram is not `trusted` (one flag per column) is
    not decoded, and a refit whose kept rows' Gram fails the same
    NORMAL_RATIO rule (`normal_maps` takes it by pinv; so it does when K
    holds fewer than k rows) is not certified.

    The vertex stage takes every trusted column still uncertified, when
    `pinned` and the design has a column: `_vertex` finds a basis B of k
    visible rows, and one `np.linalg.inv` of D_B gives both its refit
    x_B = D_B^-1 t_B and the certificate above with K = B,
    g = -D_B^-T D_S^T sign(r_S), checked once more: D_v^T u = 0 to
    1e-12 * ||u||_1 (it catches an ill-conditioned D_B). A column whose
    weighted Gram or first or last D_B is singular, that reaches PIVOTS, or
    whose certificate fails is not certified. Completions never enter the
    stage: where the cuts fail on a completion, LAD is often past its
    breakdown, its exact optimum further from the clean vector than the
    ALM's result.
    Returns x with each certified column replaced by its x_K or x_B, and
    which columns were certified (0-d for one vector)."""
    dim, k = design.shape
    count = np.size(norm)
    y, seen = target.reshape(dim, count), visible.reshape(dim, count)
    out = x.reshape(k, count).copy()
    certified = np.zeros(count, dtype=bool)
    # The columns still decoding: their K, their current fit's residual, their
    # norm and their bound eps * ||t_v||_1; after the first cut, residual,
    # bound and misfit are taken relative to the norm, so that no sum
    # overflows.
    scales = np.reshape(norm, count)
    budgets = eps * (np.abs(y) / scales * seen).sum(axis=0)
    live, kept, res, go = np.arange(count), seen, y - design @ out, trusted
    scale, budget = scales, budgets
    for cut_round in range(DECODE_ROUNDS):
        if not go.all():
            live, kept, res = live[go], kept[:, go], res[:, go]
            scale, budget = scale[go], budget[go]
        if not live.size:
            break
        mags = np.abs(res)
        # Rows off K take the column's smallest kept magnitude: they open no
        # gap, and no cut reaches them.
        mags = np.where(kept, mags, np.where(kept, mags, np.inf).min(axis=0))
        # The cut keeps the magnitudes up to the largest one below the gap;
        # ties cannot straddle it.
        edge = np.sort(mags, axis=0)[dim - 1 - largest_gap(mags), np.arange(live.size)]
        kept = kept & (mags <= edge)
        maps, kept_trusted = normal_maps(design, kept)
        refit = np.matmul(maps, (design.T @ (kept * y[:, live])).T[:, :, None])[:, :, 0].T
        res = (y[:, live] - design @ refit) / scale
        signs, counted = _signs(res, seen[:, live], kept)
        # g up to its sign, which the bound does not read
        g = design @ np.matmul(maps, (design.T @ signs).T[:, :, None])[:, :, 0].T
        bound = (np.abs(g) * kept).max(axis=0)
        bound[~kept_trusted] = np.inf
        done = _passes(res, counted, bound, budget)
        out[:, live[done]] = refit[:, done]
        certified[live[done]] = True
        go = (bound <= 1.0 - CERT_MARGIN) & ~done
    stage = np.flatnonzero(np.reshape(trusted, count) & ~certified) if pinned and k else []
    if len(stage):
        # One vector runs the stage without the column axis.
        one = x.ndim == 1
        t, rows, start = (y[:, 0], seen[:, 0], x) if one else (
            np.ascontiguousarray(y[:, stage].T), np.ascontiguousarray(seen[:, stage].T),
            x[:, stage].T)
        basis, found = _vertex(design, rows, t, start)
        basis, found = basis.reshape(-1, k), np.reshape(found, -1)
        basic = (basis.T, np.arange(len(stage)))  # each column's entries on its basis
        inverse, solved = _per_matrix(np.linalg.inv, design[basis])
        refit = np.matmul(inverse, y[:, stage][basic].T[:, :, None])[:, :, 0].T
        res = (y[:, stage] - design @ refit) / scales[stage]
        kept = np.zeros(res.shape, dtype=bool)
        kept[basic] = True
        signs, counted = _signs(res, seen[:, stage], kept)
        g = -np.matmul((design.T @ signs).T[:, None, :], inverse)[:, 0, :]  # -D_B^-T D_S^T s
        u = signs.copy()
        u[basic] = g.T
        balanced = np.linalg.norm(design.T @ u, axis=0) <= 1e-12 * np.abs(u).sum(axis=0)
        bound = np.where(found & solved & balanced, np.abs(g).max(axis=1), np.inf)
        done = _passes(res, counted, bound, budgets[stage])
        out[:, stage[done]] = refit[:, done]
        certified[stage[done]] = True
    return out.reshape(x.shape), certified.reshape(np.shape(norm))


def _signs(res: np.ndarray, seen: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dual certificate's u off K, for residuals `res` relative to the
    norm: sign(r) on each visible row off K, except on a row whose residual
    is at rounding level (|res| <= 1e-13), which takes u = 0 and counts in
    the misfit with K, so that no sign of a rounding error decides
    ||g||_inf. Returns u off K (0 on K and on hidden rows) and the rows the
    misfit sums."""
    cut = seen & ~kept & (np.abs(res) > 1e-13)
    return cut * np.sign(res), seen & ~cut


def _passes(res: np.ndarray, counted: np.ndarray, bound: np.ndarray,
            budget: np.ndarray) -> np.ndarray:
    """Which columns the duality gap certifies: ||g||_inf (`bound`) <= 1 -
    CERT_MARGIN and 2 * misfit <= budget * (1 - ||g||_inf), the misfit
    summing |res| on the `counted` rows. Every LAD optimum x* then has
    ||D_K (x* - x_K)||_1 within budget, the rows u = 0 (K and rounding-level
    ones) taken as K."""
    misfit = (np.abs(res) * counted).sum(axis=0)
    return (bound <= 1.0 - CERT_MARGIN) & (2.0 * misfit <= budget * (1.0 - bound))


def _per_matrix(solver: Callable[..., np.ndarray], a: np.ndarray,
                *rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`solver(a, *rest)` (`np.linalg.solve`, `inv` or `cholesky`) on the
    stacked matrices `a`, and which of them it solved. A stacked call fails
    for the whole stack on one matrix, so after a failure each is solved
    alone; one that fails comes back as zeros, flagged False."""
    try:
        return solver(a, *rest), np.ones(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return np.zeros(rest[0].shape if rest else a.shape), np.zeros((), dtype=bool)
        parts = [_per_matrix(solver, m, *(b[n] for b in rest)) for n, m in enumerate(a)]
        return np.array([p[0] for p in parts]), np.array([p[1] for p in parts])


def _vertex(design: np.ndarray, seen: np.ndarray, t: np.ndarray,
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A basis of the least-absolute-deviations fit min_x ||t_v - D_v x||_1:
    k visible rows B whose exact fit x_B = D_B^-1 t_B has a dual
    g = -D_B^-T D_N^T sign(r_N) with ||g||_inf <= 1, N being the other
    visible rows. Rows are the last axis of `seen`, `t` and the
    least-squares fit `x`; a block puts its columns first, one vector has no
    column axis.

    IRLS_STEPS reweighted least-squares steps (Schlossmacher, JASA 1973)
    start from `x`, with weights 1 / max(|r|, delta) on the visible rows and
    delta shrinking by 0.3 a step from the mean visible |r|; the k visible
    rows where the last step fits best are the first basis, from which
    `_exchange` pivots. Returns the basis, (..., k) row indices, and whether
    it was found: not for a column whose weighted Gram or first D_B is
    singular, nor for one `_exchange` gives up."""
    k = design.shape[1]
    lead = t.shape[:-1]
    grams = _grams(design, len(t) if lead else 1)
    mags = np.abs(t - x @ design.T) * seen
    delta = mags.sum(axis=-1) / np.count_nonzero(seen, axis=-1)
    ok = np.ones(lead, dtype=bool)
    for _ in range(IRLS_STEPS):
        w = seen / np.maximum(mags, delta[..., None])
        gram = grams(w).reshape(lead + (k, k))
        x, solved = _per_matrix(np.linalg.solve, gram, ((w * t) @ design)[..., None])
        ok &= solved
        mags = np.abs(t - x[..., 0] @ design.T)
        delta = 0.3 * delta
    basis = np.argsort(np.where(seen, mags, np.inf), axis=-1)[..., :k]
    inv_t, solved = _per_matrix(np.linalg.inv, design[basis].swapaxes(-1, -2))
    # A ratio r_i / z_i with z_i = 0 is inf or nan, which is never ahead; a
    # column left with no breakpoint ahead gets inf and nan entries, and its
    # result is not read.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _exchange(design, seen, t, basis, inv_t, ok & solved)


def _exchange(design: np.ndarray, seen: np.ndarray, t: np.ndarray, basis: np.ndarray,
              inv_t: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LAD basis exchange (Barrodale & Roberts, SIAM J. Numer. Anal.
    1973) from `basis`, laid out as in `_vertex`, with `inv_t` = D_B^-T
    (its row j is column j of D_B^-1), for the columns that are `ok`. Each
    pivot frees the basic row p with the largest |g_p| > 1 and moves x along
    d = sign(g_p) * column p of D_B^-1, which moves row p's residual alone
    and lowers the objective at rate |g_p| - 1. With z = D d, each visible
    row i off the basis that r_i - alpha z_i crosses zero at an
    alpha_i = r_i / z_i >= 0 raises that rate by 2 |z_i| (|z_i| when r_i
    is 0 already); the line search stops at the first breakpoint where the
    slope turns (a weighted median), whose row enters the basis in p's
    place, and D_B^-T follows by Sherman-Morrison. Returns the final basis
    and which columns reached ||g||_inf <= 1: not one whose line search
    finds no breakpoint ahead (which only rounding can bring about), nor one
    that still needs a pivot after PIVOTS."""
    lead = t.shape[:-1]
    x = np.matmul(np.take_along_axis(t, basis, axis=-1)[..., None, :], inv_t)[..., 0, :]
    r = t - x @ design.T
    free = seen.copy()
    np.put_along_axis(free, basis, False, axis=-1)
    slots = np.arange(design.shape[1])
    # A block drops its finished columns as it goes; `live` maps them back.
    final, found, live = basis.copy(), ok.copy(), np.arange(len(t)) if lead else None
    cols = (live[:, None],) if lead else ()  # indexes each column's own entry
    for pivot in range(PIVOTS + 1):
        s = np.sign(r) * free
        g = np.matmul(inv_t, (s @ design)[..., None])[..., 0]  # -g: |g| is the same
        p = np.argmax(np.abs(g), axis=-1)[..., None]
        g_p = g[cols + (p,)]
        excess = np.abs(g_p) - 1.0
        active = ok & (excess[..., 0] > 0.0)
        if pivot == PIVOTS:
            ok = ok & ~active
        if pivot == PIVOTS or not active.all():
            if not lead:
                break
            final[live], found[live] = basis, ok
            if pivot == PIVOTS or not active.any():
                break
            live, r, free, s, inv_t, basis, ok, p, g_p, excess = (
                a[active] for a in (live, r, free, s, inv_t, basis, ok, p, g_p, excess))
            cols = (np.arange(len(live))[:, None],)
        c = inv_t[cols + (p,)][..., 0, :]
        z = (np.sign(g_p) * c) @ design.T
        alpha = r / z
        alpha = np.where(free & (alpha >= 0.0), alpha, np.inf)
        order = np.argsort(alpha, axis=-1)
        rise = (np.abs(z) * (1.0 + np.abs(s)))[cols + (order,)]
        m = np.argmax(np.cumsum(rise, axis=-1) >= excess, axis=-1)[..., None]
        enter = order[cols + (m,)]
        step = alpha[cols + (enter,)]
        ok = ok & (step[..., 0] < np.inf)
        r = r - step * z
        v = np.matmul(inv_t, design[enter].swapaxes(-1, -2))[..., 0]  # D_B^-T a_enter
        inv_t = inv_t - ((v - (slots == p)) / v[cols + (p,)])[..., :, None] * c[..., None, :]
        free[cols + (basis[cols + (p,)],)] = True
        free[cols + (enter,)] = False
        basis[cols + (p,)] = enter
    return (final, found) if lead else (basis, ok)
