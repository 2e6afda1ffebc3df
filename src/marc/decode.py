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
G = D_v^T D_v by one rule: tested by `proxops.positive_definite` and
inverted by one stacked `np.linalg.inv`. The normal equations square the
condition number, so a Gram is trusted only when its smallest eigenvalue is
above NORMAL_RATIO times its trace; any other column (a rank-deficient or
ill-conditioned visible design, or one with fewer than k rows) takes its map
P P^T from P = `np.linalg.pinv(D_v)` instead.

The LAD fit is often exact or nearly so, the gross errors being the rows it
misses (Candes & Tao, Decoding by linear programming, IEEE Trans. Inf.
Theory 2005). `decode` takes each column from its least-squares fit by gap
cuts: it cuts the rows above the largest absolute gap of the residual,
refits on the kept rows alone through their own normal map, trusted by the
same NORMAL_RATIO rule, and certifies the refit by a dual certificate whose
duality gap bounds its distance to every LAD optimum by
eps * ||w .* target||_1. The refit need not fit the kept rows exactly, so
columns certify through inexact (trained) designs too. A column whose refit
fails on that bound alone cuts again, up to DECODE_ROUNDS cuts.
"""
from __future__ import annotations

import numpy as np

from .proxops import positive_definite, sorted_gap

# Each least-squares fit inverts a column's k x k Gram D_v^T D_v, which
# squares the condition number: its eigenvalues carry an absolute error of
# about eps * lambda_max, so the inverse carries a relative error of about
# eps * cond(D_v)^2 = eps * lambda_max / lambda_min. A Gram G is trusted
# when every eigenvalue is above NORMAL_RATIO * tr(G), which
# `positive_definite` of G - NORMAL_RATIO * tr(G) * I tests; as
# tr(G) >= lambda_max, that error is then below ~2e-13 (cond(D_v) < 32), and
# as tr(G) <= k * lambda_max, every Gram with cond(D_v) below
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
# brings the planted count at 2 cuts to 174), and a column that fails pays
# every cut.
CERT_MARGIN = 1e-9
DECODE_ROUNDS = 2


def _grams(design: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weighted Grams D^T diag(w) D of the dim x k `design`, one per row
    w of the (count, dim) `weights`, stacked count x k x k: two products for
    a lone row, and for more one product with the row-wise outer products of
    `design`. For one row the outer products cost more than they save: +24%
    on free calls that certify, +7% on penalty-loop solves (the traffic and
    timing `reconstructor._solve`'s doc names)."""
    (dim, k), count = design.shape, len(weights)
    if count == 1:
        return ((design.T * weights) @ design).reshape(1, k, k)
    outer = (design[:, :, None] * design[:, None, :]).reshape(dim, k * k)
    return (weights.astype(np.float64, copy=False) @ outer).reshape(count, k, k)


def normal_maps(design: np.ndarray, visible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k x k normal map (D_v^T D_v)^-1 of each column of the dim x B
    boolean `visible`, D_v being the rows of the dim x k `design` it sees,
    stacked B x k x k, and which columns' Grams are trusted, (B,) bool. The
    Grams come from `_grams`. A Gram G is trusted when its smallest
    eigenvalue is above NORMAL_RATIO * tr(G) (a zero-width Gram is,
    vacuously), which a column that sees fewer than k rows, or a
    rank-deficient D_v, never passes: for every B alike,
    `positive_definite` tests G - NORMAL_RATIO * tr(G) * I, a copy of the
    Grams with NORMAL_RATIO * tr(G) taken off each diagonal (an off-diagonal
    entry minus +0.0 is itself, so this is the product with the identity,
    bitwise). When every Gram is trusted, the maps are one stacked
    `np.linalg.inv` of the Grams. Otherwise the untrusted ones are swapped
    for the identity in that inverse, and each of their maps is P P^T,
    P = pinv(D_v) as `np.linalg.pinv` gives it."""
    grams = _grams(design, visible.T)
    count, k = grams.shape[:2]
    shifted = grams.copy()
    diagonal = shifted.reshape(count, k * k)[:, ::k + 1]  # a view, strided as np.trace reads it
    diagonal -= NORMAL_RATIO * diagonal.sum(axis=1)[:, None]
    trusted = positive_definite(shifted)
    if trusted.all():
        return np.linalg.inv(grams), trusted
    maps = np.linalg.inv(np.where(trusted[:, None, None], grams, np.eye(k)))
    for c in np.flatnonzero(~trusted):
        factor = np.linalg.pinv(design[visible[:, c]])
        maps[c] = factor @ factor.T
    return maps, trusted


def decode(design: np.ndarray, trusted: np.ndarray, visible: np.ndarray, target: np.ndarray,
           x: np.ndarray, norm: float | np.ndarray,
           eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified decoding of the least-absolute-deviations fit
    min_x ||t_v - D_v x||_1 (t = `target`) from its least-squares fit `x`,
    for one vector (1-D arrays, a float norm) or a block (one column each),
    by gap cuts.

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

    Returns x with each certified column replaced by its x_K, and which
    columns were certified (0-d for one vector)."""
    dim, k = design.shape
    count = np.size(norm)
    y, seen = target.reshape(dim, count), visible.reshape(dim, count)
    out = x.reshape(k, count).copy()
    certified = np.zeros(count, dtype=bool)
    # The columns still decoding: their K, their current fit's residual, their
    # norm and their bound eps * ||t_v||_1; after the first cut, residual,
    # bound and misfit are taken relative to the norm, so that no sum
    # overflows.
    scale = np.reshape(norm, count)
    budget = eps * (np.abs(y) / scale * seen).sum(axis=0)
    live, kept, res, go = np.arange(count), seen, y - design @ out, trusted
    for _ in range(DECODE_ROUNDS):
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
        # ties cannot straddle it. They are >= 0, so `largest_gap` counts
        # from this one sort of them.
        ordered = np.sort(mags, axis=0)
        edge = ordered[dim - 1 - sorted_gap(ordered[::-1]), np.arange(live.size)]
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
