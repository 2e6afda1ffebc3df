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

A block's Grams come from one product of its masks with the upper triangle
of the design's outer-product table (`gram_table`), mirrored, bitwise the
full table's product; `reconstructor.reconstruct_many` builds the table
once per call, for the x step and every cut of every slice. Each cut
gathers the columns still decoding once, and none while every column does.

A lone vector, the traffic of `reconstructor.reconstruct`, decodes without a
column axis: the same cuts and rules on (dim,) arrays, with no reshape, no
per-column bookkeeping and no stacked products, ending as soon as the
vector certifies or its bound fails. Its result is bitwise the block
decode's for the same vector as a (dim, 1) block. It exists because the
block's bookkeeping costs a lone call's decode about half as much again
(timings in CHANGES.md).
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


def gram_table(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table `_grams` forms a block's Grams from, for the dim x k
    `design`: the row-wise products D[:, i] * D[:, j] for i <= j, the upper
    triangle of the outer-product table (dim x k(k+1)/2; 78 of 144 columns
    at k = 12), and for each of a Gram's k * k entries, row by row, the
    column of that table it mirrors. Every Gram is symmetric, and a product
    of two floats does not depend on their order, so the mirrored Grams are
    bitwise those of the full table. A design serves every block of a call,
    so `reconstructor.reconstruct_many` builds its table once."""
    k = design.shape[1]
    rows, cols = np.triu_indices(k)
    mirror = np.empty((k, k), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    return design[:, rows] * design[:, cols], mirror.ravel()


def _grams(design: np.ndarray, weights: np.ndarray,
           table: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The weighted Grams D^T diag(w) D of the dim x k `design`, one per row
    w of the (count, dim) `weights`, stacked count x k x k, or the one k x k
    Gram of (dim,) `weights`: two products for a lone row, and for more one
    product with the upper triangle of the design's row-wise outer products,
    `table` (`gram_table` of the design, built here when None), mirrored.
    For one row the outer products cost more than they save, and for a
    block the mirrored triangle costs less than the full k * k table,
    product and build (timings in CHANGES.md)."""
    dim, k = design.shape
    if weights.ndim == 1 or len(weights) == 1:
        return ((design.T * weights) @ design).reshape(weights.shape[:-1] + (k, k))
    upper, mirror = gram_table(design) if table is None else table
    # Column-ordered weights, whatever the mask's layout: so laid out, the
    # triangle's product is bitwise the full table's; row-ordered weights
    # of fewer than 16 rows (a narrowed cut's) round it differently
    # (OpenBLAS 0.3.31, AVX-512), while the full table's product is the same
    # for either layout.
    upper = np.asfortranarray(weights, dtype=np.float64) @ upper
    return upper[:, mirror].reshape(len(weights), k, k)


def normal_maps(design: np.ndarray, visible: np.ndarray,
                table: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """The k x k normal map (D_v^T D_v)^-1 of each column of the dim x B
    boolean `visible`, D_v being the rows of the dim x k `design` it sees,
    stacked B x k x k, and which columns' Grams are trusted, (B,) bool. A
    (dim,) mask, as a lone vector's x step and its decode's cuts pass it,
    gets its one k x k map and a numpy bool, bitwise the [0] of the same mask
    as a (dim, 1) block. The Grams come from `_grams`, a block's from the
    design's `table` (`gram_table`; built when None). A Gram G is trusted
    when its smallest eigenvalue is above NORMAL_RATIO * tr(G) (a zero-width
    Gram is, vacuously), which a column that sees fewer than k rows, or a
    rank-deficient D_v, never passes: for every B alike,
    `positive_definite` tests G - NORMAL_RATIO * tr(G) * I, a copy of the
    Grams with NORMAL_RATIO * tr(G) taken off each diagonal (an off-diagonal
    entry minus +0.0 is itself, so this is the product with the identity,
    bitwise). When every Gram is trusted, the maps are one stacked
    `np.linalg.inv` of the Grams. Otherwise the untrusted ones are swapped
    for the identity in that inverse, and each of their maps is P P^T,
    P = pinv(D_v) as `np.linalg.pinv` gives it."""
    k = design.shape[1]
    grams = _grams(design, visible.T, table)
    shifted = grams.copy()
    if visible.ndim == 1:
        diagonal = shifted.ravel()[::k + 1]  # a view, strided as np.trace reads it
        diagonal -= NORMAL_RATIO * diagonal.sum()
        trusted = positive_definite(shifted)
        if trusted:
            return np.linalg.inv(grams), trusted
        factor = np.linalg.pinv(design[visible])
        return factor @ factor.T, trusted
    diagonal = shifted.reshape(visible.shape[1], k * k)[:, ::k + 1]
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
           x: np.ndarray, norm: float | np.ndarray, eps: float,
           table: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Certified decoding of the least-absolute-deviations fit
    min_x ||t_v - D_v x||_1 (t = `target`) from its least-squares fit `x`,
    for one vector (1-D arrays, a float norm) or a block (one column each),
    by gap cuts.

    S, the rows of a column's visible residual r = t - D x above the largest
    absolute gap of |r| (`sorted_gap`), are cut, and x is refitted on the
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

    A block's refits take their Grams from `table`, the design's
    `gram_table` (built at each cut when None), and each round gathers the
    columns still decoding once. One vector takes `_decode_vector`, the
    same cuts without the column axis, bitwise the block's result for it as
    a (dim, 1) block and cheaper (timings in CHANGES.md).

    Returns x with each certified column replaced by its x_K, and which
    columns were certified (a numpy bool for one vector)."""
    if x.ndim == 1:
        return _decode_vector(design, trusted, visible, target, x, norm, eps)
    dim, count = target.shape
    out = x.copy()
    certified = np.zeros(count, dtype=bool)
    # The columns still decoding: their index, target, visible rows, K, their
    # current fit's residual, their norm and their bound eps * ||t_v||_1;
    # after the first cut, residual, bound and misfit are taken relative to
    # the norm, so that no sum overflows. Each is narrowed once per round,
    # and not at all while every column decodes.
    scale = norm
    budget = eps * (np.abs(target) / scale * visible).sum(axis=0)
    live, y, seen, kept, res, go = (np.arange(count), target, visible, visible,
                                    target - design @ out, trusted)
    for _ in range(DECODE_ROUNDS):
        if not go.all():
            live, y, seen, kept, res = live[go], y[:, go], seen[:, go], kept[:, go], res[:, go]
            scale, budget = scale[go], budget[go]
        if not live.size:
            break
        mags = np.abs(res)
        # Rows off K take the column's smallest kept magnitude: they open no
        # gap, and no cut reaches them.
        mags = np.where(kept, mags, np.where(kept, mags, np.inf).min(axis=0))
        # The cut keeps the magnitudes up to the largest one below the gap;
        # ties cannot straddle it. They are >= 0, so this one sort of them,
        # reversed, is what `sorted_gap` counts from.
        ordered = np.sort(mags, axis=0)
        edge = ordered[dim - 1 - sorted_gap(ordered[::-1]), np.arange(live.size)]
        kept = kept & (mags <= edge)
        maps, kept_trusted = normal_maps(design, kept, table)
        refit = np.matmul(maps, (design.T @ (kept * y)).T[:, :, None])[:, :, 0].T
        res = (y - design @ refit) / scale
        mags = np.abs(res)
        signs, counted = _signs(res, mags, seen, kept)
        # g up to its sign, which the bound does not read
        g = design @ np.matmul(maps, (design.T @ signs).T[:, :, None])[:, :, 0].T
        bound = (np.abs(g) * kept).max(axis=0)
        bound[~kept_trusted] = np.inf
        done = _passes(mags, counted, bound, budget)
        out[:, live[done]] = refit[:, done]
        certified[live[done]] = True
        go = (bound <= 1.0 - CERT_MARGIN) & ~done
    return out, certified


def _decode_vector(design: np.ndarray, trusted: np.ndarray, seen: np.ndarray, y: np.ndarray,
                   x: np.ndarray, norm: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """`decode` of one vector, by the same cuts and rules on (dim,) arrays:
    bitwise the [:, 0] of it decoded as a (dim, 1) block, without the
    block's column bookkeeping. It stops once the vector certifies, or once
    its bound fails, a kept Gram the NORMAL_RATIO rule refuses included (the
    block gives such a column an infinite bound); x itself comes back when
    it does not certify."""
    if not trusted:
        return x, np.False_
    budget = eps * (np.abs(y) / norm * seen).sum()
    kept, mags = seen, np.abs(y - design @ x)
    for _ in range(DECODE_ROUNDS):
        # The cut of `decode`, from the kept magnitudes alone: the rows off K
        # it fills with the smallest of them open no gap.
        ordered = np.sort(mags[kept])
        kept = kept & (mags <= ordered[ordered.size - 1 - sorted_gap(ordered[::-1])])
        maps, kept_trusted = normal_maps(design, kept)
        if not kept_trusted:
            break
        refit = maps @ (design.T @ (kept * y))
        res = (y - design @ refit) / norm
        mags = np.abs(res)
        signs, counted = _signs(res, mags, seen, kept)
        bound = (np.abs(design @ (maps @ (design.T @ signs))) * kept).max()
        if _passes(mags, counted, bound, budget):
            return refit, np.True_
        if not bound <= 1.0 - CERT_MARGIN:
            break
    return x, np.False_


def _signs(res: np.ndarray, mags: np.ndarray, seen: np.ndarray,
           kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dual certificate's u off K, for residuals `res` relative to the
    norm and their magnitudes `mags`: sign(r) on each visible row off K,
    except on a row whose residual is at rounding level (|res| <= 1e-13),
    which takes u = 0 and counts in the misfit with K, so that no sign of a
    rounding error decides ||g||_inf. Returns u off K (0 on K and on hidden
    rows) and the rows the misfit sums."""
    # K and the cut rows lie within the visible ones, so `^` takes them off.
    cut = (seen ^ kept) & (mags > 1e-13)
    return cut * np.sign(res), seen ^ cut


def _passes(mags: np.ndarray, counted: np.ndarray, bound: np.ndarray,
            budget: np.ndarray) -> np.ndarray:
    """Which columns the duality gap certifies: ||g||_inf (`bound`) <= 1 -
    CERT_MARGIN and 2 * misfit <= budget * (1 - ||g||_inf), the misfit
    summing the residual magnitudes `mags` on the `counted` rows. Every LAD
    optimum x* then has ||D_K (x* - x_K)||_1 within budget, the rows u = 0
    (K and rounding-level ones) taken as K."""
    misfit = (mags * counted).sum(axis=0)
    return (bound <= 1.0 - CERT_MARGIN) & (2.0 * misfit <= budget * (1.0 - bound))

