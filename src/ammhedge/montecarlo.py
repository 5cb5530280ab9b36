"""Path simulator: correlated GBM / jump-diffusion prices plus full
portfolio accounting (borrow interest, reward claims, LTV monitoring,
liquidation, rebalancing) and summary statistics.

Price generation is blocked for determinism: paths come in fixed blocks of
8192, block i drawing from SeedSequence(seed, spawn_key=(i,)) for the
diffusion and spawn_key=(i, 2) for the jump overlay, whose Poisson counts
are decoded from the uniforms numpy's sampler draws (_poisson_sparse). Every
stream is drawn as for the full block and the rest of the arithmetic is per
path, so any n_paths and any worker count yield bit-identical paths for the
same seed. Path arrays are stored column-major (time-major): all paths'
prices at one step are contiguous. A block is drawn in chunks of rows
straight into those arrays and its arithmetic runs on them in place, on
tiles of whole columns, so its memory follows the rows it keeps.

The block is also the unit of memory and of work: a run streams its blocks
through every kernel pass it makes and keeps only the step loop's per-path
state for each h, so a process holds one block of paths at a time, never the
whole (n_paths, steps+1) matrix. With n_workers > 1 each block is one task of
a pool of forked processes, which draws the block, runs every pass on it and
sends back only the loop states. The step loop is elementwise per path, so
the outputs equal those of one pass over the whole matrix in one process,
bit for bit.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .config_domain import (DAYS_PER_YEAR, MarketParams, PositionParams, RateParams,
                            ScenarioError, SimConfig, _matched_variance, _whole_steps,
                            parse_rebalance, validate_scenario, validate_sim)

BLOCK = 8192
# state elements (hedge ratios x rows) of one _step_loop call: about what keeps
# the (H, rows) state of a block in L2; a larger stack runs slower
_STACK_ELEMENTS = 3 * BLOCK


@dataclass
class BatchResult:
    """Per-path outcomes of one accounting pass, with ROE on both cost bases."""

    roe: np.ndarray
    roe_raw: np.ndarray
    roe_tx: np.ndarray
    liquidated: np.ndarray
    liq_time_days: np.ndarray  # nan where not liquidated
    max_ltv: np.ndarray
    n_rebalances: np.ndarray
    n_claims: np.ndarray
    tx_cost_paid: np.ndarray
    pi0: float


@dataclass(frozen=True)
class SummaryStats:
    e_roe_pp: float
    std_pp: float
    sr_raw: float
    sr_tx: float
    p_loss: float
    p_liq: float
    var5_pp: float
    mean_max_ltv: float
    p95_max_ltv: float
    p99_max_ltv: float
    avg_rebalances: float
    n_paths: int


# ---------------------------------------------------------------------------
# price paths

# uniforms per rng.random call of _poisson_sparse; above _DECODE_LAM most
# counts take a run of uniforms, and walking them costs more than rng.poisson
# (8192 x 270 counts on a 2-vCPU host: 68 against 83 ms at lam = 0.3, 146
# against 110 ms at lam = 0.5)
_UNIFORM_CHUNK = 1 << 16
_DECODE_LAM = 0.25
# a leg's common and idiosyncratic counts are merged by sorting their indices
# while fewer than 1 in _DENSE_MERGE kept entries carry one, and by a dense
# bincount over the kept entries above that (rows 400 to 8192 at 30 and 270
# steps on a 2-vCPU host: the two cross at 0.19 to 0.27 of them)
_DENSE_MERGE = 4
# elements (rows x steps) of each chunk of normals, and about those (rows x
# columns) of each tile of _generate_block's arithmetic: its one buffer holds
# either, so a block draws through one 4 MiB buffer. Each chunk is copied into
# the column-major outputs as one run of rows per step, and longer runs copy
# faster. On a 2-vCPU host, sizes 2^15 to 2^19 drew one 8192 x 270 block
# with the same bits and within 8 % of each other: baseline 0.077-0.083 s,
# jumps 0.158-0.162 s, and 0.153-0.167 s for jumps with two processes
# drawing at once
_DRAW_ELEMENTS = 1 << 19


def _poisson_sparse(rng, lam, n, kept):
    """The nonzero entries below kept of rng.poisson(lam, n), as sorted flat
    indices and counts, leaving rng in the state rng.poisson would.

    For 0 < lam < 10 numpy's sampler (random_poisson_mult) multiplies
    next_double uniforms, which rng.random draws too, until the product is at
    most exp(-lam); the count is the number of factors before the last. Below
    _DECODE_LAM the counts are decoded from those uniforms. One at most
    exp(-lam) ends a count wherever it falls, and one above it that starts a
    count raises it to 1, so only runs of uniforms above exp(-lam) need their
    products multiplied out: all runs at once, one position per pass. A
    raising uniform at position pos of a chunk belongs to count
    done + pos - rank, rank being the raising uniforms before it in the
    chunk. A chunk draws at most one uniform per unfinished count, so none is
    drawn ahead, and a count still going at its end carries its product into
    the next chunk. Other lam take rng.poisson itself, in chunks of
    _UNIFORM_CHUNK, which fill in sequence as one call would (lam = 0 draws
    nothing). A property test holds the result, and the generator's next
    draw, to rng.poisson.
    """
    if lam == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    found = []  # per chunk, the sorted indices below kept of its nonzero counts
    if not 0 < lam < _DECODE_LAM:
        counts = []
        for lo in range(0, n, _UNIFORM_CHUNK):
            k = rng.poisson(lam, min(_UNIFORM_CHUNK, n - lo))
            at = np.flatnonzero(k[:max(0, kept - lo)])
            found.append(lo + at)
            counts.append(k[at])
        return np.concatenate(found), np.concatenate(counts)
    enlam = math.exp(-lam)
    done = 0  # counts ended
    prod = 1.0  # product of the count going on; 1.0 before its first uniform
    while done < n:
        u = rng.random(min(_UNIFORM_CHUNK, n - done))
        carry, prod = prod, 1.0
        high = np.flatnonzero(u > enlam)
        raises = np.ones(len(high), dtype=bool)
        if len(high):
            # runs of consecutive high uniforms: the first raises its count
            # unless it continues the previous chunk's
            heads = np.flatnonzero(np.diff(high, prepend=-2) != 1)
            stops = np.append(heads[1:], len(high))
            p = u[high[heads]]
            cur = heads + 1
            if high[0] == 0 and carry < 1.0:
                p[0], cur[0] = carry, 0
            p_end = p.copy()  # each run's product after its last uniform
            walk = np.flatnonzero(cur < stops)
            p, cur, stop = p[walk], cur[walk], stops[walk]
            while len(cur):
                new = p * u[high[cur]]
                up = new > enlam
                raises[cur] = up
                p = np.where(up, new, 1.0)
                cur += 1
                going = cur < stop
                p_end[walk[~going]] = p[~going]
                p, cur, stop, walk = p[going], cur[going], stop[going], walk[going]
            if high[-1] == len(u) - 1:
                prod = p_end[-1]
        pos = high[raises]
        at = done + pos - np.arange(len(pos))
        found.append(at[:np.searchsorted(at, kept)])
        done += len(u) - len(pos)
    return np.unique(np.concatenate(found), return_counts=True)


def _normals(rng, n, buf):
    """Draw n standard normals through buf, only to advance rng."""
    while n > 0:
        m = min(n, len(buf))
        rng.standard_normal(out=buf[:m])
        n -= m


def _generate_block(market, jump, steps, dt_days, seed, block_idx, rows=BLOCK):
    """The first rows paths of one block: two (rows, steps+1) column-major
    arrays of price relatives whose first column is 1.

    Every stream is drawn as for the full block, so a path does not depend on
    rows: numpy's Generator fills a draw in sequence, so drawing a stream in
    pieces gives the bits of one call, and the draws of the block's other
    paths are made, through the buffer, only where a later draw on the
    same stream follows them. The arithmetic runs on the kept rows only, each
    row on its own, so a block holds its two outputs plus one buffer, which
    serves the chunks and the tiles below, with jumps or without, and its
    memory follows rows, not BLOCK.

    The jump stream has its own generator, so it is drawn first: each leg's
    jump-size noise goes into leg b's output memory, read as a flat array,
    and only its entries where a count falls are kept. Then each leg's
    normals are drawn in chunks of max(1, _DRAW_ELEMENTS // steps) rows (at
    most BLOCK) and copied straight into the leg's output, leg a's first.
    The arithmetic then runs time-major, in place, on tiles of
    max(1, _DRAW_ELEMENTS // rows) whole columns of both outputs, each one
    run of memory: correlate, scale, drift, overlay, a running column add
    z[t] += z[t-1] that makes np.cumsum's additions in its order, and exp.
    Each leg's running sum at a tile's last column waits in its output's
    first column for the next tile.

    The jump counts come as their nonzero entries from _poisson_sparse, which
    reads them off the uniforms of numpy's Poisson sampler, so the jumps are
    added only where they fall, at their positions in the time-major layout;
    the paths are the bits of the dense overlay.
    """
    dt_y = dt_days / DAYS_PER_YEAR
    rel_a = np.empty((rows, steps + 1), order="F")
    rel_b = np.empty((rows, steps + 1), order="F")
    chunk = min(BLOCK, max(1, _DRAW_ELEMENTS // steps))
    width = min(steps, max(1, _DRAW_ELEMENTS // rows))
    buf = np.empty(max(chunk * steps, rows * width))

    sd_a, sd_b = market.sigma_a, market.sigma_b
    # per leg: the time-major positions of its jumps among the increments,
    # t * rows + row for step t + 1, and their terms
    overlays = (None, None)
    if jump is not None and jump.lam > 0:
        if jump.variance_matched:
            # shrink diffusion so total annualized variance matches plain GBM
            sd_a = math.sqrt(_matched_variance(sd_a, jump))
            sd_b = math.sqrt(_matched_variance(sd_b, jump))
        rng_j = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx, 2)))
        kappa = math.exp(jump.mu_j + 0.5 * jump.sigma_j ** 2) - 1.0
        compensator = jump.lam * kappa * dt_y
        lam_idio = jump.lam * (1.0 - jump.rho_j) * dt_y
        n, kept = BLOCK * steps, rows * steps

        def time_major(sparse):  # from draw order, row * steps + t
            idx, counts = sparse
            return idx % steps * rows + idx // steps, counts

        # common stream first, then each leg's size noise and idiosyncratic
        # counts; the noise is drawn whole, as the later draws start after it
        common = time_major(_poisson_sparse(rng_j, jump.lam * jump.rho_j * dt_y, n, kept))
        eps = rel_b.ravel(order="F")[:kept]  # a view: its column of ones comes last
        overlays = []
        for _ in range(2):
            rng_j.standard_normal(out=eps)
            _normals(rng_j, n - kept, buf)
            idio = time_major(_poisson_sparse(rng_j, lam_idio, n, kept))
            at = np.concatenate((common[0], idio[0]))
            counts = np.concatenate((common[1], idio[1]))
            if len(at) * _DENSE_MERGE > kept:
                k = np.bincount(at, weights=counts, minlength=kept)
                idx = np.flatnonzero(k)
                k = k[idx]
            else:
                idx, leg = np.unique(at, return_inverse=True)
                k = np.bincount(leg, weights=counts)
            # the dense z += (k mu_J + (sqrt(k) sigma_J) eps) - compensator, the
            # sum of k iid normal jump sizes less the compensator. Where k = 0
            # its term (0 mu_J + (0 sigma_J) eps) - c is -c, and x + (-c) is
            # x - c. If c is 0 the term is a zero whose sign z -= c may not
            # share, which can change only the sign of a zero z: every later
            # sum is then the same nonzero number or a zero, and exp(-0.0) is
            # exp(+0.0), so the paths are the same bits
            noise = eps.take(idx % rows * steps + idx // rows)
            overlays.append((idx, (k * jump.mu_j + (np.sqrt(k) * jump.sigma_j) * noise)
                             - compensator))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
    for rel, tail in ((rel_a, BLOCK - rows), (rel_b, 0)):
        for r0 in range(0, rows, chunk):
            z = buf[:min(chunk, rows - r0) * steps].reshape(-1, steps)
            rng.standard_normal(out=z)
            rel[r0:r0 + len(z), 1:] = z
        _normals(rng, tail * steps, buf)

    # per leg: a time-major view of its increments, whose row t holds every
    # path's at step t + 1 as one run of memory, and its first column, where
    # the running sum at a tile's last step waits for the next tile
    legs = ((rel_a.T[1:], rel_a[:, 0], sd_a, market.mu_a, overlays[0]),
            (rel_b.T[1:], rel_b[:, 0], sd_b, market.mu_b, overlays[1]))
    rho_b = math.sqrt(1.0 - market.rho * market.rho)
    for t0 in range(0, steps, width):
        za, zb = (leg[0][t0:t0 + width] for leg in legs)
        t1 = t0 + len(za)
        zc = buf[:za.size].reshape(za.shape)
        np.multiply(za, market.rho, out=zc)
        zb *= rho_b
        zb += zc  # rho za + sqrt(1 - rho^2) zb
        for z, (_, carry, sd, mu, overlay) in zip((za, zb), legs):
            z *= sd * math.sqrt(dt_y)
            z += (mu - 0.5 * sd * sd) * dt_y
            if overlay is not None:
                idx, term = overlay
                lo, hi = np.searchsorted(idx, (t0 * rows, t1 * rows))
                at = idx[lo:hi] - t0 * rows
                z_old = z.take(at)
                z -= compensator
                np.put(z, at, z_old + term[lo:hi])
            if t0:
                z[0] += carry
            for t in range(1, len(z)):
                z[t] += z[t - 1]
            carry[...] = z[-1]
            np.exp(z, out=z)
    rel_a[:, 0] = 1.0
    rel_b[:, 0] = 1.0
    return rel_a, rel_b


def _map_blocks(fn, n_blocks, n_workers):
    """fn(bi) for each bi in range(n_blocks), yielded in block order.

    The calls run one per task in a pool of min(n_workers, n_blocks, usable
    CPUs) forked processes, or, with one, or without fork, in this process,
    which then imports no multiprocessing. fn reaches the workers through the
    fork, so it may be a closure; only its results are pickled. (Spawned
    workers would import numpy and the program again, about 0.14 s each; the
    executor forks before it starts its own thread.) The pool is made per
    call, so its workers see what the caller changed before the call, such as
    a test's patched constant, and it is shut down, its workers joined, before
    the generator ends, also when the consumer stops early or a call raises,
    whose exception is re-raised here.
    """
    usable = getattr(os, "sched_getaffinity", None)
    n = min(n_workers, n_blocks, len(usable(0)) if usable else os.cpu_count() or 1)
    if n > 1:
        import multiprocessing  # only runs with more than one process pay the imports
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            # fork named, as Python 3.14 makes forkserver the default on Linux
            with ProcessPoolExecutor(n, multiprocessing.get_context("fork"),
                                     initializer=_set_block_fn, initargs=(fn,)) as pool:
                yield from pool.map(_block_fn_at, range(n_blocks))
            return
    yield from map(fn, range(n_blocks))


_block_fn = None  # in a worker process of _map_blocks, the fn it maps


def _set_block_fn(fn):
    global _block_fn
    _block_fn = fn


def _block_fn_at(bi):
    return _block_fn(bi)


def _path_blocks(market, jump, steps, dt_days, n_paths, seed, *, task, n_workers):
    """task(lo, rel_a, rel_b) for each block of n_paths paths, in block order:
    lo is the block's first path, and rel_a and rel_b are the two
    (rows, steps+1) column-major arrays of _generate_block per block of BLOCK
    paths, the last one cut to n_paths.

    Each block is drawn in the process that runs its task, one of n_workers
    (_map_blocks), and dropped when the task returns, so only the task's
    result leaves it.
    """
    def run(bi):
        lo = bi * BLOCK
        return task(lo, *_generate_block(market, jump, steps, dt_days, seed, bi,
                                         min(BLOCK, n_paths - lo)))

    return _map_blocks(run, -(-n_paths // BLOCK), n_workers)


# ---------------------------------------------------------------------------
# portfolio accounting

# what a kernel pass reads of a scenario: the step loop reads nothing else, so
# scenarios drawing the same paths with equal records share a pass. Steps and
# the step in days and years; the claim stride; the rule's kind, threshold (a
# fraction) and stride, a stride of 0 meaning never; the rates and position
# the loop reads; and C/V0 for a rule pass only, where it gates the trigger
_Pass = namedtuple("_Pass", "steps dt_days dt_y claim_stride kind thr reb_stride "
                            "r_a r_b reward v0 l_max cv")


def _pass_record(rates, pos, sim):
    """The _Pass of a scenario whose sim validate_sim accepts, on its paths'
    step, sim.dt_days: the one place the step grid is worked out. A threshold
    rule is checked on whole-day marks, a periodic one every period."""
    dt_days = sim.dt_days
    steps = _whole_steps(pos.horizon_days, dt_days)
    if steps is None:
        # only simulation needs a grid: the closed form takes any horizon
        raise ScenarioError("dt_days = %g does not divide horizon_days = %g"
                            % (dt_days, pos.horizon_days))
    kind, par = parse_rebalance(sim.rebalance)
    # validate_sim holds every interval to whole steps of dt_days
    claim_stride = _whole_steps(sim.claim_interval_days, dt_days) or 0
    reb_stride = 0
    if kind == "periodic":
        reb_stride = _whole_steps(par, dt_days)
    elif kind == "threshold":
        reb_stride = max(1, int(round(1.0 / dt_days)))
    return _Pass(steps, dt_days, dt_days / DAYS_PER_YEAR,
                 claim_stride, kind, par / 100.0 if kind == "threshold" else 0.0, reb_stride,
                 rates.r_a, rates.r_b, rates.reward_rate, pos.v0, pos.l_max,
                 None if kind == "none" else pos.c_over_v0)


def _breach_level(coll, l_max):
    """The smallest double d with d / coll >= l_max, for coll > 0.

    Correctly rounded division by coll > 0 is monotone in d, so for every
    double d the breach test d / coll >= l_max holds exactly when d is at
    least this level. The search runs that very division, starting from
    l_max * coll, which lies within an ulp or so of the level.
    """
    if not coll > 0:
        raise ValueError("collateral must be positive, got %r" % coll)
    d = l_max * coll
    while d / coll >= l_max:
        d = math.nextafter(d, -math.inf)
    while d / coll < l_max:
        d = math.nextafter(d, math.inf)
    return d


def simulate_batch(rel_a, rel_b, market: MarketParams, rates: RateParams,
                   pos: PositionParams, sim: SimConfig) -> BatchResult:
    """Run the accounting loop over a matrix of paths.

    LTV is checked on every grid step. Reward claims and periodic rebalances
    fire every interval / dt steps; threshold triggers are checked on
    whole-day marks. A breached path keeps its price accounting
    running (so max-LTV diagnostics cover the full horizon) but can no longer
    rebalance, and its P&L is overridden with the flat penalty loss.

    This is _step_loop run on the scenario's _Pass for the one hedge ratio
    pos.h and the one C/V0 pos.c_over_v0, then _close. A sim that
    validate_sim rejects raises ScenarioError with validate_sim's message.
    """
    errs = validate_sim(sim)
    if errs:
        raise ScenarioError("; ".join(errs))
    rec = _pass_record(rates, pos, sim)
    state, = _step_loop(rel_a, rel_b, rec, (pos.h,), (pos.c_over_v0,))
    return _close(state, 0, rec, pos.h, rates, pos, sim)


# what the step loop leaves of one h for its variants to close, per path:
# s = (lp_T + pending) + cash, the terminal debt, the interest, the max debt,
# n_reb (a (1,) zero without a rule) and, as (K, rows), each C/V0 level's
# first breach step, steps + 1 where there is none
_LoopState = namedtuple("_LoopState", "s debt_t interest max_debt n_reb step")


def _step_loop(rel_a, rel_b, rec, hs, cvs):
    """The accounting loop of simulate_batch on the paths of rec's grid for
    every hedge ratio in hs and every C/V0 level in cvs at once: one _LoopState
    per h, which _close turns into the BatchResult at that h of any scenario
    whose _Pass is rec.

    Of a scenario the loop reads rec alone, and C/V0 only in the breach test,
    which it runs for each level; with a rebalancing rule C/V0 gates the
    trigger, so cvs must hold one level. The state has one row per h, (H, rows)
    arrays, and (H, K, rows) for the K levels, so each step reads the prices
    once for all H; every operation is elementwise per (h, path), so each
    row's bits are those of a pass with that h alone. The breach step takes
    the least unsigned type that holds steps + 1, however fine the grid.

    The step computes each debt value once, into buffers allocated once. A
    step that checks no rebalance computes the debt in place over xa and xb,
    which it reads no further: the same operations on the same operands,
    with less memory traffic; a check step keeps both for the trigger and
    the cash update and computes the debt into its own buffers. The pending
    rewards, shared by every path, stay a Python float; both debts are
    (H, 1) columns until a rebalance first sets them per path.
    The breach test fl(D / C) >= l_max is run as D >= _breach_level(C, l_max),
    the same value for every double D, and max LTV is fl(max_t D_t / C), which
    equals max_t fl(D_t / C) by the same monotonicity.
    """
    rel_a = np.atleast_2d(np.asarray(rel_a, dtype=float))
    rel_b = np.atleast_2d(np.asarray(rel_b, dtype=float))
    n, m = rel_a.shape
    steps = rec.steps
    if m != steps + 1:
        raise ValueError("path grid (%d steps over %g days) does not match sim.dt_days = %g"
                         % (m - 1, steps * rec.dt_days, rec.dt_days))
    dt_y, claim_stride, reb_stride, thr = rec.dt_y, rec.claim_stride, rec.reb_stride, rec.thr
    if rec.kind != "none" and len(cvs) != 1:
        raise ValueError("a %s pass takes one c_over_v0, got %d" % (rec.kind, len(cvs)))

    v0 = rec.v0
    h = np.array(hs, dtype=float)[:, None]
    H, K = len(hs), len(cvs)
    # one breach state per collateral level: rows of (K, n) arrays per h
    level = np.array([_breach_level(cv * v0, rec.l_max) for cv in cvs])[:, None]
    r_a, r_b, reward = rec.r_a, rec.r_b, rec.reward

    da = db = h * v0 / 2.0  # (H, n) from the first rebalance on
    pending = 0.0
    res_a = np.zeros((H, n))
    res_b = np.zeros((H, n))
    cash = np.zeros((H, n))
    interest = np.zeros((H, n))
    liq = np.zeros((H, K, n), dtype=bool)
    step = np.full((H, K, n), steps + 1, dtype=np.min_scalar_type(steps + 1))
    max_debt = np.repeat(h * v0, n, axis=1)
    # without a rule no path rebalances: one zero per h, broadcast, serves them all
    n_reb = np.zeros((H, n if reb_stride else 1), dtype=np.int64)
    xa, xb, debt, tmp = (np.empty((H, n)) for _ in range(4))
    breach = np.empty((H, K, n), dtype=bool)
    # the reserves are all +0.0 until the first claim; the shortcut below
    # also needs da, db >= 0, which h, v0 >= 0 and price relatives >= 0 give
    reserves = not (v0 >= 0.0 and (h >= 0.0).all())

    # each step reads one time row of the transposed paths, shaped (1, n) like
    # a state row: an (n,) column against (H, n) state costs a broadcast
    steps_a, steps_b = rel_a.T, rel_b.T
    for t in range(1, steps + 1):
        a = steps_a[t:t + 1]
        b = steps_b[t:t + 1]
        np.multiply(da, a, out=xa)
        np.multiply(db, b, out=xb)
        # interest += (xa * r_a + xb * r_b) * dt_y
        np.multiply(xa, r_a, out=tmp)
        np.multiply(xb, r_b, out=debt)
        tmp += debt
        tmp *= dt_y
        interest += tmp
        pending += reward * v0 * dt_y

        if claim_stride and t % claim_stride == 0:
            # claimed rewards become per-leg repayment reserves, split
            # proportionally to current net debt value; excess goes to cash
            va = np.maximum(xa - res_a, 0.0)
            vb = np.maximum(xb - res_b, 0.0)
            tot = va + vb
            repay = np.minimum(pending, tot)
            w = np.divide(va, tot, out=np.full((H, n), 0.5), where=tot > 0)
            res_a += repay * w
            res_b += repay * (1.0 - w)
            cash += pending
            cash -= repay
            pending = 0.0
            reserves = True

        # debt = max(xa - res_a, 0) + max(xb - res_b, 0) + interest, over
        # xa and xb themselves unless a rebalance check reads them below
        check = reb_stride and t % reb_stride == 0
        d, e = (debt, tmp) if check else (xa, xb)
        if reserves:
            np.subtract(xa, res_a, out=d)
            np.maximum(d, 0.0, out=d)
            np.subtract(xb, res_b, out=e)
            np.maximum(e, 0.0, out=e)
            d += e
        else:
            # with res = +0.0 and x >= 0 or nan, max(x - 0.0, 0.0) is x up
            # to the sign of a zero, which adding interest erases (interest
            # starts at +0.0, so it is never -0.0): the reserve terms' bits
            np.add(xa, xb, out=d)
        d += interest
        np.maximum(max_debt, d, out=max_debt)
        np.greater_equal(d[:, None, :], level, out=breach)  # against each level
        np.greater(breach, liq, out=breach)  # breach & ~liq, with no temporary
        if breach.any():
            np.copyto(step, t, where=breach)
            liq |= breach

        if not check:
            continue
        lp = v0 * np.sqrt(a * b)
        trig = ~liq[:, 0]
        if rec.kind == "threshold":
            # trigger on gross per-leg hedge drift; reserves do not leak in
            half = lp / 2.0
            trig &= (np.abs(xa / half - h) > thr) | (np.abs(xb / half - h) > thr)
        if trig.any():
            h_lp = h * lp
            da = np.where(trig, h_lp / (2.0 * a), da)
            db = np.where(trig, h_lp / (2.0 * b), db)
            # resetting after a move realizes hedge pnl into cash
            cash += np.where(trig, xa + xb - h_lp, 0.0)
            n_reb += trig

    a_t = rel_a[:, -1]
    b_t = rel_b[:, -1]
    s = v0 * np.sqrt(a_t * b_t) + pending + cash
    debt_t = np.maximum(da * a_t - res_a, 0.0) + np.maximum(db * b_t - res_b, 0.0)
    return [_LoopState(*row) for row in zip(s, debt_t, interest, max_debt, n_reb, step)]


def _close(state, k, rec, h, rates, pos, sim) -> BatchResult:
    """The BatchResult at h of the scenario (rates, pos, sim) from h's _LoopState
    of a pass on rec, the scenario's _Pass, k indexing pos.c_over_v0 among the
    loop's C/V0 levels: the kernel's operations in the kernel's order, so the
    kernel's bits. A step claims before it tests the breach."""
    steps, dt_days, claim_stride = rec.steps, rec.dt_days, rec.claim_stride
    step = state.step[k]
    v0, coll = pos.v0, pos.c_over_v0 * pos.v0
    liquidated = step <= steps
    # a stride of 0 claims never, as does one past the horizon
    n_claims = np.minimum(step, steps, dtype=np.int64) // (claim_stride or steps + 1)
    grow = 1.0 + rates.r_f * pos.horizon_days / DAYS_PER_YEAR
    pi_t = state.s + coll * grow - state.debt_t - state.interest
    pi0 = float(coll + (1.0 - h) * v0)
    pnl_raw = np.where(liquidated, -sim.liq_penalty_frac * coll, pi_t - pi0)
    tx = sim.borrow_fee_frac * h * v0 + sim.gas_cost * (n_claims + state.n_reb)
    roe_raw = pnl_raw / pi0
    roe_tx = (pnl_raw - tx) / pi0
    return BatchResult(
        roe=roe_tx if sim.include_tx_costs else roe_raw, roe_raw=roe_raw, roe_tx=roe_tx,
        liquidated=liquidated, liq_time_days=np.where(liquidated, step * dt_days, np.nan),
        max_ltv=state.max_debt / coll, n_rebalances=np.broadcast_to(state.n_reb, step.shape),
        n_claims=n_claims, tx_cost_paid=tx, pi0=pi0)


def _path_inputs(scn):
    """What a scenario's paths are drawn from, horizon for steps; equal inputs, equal paths."""
    sim = scn.sim
    return scn.market, scn.jump, scn.position.horizon_days, sim.dt_days, sim.n_paths, sim.seed


def _stream_passes(scenarios, grid, n_workers=1):
    """simulate_batch for every scenario at every h of grid, on streamed paths:
    yields (scenario, batches) for each scenario, in order, where batches
    gives one BatchResult per h, closed as it is read. A run's one check,
    before any block is drawn: a nonempty grid of h in [0, 1], and each
    scenario valid at the grid's least h (LTV_0 rises with h) on a grid
    _pass_record accepts; ScenarioError names the first scenario rejected.

    Consecutive scenarios with equal _path_inputs form a run: each of its
    blocks is drawn once, read by all of the run's kernel passes and dropped,
    all in the process that runs the block's task (_path_blocks). Consecutive
    scenarios of a run with equal _Pass records form a group, whose step loop runs
    once per h over the group's distinct C/V0 levels, in chunks of
    max(1, _STACK_ELEMENTS // rows) hedge ratios. Only the loop states are
    kept, per group, h and block, so memory grows with h, not with the
    variants. A run's scenarios are yielded after its last block, each closed
    from its group's states joined over the blocks in block order.
    """
    if not grid:
        raise ScenarioError("the h grid must be nonempty")
    bad = next((h for h in grid if not 0.0 <= h <= 1.0), None)  # nan too
    if bad is not None:
        raise ScenarioError("h = %g in the h grid: h must lie in [0,1]" % bad)
    checked = []  # (scenario, _Pass)
    for scn in scenarios:
        errs = validate_scenario(replace(scn, position=replace(scn.position, h=min(grid))))
        try:
            checked.append((scn, None if errs else _pass_record(scn.rates, scn.position, scn.sim)))
        except ScenarioError as exc:
            errs = [str(exc)]
        if errs:
            raise ScenarioError("%s: %s" % (scn.name, "; ".join(errs)))
    for (market, jump, _, dt_days, n_paths, seed), run in groupby(
            checked, key=lambda sr: _path_inputs(sr[0])):
        groups = [(rec, [scn for scn, _ in g]) for rec, g in groupby(run, key=lambda sr: sr[1])]
        levels = [tuple(dict.fromkeys(s.position.c_over_v0 for s in g)) for _, g in groups]

        def passes(_, rel_a, rel_b):
            """Per group and h, the block's loop state."""
            size = max(1, _STACK_ELEMENTS // len(rel_a))
            return [[state for lo in range(0, len(grid), size)
                     for state in _step_loop(rel_a, rel_b, rec, grid[lo:lo + size], cvs)]
                    for (rec, _), cvs in zip(groups, levels)]

        # per group and h, the loop state of each block
        states = [[[] for _ in grid] for _ in groups]
        # a run's scenarios share horizon and step, so all its records share steps
        for per_group in _path_blocks(market, jump, groups[0][0].steps, dt_days, n_paths, seed,
                                      task=passes, n_workers=n_workers):
            for parts, per_h in zip(states, per_group):
                for part, state in zip(parts, per_h):
                    part.append(state)
        for (rec, group), cvs, parts in zip(groups, levels, states):
            for i, blocks in enumerate(parts):
                joined = _LoopState(*(np.concatenate(col, axis=-1) for col in zip(*blocks)))
                # without a rule every block's n_reb is the same (1,) zero
                parts[i] = joined if rec.reb_stride else joined._replace(n_reb=blocks[0].n_reb)
            for scn in group:
                yield scn, _closes(parts, grid, cvs.index(scn.position.c_over_v0), rec, scn)


def _closes(states, grid, k, rec, scn):
    """scn's BatchResult at each h of grid, closed from rec's loop states as read."""
    return (_close(state, k, rec, h, scn.rates, scn.position, scn.sim)
            for h, state in zip(grid, states))


# ---------------------------------------------------------------------------
# aggregation

def _annualized_sharpe(roe, r_f, horizon_days):
    if roe.shape[0] < 2:
        return math.nan
    sd = float(np.std(roe, ddof=1))
    if sd == 0.0 or not math.isfinite(sd):
        return math.nan  # degenerate sample, reported distinctly
    mean = float(np.mean(roe))
    t_frac = horizon_days / DAYS_PER_YEAR
    return (mean - r_f * t_frac) / sd * math.sqrt(DAYS_PER_YEAR / horizon_days)


def aggregate(batch: BatchResult, horizon_days, r_f=0.0) -> SummaryStats:
    """Reduce one accounting pass to the summary row used by every table."""
    roe, liq, max_ltv, n_reb = batch.roe, batch.liquidated, batch.max_ltv, batch.n_rebalances
    not_liq = ~liq
    avg_reb = float(np.mean(n_reb[not_liq])) if not_liq.any() else math.nan
    std_pp = float(np.std(roe, ddof=1)) * 100.0 if roe.shape[0] > 1 else math.nan
    p95, p99 = np.percentile(max_ltv, (95.0, 99.0))  # one partition for both
    return SummaryStats(
        e_roe_pp=float(np.mean(roe)) * 100.0,
        std_pp=std_pp,
        sr_raw=_annualized_sharpe(batch.roe_raw, r_f, horizon_days),
        sr_tx=_annualized_sharpe(batch.roe_tx, r_f, horizon_days),
        p_loss=float(np.mean(roe < 0.0)),
        p_liq=float(np.mean(liq)),
        var5_pp=float(np.percentile(roe, 5.0)) * 100.0,
        mean_max_ltv=float(np.mean(max_ltv)),
        p95_max_ltv=float(p95),
        p99_max_ltv=float(p99),
        avg_rebalances=avg_reb,
        n_paths=int(roe.shape[0]))


def run_scenario(scn, n_workers=1) -> SummaryStats:
    """Stream a scenario's paths through one accounting pass and aggregate it."""
    (_, batches), = _stream_passes([scn], (scn.position.h,), n_workers)
    return aggregate(next(batches), scn.position.horizon_days, r_f=scn.rates.r_f)


def write_path_dump(batch: BatchResult, path):
    """Per-path CSV dump: path_id,roe,liquidated,liq_day,max_ltv,n_rebalances."""
    rows = zip(batch.roe, batch.liquidated, batch.liq_time_days, batch.max_ltv,
               batch.n_rebalances)
    with open(path, "w") as fh:
        fh.write("path_id,roe,liquidated,liq_day,max_ltv,n_rebalances\n")
        for i, (roe, liq, day, ltv, reb) in enumerate(rows):
            day_s = "" if math.isnan(day) else "%g" % day
            fh.write("%d,%.10g,%d,%s,%.10g,%d\n" % (i, roe, bool(liq), day_s, ltv, reb))
