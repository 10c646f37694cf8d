"""Multigrid-reduction-in-time with a full approximation scheme.

The all-at-once system on every level is block lower bidiagonal:

    u_0 = g_0,    u_i - step(u_{i-1}) = g_i ,

relaxation solves single blocks exactly (F-sweeps walk the points between
C-points, C-updates solve at C-points), and the coarse level receives the
injected iterate together with the full-approximation right-hand side
A_c(R u) + R (g - A u), optionally restricted to a coarser spatial grid.
Corrections come back through ideal interpolation: C-points are corrected
and F-points follow by propagation.

Storage is the part worth explaining.  Workers persist a level's iterate
only at the closing C-points of their intervals.  Every pass over a
level is one walk of the owned range (_walk): take the left boundary,
recompute each F-value with the problem's step plus the FAS right-hand
side, read each stored C-value.  The F-runs of a rank's k intervals do
not depend on each other, so a walk over a level with factor m is m
layers: layer j steps every interval from its point j - 1 to its point j
in one call of the problem's step_many kernel (problems.batched_step),
one row per interval, and layer m steps into the C-points.  Sweeps stop
at the last owned C-point and hold their steps into the C-points back
until the walk, which still reads the old C-values, is done; the ascent
walks on through the F-tail one point at a time.  Each coarse level adds
one full vector, the right-hand side.  The restricted iterate R u (for
Newton's guesses and the error v - R u) is the finer C-store's rows
restricted, unchanged from a restriction to the ascent after it, so the
finer rank rebuilds it; a rank keeps a copy only where another rank
holds finer C-points of its coarse points (a misaligned deal, as 300
steps with factors [4, 4, 3] give rank 1 at p = 2), and never on the
coarsest level.  A level keeps each store as one array of rows.  Index 0
never needs a slot: on every level the iterate there equals the
restricted initial value, which the problem hands out per grid.
StorageReport counts exactly these workspace rows, read off the stores'
lengths; running states inside a walk, Newton temporaries, the C-updates
and walked states a measuring sweep holds back and the rows routed to
rank 0 are not persistent and are not charged, mirroring how the serial
baseline is charged a single running state.  The coarsest
level's own C-store is allocated, because the model counts every level's
C-points, but on two or more levels nothing reads it.  Nested
iterations need no storage or mode of their own: their ascent injects v
where a cycle's adds the prolonged v - R u.

Rows move between ranks only by runtime.route, which sends each peer one
block of consecutive points, read off per-rank [start, stop) ranges.
The coarsest solve routes the right-hand side, if the level has one, to
rank 0, where _tail steps the anchor on through it, so _step is the only
way to the problem; the ascent sends those rows from rank 0 straight to
the owners of the finer C-points (on a 1-level hierarchy they are the
answer, routed back to their owners).  The fine trajectory is routed to
rank 0 whole.  Restriction and ascent route row blocks between the two
levels' per-rank lists of owned points and closing C-points
(runtime.Decomposition), the ascent on the coarse grid, and the spatial
transfers are the problem's row functions on a level's rows.
Residual squares and losses are stacked dots over the rows, and the
norm and the loss change are reduced over the ranks together, in one
reduce_norm per measuring sweep; the first one carries the C-updates' own
squares too, for the loose bar.

The fine residual lives only at C-points, and the next cycle's first
fine sweep steps into every C-point anyway, so the residual and the
per-C-point losses are measured inside that sweep while it holds its
C-updates back.  Only when the stopping test fails does the cycle go on
to commit them (gamma >= 1) or restrict from them (gamma = 0); a run
that stops returns exactly the iterate it measured: the rows that
sweep walked, and the F-tail stepped on from them.  The walked rows, a
worker's share of fine states, are let go once the cycle has used them:
before it with gamma >= 1, which reads only the C-updates, and after the
fine restriction with gamma = 0, so no worker holds two fine walks.

Newton (a problem with ``newton``) starts a step where the stores say it
lands: the stored C-value, or R u on a coarse F-layer, less the FAS
right-hand side; fine F-steps start from the state they step.  Steps a
later sweep overwrites run at the relative tolerance LOOSE_TOL: nested
iterations, the initial measuring sweep, and every sweep while the last
fine residual norm exceeds LOOSE_MARGIN times the stopping tolerance and
a loose step's error (LOOSE_TOL times the initial fine C-updates' norm).
No run stops on, or returns, a loose sweep: one that passes the test is
dropped, then walked again at newton.tol from the same C-values.  The
last sweep at max_iters, the answer's F-tail, 1-level and seeded runs,
and problems stepped row by row (that loop passes no tolerance) run at
newton.tol.
Only globally reduced norms decide, alike at every worker count.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonConvergenceError, NonFiniteError
from .problems import batched_step, joule_loss
from .runtime import Decomposition, NullTransport, reduce_norm, route
from .spatial import assign_spatial_levels
from .state import SpaceTimeVector

CYCLE_KINDS = ("two-level", "V", "F")
STOPPING_KINDS = ("residual-norm", "qoi-change")
QOI_FLOOR = 1e-30
# Newton's loose relative tolerance and its margin (see the module doc)
LOOSE_TOL = 1e-6
LOOSE_MARGIN = 100.0


@dataclass(frozen=True)
class CycleSpec:
    kind: str = "V"
    gamma: int = 1
    max_iters: int = 50
    spatial_strategy: str = "none"
    nested_iterations: bool = False

    def __post_init__(self):
        if self.kind not in CYCLE_KINDS:
            raise ValueError(f"cycle kind must be one of {CYCLE_KINDS}, "
                             f"got {self.kind!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class StoppingCriterion:
    kind: str = "residual-norm"
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.kind not in STOPPING_KINDS:
            raise ValueError(f"stopping kind must be one of {STOPPING_KINDS}, "
                             f"got {self.kind!r}")
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, "
                             f"got {self.tolerance}")


def _squares(rows, nf):
    """Each row's field square plus its scalars' square, from stacked dots:
    bitwise float(f @ f) + float(s @ s) of the row's parts."""
    return (rows[:, None, :nf] @ rows[:, :nf, None]
            + rows[:, None, nf:] @ rows[:, nf:, None])[:, 0, 0]


def qoi_change(p_new, p_old):
    """Largest relative change between two per-C-point loss samples."""
    p_new = np.asarray(p_new, dtype=float)
    p_old = np.asarray(p_old, dtype=float)
    if p_new.shape != p_old.shape:
        raise ValueError(f"sample shapes differ: {p_new.shape} vs {p_old.shape}")
    if p_new.size == 0:
        return 0.0
    return float(np.max(np.abs(p_new - p_old)
                        / np.maximum(np.abs(p_old), QOI_FLOOR)))


def _keeps_copy(finer, owned):
    """Whether a rank owning the coarse points ``owned`` ([start, stop))
    must keep their restricted iterate: some of their finer C-points, the
    rank's ``finer`` intervals, are another rank's."""
    (first, stop), (lo, hi) = finer, owned
    return lo < hi and not first <= lo <= hi <= stop


def storage_estimate(n_levels, n_fine_steps, factors, n_workers,
                     coarsest_factor):
    """Peak per-worker stored states of the lean layout, from the dealt
    intervals (runtime.Decomposition).

    Level l keeps its iterate at the closing C-points of the C-intervals
    a worker owns, every coarse level the right-hand side per owned
    point, and a coarse level above the coarsest a copy of the restricted
    iterate per owned point only where _keeps_copy says so.  ``factors``
    are the n_levels - 1 inter-level factors and ``coarsest_factor`` the
    coarsest level's own (TimeHierarchy.level_factors[-1]).
    """
    factors = list(factors)
    if len(factors) != n_levels - 1:
        raise ValueError(f"{n_levels} levels need {n_levels - 1} factors, "
                         f"got {len(factors)}")
    per_rank, n, finer = [0] * n_workers, n_fine_steps + 1, None
    for l, m in enumerate(factors + [coarsest_factor]):
        d = Decomposition(n, m, n_workers)
        for w, ((a, b), (lo, hi)) in enumerate(zip(d.intervals, d.owned)):
            per_rank[w] += b - a
            if l:
                copy = l < n_levels - 1 and _keeps_copy(finer[w], (lo, hi))
                per_rank[w] += (1 + copy) * (hi - lo)
        finer, n = d.intervals, (n - 1) // m + 1
    return max(per_rank)


@dataclass
class StorageReport:
    per_level: list
    total: int
    estimate: int


@dataclass
class SolverRun:
    converged: bool = False
    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    qoi_changes: list = field(default_factory=list)
    # per residual norm, the Newton tolerance of the sweep that measured
    # it: LOOSE_TOL, or None for newton.tol
    newton_tols: list = field(default_factory=list)
    iteration_seconds: list = field(default_factory=list)
    initial_residual: float = 0.0
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    level_seconds: list = field(default_factory=list)  # wall - wait, per level
    wait_seconds: list = field(default_factory=list)  # blocked in send or recv
    # per level, since the solver was built: step_many calls, rows stepped,
    # and layer iterates (each call's largest row iteration count, summed)
    kernel_calls: list = field(default_factory=list)
    kernel_rows: list = field(default_factory=list)
    layer_iterates: list = field(default_factory=list)
    storage: StorageReport | None = None
    n_workers: int = 1
    failure: str | None = None

    @property
    def total_seconds(self):
        return self.setup_seconds + self.solve_seconds


# --- the distributed engine --------------------------------------------------------

class _TimedTransport:
    """The solver's transport, totalling the seconds blocked in send and
    recv."""

    def __init__(self, inner):
        self.rank, self.size, self.waited = inner.rank, inner.size, 0.0
        self.send, self.recv = self._timed(inner.send), self._timed(inner.recv)

    def _timed(self, call):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return call(*args)
            finally:
                self.waited += time.perf_counter() - t0
        return timed


def _charged(method):
    """Charge a sweep to the level passed as its first argument: time
    blocked in send or recv to the level's wait, the rest to its
    seconds."""
    @functools.wraps(method)
    def timed(self, lvl, *args, **kwargs):
        t0, w0 = time.perf_counter(), self.transport.waited
        try:
            return method(self, lvl, *args, **kwargs)
        finally:
            waited = self.transport.waited - w0
            lvl.wait += waited
            lvl.seconds += time.perf_counter() - t0 - waited
    return timed


class _Level:
    """Per-worker workspace of one time level.  Each store is one array of
    rows, a state's field followed by its scalars."""

    def __init__(self, solver, index, grid, m, spatial_level, finer=None):
        self.index = index
        self.t = grid.points.tolist()
        self.m = m
        self.spatial_level = spatial_level
        rank, size = solver.transport.rank, solver.transport.size
        d = Decomposition(len(self.t), m, size)
        # per rank as [start, stop): its owned points, and its closing
        # C-points as points of the next coarser level; ranks up to last
        # are active
        self.owned, self.closing, self.last = d.owned, d.intervals, d.last
        first, stop = self.closing[rank]
        self.c_idx = [j * m for j in range(first, stop)]
        self.own_lo, self.own_hi = self.owned[rank]
        self.left_index = (first - 1) * m
        # the coarsest solve's ranges: points 1 .. n - 1 on rank 0
        self.at_root = [(1, len(self.t))] + [(0, 0)] * (size - 1)
        self.nf = solver.problem.spatial.size(spatial_level)
        self.width = self.nf + solver.problem.n_scalars
        init = solver.problem.initial_state(spatial_level)
        self.anchor = np.concatenate((init.field, init.scalars))
        self.c_store = np.zeros((len(self.c_idx), self.width))
        # the restricted iterate is the finer C-store's rows from kept_at
        # on, restricted, or a copy where _keeps_copy (not on the coarsest
        # level, whose rows seed no Newton guess)
        self.u_keep = self.rhs = None
        if finer is not None:
            self.rhs = np.zeros((self.own_hi - self.own_lo, self.width))
            self.kept_at = self.own_lo - finer.closing[rank][0]
            if index < solver.n_levels - 1 and _keeps_copy(
                    finer.closing[rank], self.owned[rank]):
                self.u_keep = np.zeros_like(self.rhs)
        # the owned C-points among the owned points
        self.c_rows = slice(self.m - 1, len(self.c_idx) * self.m, self.m)
        self.use_rhs = False  # plain initial-value level until a descent fills it
        self.held = None  # what a measuring sweep of this level held back
        self.seconds = 0.0
        self.wait = 0.0
        self.calls = self.rows = self.layer_iterates = 0


class MgritSolver:
    """Parallel-in-time solve of a problem over a time hierarchy."""

    def __init__(self, problem, hierarchy, cycle=None, stopping=None,
                 transport=None):
        t_setup = time.perf_counter()
        self.problem = problem
        self.hierarchy = hierarchy
        self.cycle = cycle if cycle is not None else CycleSpec()
        self.stopping = stopping if stopping is not None else StoppingCriterion()
        self.transport = _TimedTransport(
            transport if transport is not None else NullTransport())

        n_levels = hierarchy.n_levels
        if self.cycle.kind == "two-level" and n_levels > 2:
            n_levels = 2
        self.n_levels = n_levels
        self.assignment = assign_spatial_levels(
            self.cycle.spatial_strategy, n_levels, problem.spatial.n_grids)

        self._kernel = batched_step(problem)
        # Newton takes guesses and tolerances; the per-row loop takes none
        self._newton = hasattr(problem, "newton")
        self._loose = self._newton and (
            self._kernel == getattr(problem, "step_many", None))
        self._tol = None  # None: newton.tol
        self.levels = []
        for l in range(n_levels):
            self.levels.append(_Level(
                self, l, hierarchy[l], hierarchy.level_factors[l],
                self.assignment[l], self.levels[-1] if l else None))
        self._loss_weights = problem.loss_weights(self.assignment[0])
        fine = self.levels[0]
        self._loss_dt = [fine.t[c] - fine.t[c - 1] for c in fine.c_idx]
        self._smooth = False
        self.setup_seconds = time.perf_counter() - t_setup

    def storage_report(self):
        """Each level's stored rows: its C-store, rhs and any u_keep."""
        est = storage_estimate(
            self.n_levels, self.hierarchy[0].n_steps,
            self.hierarchy.factors[:self.n_levels - 1],
            self.transport.size, self.levels[-1].m)
        counts = [sum(len(a) for a in (lvl.c_store, lvl.u_keep, lvl.rhs)
                      if a is not None) for lvl in self.levels]
        return StorageReport(per_level=counts, total=sum(counts),
                             estimate=est)

    # --- sweeps ---

    def _step(self, lvl, rows, first, stride=1, guess=None):
        """Row r of ``rows`` stepped from point first + r stride - 1 into
        first + r stride, all rows in one kernel call, Newton starting from
        the rows of ``guess`` (None: from ``rows``) at the solver's
        current tolerance; counted on lvl."""
        if not len(rows):
            return rows
        stop = first + len(rows) * stride
        args = (rows[:, :lvl.nf], rows[:, lvl.nf:],
                lvl.t[first - 1:stop - 1:stride], lvl.t[first:stop:stride],
                lvl.spatial_level, self._smooth)
        if self._newton:
            args += (None if guess is None else guess[:, :lvl.nf], self._tol)
        fields, scalars, its = self._kernel(*args)
        lvl.calls += 1
        lvl.rows += len(rows)
        lvl.layer_iterates += max(its)
        return np.concatenate((fields, scalars), axis=1)

    def _guess(self, lvl, j, k):
        """Newton's start for layer j of a walk over k intervals: the
        stored value where its rows land (the C-store, or the restricted
        iterate on a coarse F-layer) less the FAS right-hand side; None,
        each row from its own state, on a fine F-layer or a coarse one
        without rhs."""
        if not self._newton or not (j == lvl.m or lvl.use_rhs):
            return None
        at = lvl.c_rows if j == lvl.m else slice(j - 1, k * lvl.m, lvl.m)
        kept = lvl.c_store if j == lvl.m else self._kept(lvl, at)
        return kept - lvl.rhs[at] if lvl.use_rhs else kept

    def _kept(self, lvl, at):
        """The restricted iterate at rows ``at`` of lvl's owned points:
        lvl's copy, or the finer C-store's rows there restricted, which
        nothing changes between the restriction and the ascent."""
        if lvl.u_keep is not None:
            return lvl.u_keep[at]
        finer = self.levels[lvl.index - 1]
        return self._transfer(self.problem.spatial.restrict_fields, finer,
                              lvl, finer.c_store[lvl.kept_at:][at])

    def _walk(self, lvl, sweep=False):
        """Walk the owned range in layers; returns (walked, updates).

        Active ranks send their last C-value right and take the left
        boundary (the anchor on the first).  walked holds it and then
        every owned point up to the last owned C-point: F-values
        propagated with the FAS right-hand side added, C-values as stored.
        Layer j < m steps all owned intervals into their j-th points at
        once.  A sweep's layer m steps into the C-points, and those steps,
        before any right-hand side, are the updates; a walk that is not a
        sweep goes on through the F-tail instead (updates None).  Idle
        ranks walk no rows.
        """
        rank, m, k = self.transport.rank, lvl.m, len(lvl.c_idx)
        walked = np.empty((1 + k * m, lvl.width))
        if rank > lvl.last:
            return walked[:0], walked[:0]
        if rank < lvl.last:  # so it owns an interval
            self.transport.send(rank + 1, lvl.c_store[-1])
        walked[0] = lvl.anchor if rank == 0 else self.transport.recv(rank - 1)
        walked[m::m] = lvl.c_store
        cur = walked[:-1:m]  # each interval's left end
        for j in range(1, m + sweep):
            cur = self._step(lvl, cur, lvl.left_index + j, m,
                             self._guess(lvl, j, k))
            if j < m:
                if lvl.use_rhs:
                    cur += lvl.rhs[j - 1:k * m:m]
                walked[j::m] = cur
        return (walked, cur) if sweep else (self._tail(lvl, walked), None)

    def _tail(self, lvl, walked, stop=None, rhs=None):
        """walked (from the left boundary on) stepped on to ``stop`` (the
        owned end) one point at a time, the engine's only such loop,
        adding ``rhs`` (rows from own_lo on; default the level's own);
        walked itself when there is nothing to step."""
        rhs = lvl.rhs if rhs is None and lvl.use_rhs else rhs
        rows = [walked]
        for i in range(lvl.left_index + len(walked), stop or lvl.own_hi):
            u = self._step(lvl, rows[-1][-1:], i)
            if rhs is not None:
                u += rhs[i - lvl.own_lo]
            rows.append(u)
        return np.concatenate(rows) if len(rows) > 1 else walked

    @_charged
    def _fc_sweep(self, lvl):
        """F-relaxation, then C-relaxation from the F-relaxed values."""
        _, updates = self._walk(lvl, sweep=True)
        if lvl.use_rhs:
            updates += lvl.rhs[lvl.c_rows]
        lvl.c_store[:] = updates

    def _losses(self, before, at):
        """Joule losses of the fine steps into the owned C-points, from
        the rows at c - 1 and at c, in one stacked call."""
        nf = self.levels[0].nf
        return joule_loss(before[:, :nf], at[:, :nf], self._loss_dt,
                          self._loss_weights)

    def _reduce(self, squares, losses, prev_losses, *more):
        """Fine residual norm from the per-C-point squares, loss change
        (None without prev_losses) and the norm of each further list of
        squares, reduced over all ranks together; a non-finite residual
        norm or loss change raises NonFiniteError."""
        change = None if prev_losses is None else qoi_change(losses,
                                                             prev_losses)
        out = reduce_norm(self.transport, squares, change, *more)
        for name, value in zip(("residual norm", "loss change"), out):
            if value is not None and not math.isfinite(value):
                raise NonFiniteError(f"fine {name} is not finite: {value}")
        return out

    @_charged
    def _measure(self, lvl, prev_losses=None, sized=False):
        """The next cycle's first fine sweep, run without committing.

        Returns the fine residual norm, the loss change against
        ``prev_losses`` (None without them), with ``sized`` the C-updates'
        own norm, then the per-C-point losses and the held-back sweep: its
        walked rows and C-updates.  The fine level has no FAS right-hand
        side: the residual at c is step(u_{c-1}) - u_c.
        """
        walked, updates = held = self._walk(lvl, sweep=True)
        more = [_squares(updates, lvl.nf)] if sized else []
        squares = _squares(updates - lvl.c_store, lvl.nf)
        losses = self._losses(walked[lvl.m - 1::lvl.m], walked[lvl.m::lvl.m])
        return (*self._reduce(squares, losses, prev_losses, *more), losses,
                held)

    def _transfer(self, fn, src, dst, rows):
        """Rows of level src as rows of level dst, fn (a row function of the
        problem's spatial hierarchy) on the fields; on the same grid the rows
        themselves, safe because callers never write what they get back."""
        if src.spatial_level == dst.spatial_level:
            return rows
        return np.concatenate((fn(rows[:, :src.nf]), rows[:, src.nf:]),
                              axis=1)

    @_charged
    def _restrict_sweep(self, lvl, nxt, held=None):
        """Final F-sweep fused with residual injection and the coarse fill.

        Computes, for every owned interval's closing C-point c with coarse
        index j = c / m: the restricted iterate and the coarse FAS
        right-hand side, then redistributes both to the coarse owner,
        which seeds the coarse iterate with the restricted values and
        keeps them only where it has a copy.  ``held`` is a measuring
        sweep's (walked, C-updates), which replace the sweep.  The coarse
        steps, one per interval, are one kernel call.
        """
        restrict = functools.partial(
            self._transfer, self.problem.spatial.restrict_fields, lvl, nxt)
        walked, updates = held if held is not None else self._walk(lvl, True)
        res = updates - lvl.c_store
        if lvl.use_rhs:
            res += lvl.rhs[lvl.c_rows]
        left = restrict(walked[:1])  # the boundary; idle ranks have none
        kept = restrict(lvl.c_store)
        rhs = kept - self._step(nxt, np.concatenate((left, kept))[:len(kept)],
                                lvl.closing[self.transport.rank][0])
        rhs += restrict(res)
        got = route(self.transport, np.stack((kept, rhs), axis=1),
                    lvl.closing, nxt.owned)
        nxt.rhs[:] = got[:, 1]
        if nxt.u_keep is not None:
            nxt.u_keep[:] = got[:, 0]
        nxt.use_rhs = True
        nxt.c_store[:] = got[nxt.c_rows, 0]  # coarse seed

    @_charged
    def _coarsest_solve(self, lvl, prev_losses=None):
        """Route the right-hand side (if the level has one) to rank 0,
        which holds points 1 .. n - 1, and step the anchor through the
        level with it there.  On a coarse level this returns those rows
        v (rank 0; no rows elsewhere), which _ascend sends on.  On the
        fine level (a 1-level hierarchy) v is the answer: its rows are
        routed to their owners and this returns _measure's tuple with v
        (rank 0; None elsewhere) for the held sweep, residual 0 by
        construction, losses from the routed v."""
        n, root = len(lvl.t), self.transport.rank == 0
        rhs = (route(self.transport, lvl.rhs, lvl.owned, lvl.at_root)
               if lvl.use_rhs else None)
        v = lvl.anchor[None]  # elsewhere v[1:] is no rows, of the width
        if root:
            v = self._tail(lvl, v, n, rhs)
        if lvl.index:
            return v[1:]
        mine = route(self.transport, v[1:], lvl.at_root, lvl.owned)
        end = len(lvl.c_idx) * lvl.m  # mine[c - own_lo] for c in c_idx
        losses = self._losses(mine[lvl.m - 2:end:lvl.m],
                              mine[lvl.m - 1:end:lvl.m])
        return (*self._reduce([], losses, prev_losses), losses,
                v if root else None)

    @_charged
    def _ascend(self, coarse, fine, v=None, inject=False):
        """Carry corrections (or, for nested iterations, values) from a
        coarse level into the fine C-store.

        The coarse iterate v is the coarsest solve's rows on rank 0 or,
        by default, a full walk of the coarse owned range; it is routed
        to the owners of the fine C-points, which form the error v less
        their C-store restricted (unchanged since the restriction) and
        prolong it.
        """
        src = coarse.at_root
        if v is None:
            v, src = self._walk(coarse)[0][1:], coarse.owned
        got = route(self.transport, v, src, fine.closing)
        if not inject:
            got -= self._transfer(self.problem.spatial.restrict_fields,
                                  fine, coarse, fine.c_store)
        got = self._transfer(self.problem.spatial.prolong_fields, coarse,
                             fine, got)
        fine.c_store[:] = got if inject else fine.c_store + got

    # --- cycles ---

    def _cycle(self, l, f_cycle=False):
        """One V- or F-cycle from level l down.  What solve's measuring
        sweep of the level held back (lvl.held) stands in for the first
        FC-sweep, or for the restriction's sweep when gamma = 0, and is
        let go once used.  The coarsest level is solved sequentially and
        returns its rows (see _coarsest_solve); any other returns None."""
        lvl, sweeps = self.levels[l], self.cycle.gamma
        if l == self.n_levels - 1:
            return self._coarsest_solve(lvl)
        if lvl.held is not None and sweeps:
            lvl.c_store[:] = lvl.held[1]
            lvl.held, sweeps = None, sweeps - 1
        for _ in range(sweeps):
            self._fc_sweep(lvl)
        self._restrict_sweep(lvl, self.levels[l + 1], lvl.held)
        lvl.held = None
        self._ascend(self.levels[l + 1], lvl,
                     self._cycle(l + 1, f_cycle=f_cycle))
        if f_cycle and l > 0:
            self._cycle(l)

    # --- nested iterations ---

    def _nested_iterations(self):
        self._smooth = True
        try:
            # use_rhs is False everywhere: _initialize_guess just ran
            v = self._coarsest_solve(self.levels[-1])
            for l in range(self.n_levels - 2, -1, -1):
                self._ascend(self.levels[l + 1], self.levels[l], v,
                             inject=True)
                v = None
                if l > 0:
                    self._cycle(l)
        finally:
            self._smooth = False

    # --- driver ---

    def _initialize_guess(self):
        for lvl in self.levels:
            lvl.c_store[:] = lvl.anchor
            lvl.use_rhs, lvl.held = False, None

    def seed(self, trajectory):
        """Load the fine-level C-store from a full trajectory (every rank
        passes the same global SpaceTimeVector)."""
        lvl = self.levels[0]
        lvl.c_store[:, :lvl.nf], lvl.c_store[:, lvl.nf:] = (
            trajectory.fields[lvl.c_idx], trajectory.scalars[lvl.c_idx])

    def solve(self, gather_solution=True, initial_guess=None):
        """Run cycles until the stopping test passes or max_iters is hit.

        Returns (run, solution); the materialized fine trajectory arrives
        on rank 0 (None elsewhere, and None when gather_solution=False).
        A given initial_guess replaces both the constant-anchor start and
        the nested-iteration setup phase.
        """
        run = SolverRun(n_workers=self.transport.size)
        t_setup, t_solve, answer = time.perf_counter(), None, None
        fine, stop = self.levels[0], self.stopping
        self._initialize_guess()
        loose = (LOOSE_TOL if self._loose and self.n_levels > 1
                 and initial_guess is None else None)
        self._tol = loose
        try:
            if initial_guess is not None:
                self.seed(initial_guess)
            elif self.cycle.nested_iterations and self.n_levels > 1:
                self._nested_iterations()
            t_solve = time.perf_counter()
            run.initial_residual, _, *size, losses, held = self._measure(
                fine, None, loose is not None)
            norm, bar = run.initial_residual, LOOSE_MARGIN * stop.tolerance
            if size:  # a loose step errs by about loose |u|
                bar = max(bar, LOOSE_MARGIN * loose * size[0])
            for it in range(1, self.cycle.max_iters + 1):
                if self.n_levels == 1:
                    norm, change, losses, answer = self._coarsest_solve(
                        fine, prev_losses=losses)
                else:
                    self._tol = loose if norm > bar else None
                    fine.held, held = held, None  # the cycle lets it go
                    self._cycle(0, self.cycle.kind == "F")
                    if it == self.cycle.max_iters:
                        self._tol = None
                    prev = losses
                    norm, change, losses, held = self._measure(fine, prev)
                    if self._tol is not None and self._stops(norm, change):
                        self._tol = held = None  # stop only on a tight one
                        norm, change, losses, held = self._measure(fine, prev)
                run.iterations = it
                run.residual_norms.append(norm)
                run.qoi_changes.append(change)
                run.newton_tols.append(self._tol)
                run.iteration_seconds.append(time.perf_counter() - t_solve)
                if self.n_levels == 1 or self._stops(norm, change):
                    run.converged = True
                    break  # the held C-updates are dropped, never committed
        except (NewtonConvergenceError, NonFiniteError) as e:
            # a non-finite norm is raised after the reduction, on every
            # rank alike; a Newton breakdown strikes one rank, whose
            # peers would wait on it
            if self.transport.size > 1 and isinstance(
                    e, NewtonConvergenceError):
                raise
            run.failure = str(e)
        self._tol = None  # the F-tail of the answer runs tight
        if t_solve is None:  # failed before the first cycle
            t_solve = time.perf_counter()
        run.setup_seconds = self.setup_seconds + (t_solve - t_setup)
        run.solve_seconds = time.perf_counter() - t_solve
        run.level_seconds = [lvl.seconds for lvl in self.levels]
        run.wait_seconds = [lvl.wait for lvl in self.levels]
        run.storage = self.storage_report()

        solution = None
        if gather_solution and run.failure is None:
            rows = answer if self.n_levels == 1 else self._materialize(
                held[0])
            if rows is not None:  # rank 0
                solution = SpaceTimeVector(rows[:, :fine.nf],
                                           rows[:, fine.nf:])
        run.kernel_calls = [lvl.calls for lvl in self.levels]
        run.kernel_rows = [lvl.rows for lvl in self.levels]
        run.layer_iterates = [lvl.layer_iterates for lvl in self.levels]
        return run, solution

    def _stops(self, norm, change):
        """Whether a measured sweep passes the stopping test."""
        value = norm if self.stopping.kind == "residual-norm" else change
        return value < self.stopping.tolerance

    def _materialize(self, walked):
        """Step the F-tail on from the last measuring walk and route the
        trajectory's rows to rank 0 (None elsewhere), which gets them in
        a new array: rank 0 sends its rows from the anchor on, every other
        rank its owned range."""
        lvl, rank = self.levels[0], self.transport.rank
        sent = [(0, lvl.owned[0][1]), *lvl.owned[1:]]
        rows = self._tail(lvl, walked)
        got = route(self.transport, rows if rank == 0 else rows[1:], sent,
                    [(0, len(lvl.t))] + [(0, 0)] * (self.transport.size - 1))
        return got if rank == 0 else None


def mgrit_solve(problem, hierarchy, cycle=None, stopping=None, transport=None,
                gather_solution=True, initial_guess=None):
    solver = MgritSolver(problem, hierarchy, cycle, stopping, transport)
    return solver.solve(gather_solution=gather_solution,
                        initial_guess=initial_guess)
