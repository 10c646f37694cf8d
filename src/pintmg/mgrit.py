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
side, read each stored C-value.  Sweeps stop at the last owned C-point
and hold their steps into the C-points back until the walk, which still
reads the old C-values, is done; the ascent walks on through the
F-tail.  Each coarse level adds two full vectors (the kept restricted
iterate and the right-hand side).  Index 0 never needs a slot: on every
level the iterate there equals the restricted initial value, which the
problem hands out per grid.  The measured peak in StorageReport counts
exactly these workspace states; running states inside a walk, Newton
temporaries, the C-updates and walked states a measuring sweep holds
back and the transient buffers of a rank-0 gather are not persistent and
are not charged, mirroring how the serial baseline is charged a single
running state.  The coarsest level's own C-store is allocated, because
the model counts every level's C-points, but on two or more levels
nothing reads it.

One helper (_gather) assembles a level on rank 0 in point order, for
the coarsest solve (sequential_solve on the gathered right-hand side,
owned ranges scattered back; on a 1-level hierarchy it is the answer)
and for the fine trajectory, which each rank sends as one field and one
scalar array.  Restriction and ascent move values between levels
through _route: every point's payload goes to the rank owning it on the
other level, receivers take what others computed in point order.

The fine residual lives only at C-points, and the next cycle's first
fine sweep steps into every C-point anyway, so the residual and the
per-C-point losses are measured inside that sweep while it holds its
C-updates back.  Only when the stopping test fails does the cycle go on
to commit them (gamma >= 1) or restrict from them (gamma = 0); a run
that stops returns exactly the iterate it measured: the states that
sweep walked, and the F-tail stepped on from them.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonConvergenceError, NonFiniteError
from .problems import joule_loss, sequential_solve
from .runtime import (
    Decomposition, NullTransport, gather_to_root, reduce_max, reduce_norm,
    scatter_from_root,
)
from .spatial import assign_spatial_levels
from .state import BlockState, SpaceTimeVector
from .time_hierarchy import level_factor

CYCLE_KINDS = ("two-level", "V", "F")
STOPPING_KINDS = ("residual-norm", "qoi-change")
QOI_FLOOR = 1e-30


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


def qoi_change(p_new, p_old, floor=QOI_FLOOR):
    """Largest relative change between two per-C-point loss samples."""
    p_new = np.asarray(p_new, dtype=float)
    p_old = np.asarray(p_old, dtype=float)
    if p_new.shape != p_old.shape:
        raise ValueError(f"sample shapes differ: {p_new.shape} vs {p_old.shape}")
    if p_new.size == 0:
        return 0.0
    return float(np.max(np.abs(p_new - p_old)
                        / np.maximum(np.abs(p_old), floor)))


def storage_estimate(n_levels, n_fine_steps, factors, n_workers,
                     coarsest_factor=None):
    """Peak per-worker stored states of the lean layout.

    Level l keeps its iterate at the closing C-points of the units a
    worker owns, and every coarse level keeps two states (the kept
    iterate and the right-hand side) per owned point.  Units are dealt as
    runtime.Decomposition deals them: whole C-intervals, the remainder to
    the lowest ranks, the trailing F-points to the last active rank.
    ``factors`` are the n_levels - 1 inter-level factors; the coarsest
    level's own splitting reuses the last one, clamped to the coarsest
    grid as TimeHierarchy.build clamps it, unless ``coarsest_factor``
    says otherwise.
    """
    factors = list(factors)
    if len(factors) != n_levels - 1:
        raise ValueError(f"{n_levels} levels need {n_levels - 1} factors, "
                         f"got {len(factors)}")
    if coarsest_factor is None:
        coarsest_factor = level_factor(
            n_fine_steps // math.prod(factors) + 1,
            factors[-1] if factors else 2)
    per_rank, steps = [0] * n_workers, n_fine_steps
    for l, m in enumerate(factors + [coarsest_factor]):
        units, tail = divmod(steps, m)
        base, rem = divmod(units, n_workers)
        last = max(min(units, n_workers), 1) - 1  # owns the F-tail
        for w in range(n_workers):
            n = base + (w < rem)
            per_rank[w] += n
            if l:
                per_rank[w] += 2 * (n * m + (tail if w == last else 0))
        steps //= m
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
    iteration_seconds: list = field(default_factory=list)
    initial_residual: float = 0.0
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    level_seconds: list = field(default_factory=list)  # compute, per level
    wait_seconds: list = field(default_factory=list)   # blocked in recv
    storage: StorageReport | None = None
    n_workers: int = 1
    failure: str | None = None

    @property
    def total_seconds(self):
        return self.setup_seconds + self.solve_seconds


# --- the distributed engine --------------------------------------------------------

class _TimedTransport:
    """The solver's transport, totalling the seconds blocked in recv."""

    def __init__(self, inner):
        self.send, self._recv = inner.send, inner.recv
        self.rank, self.size, self.waited = inner.rank, inner.size, 0.0

    def recv(self, src):
        t0 = time.perf_counter()
        try:
            return self._recv(src)
        finally:
            self.waited += time.perf_counter() - t0


def _charged(method):
    """Charge a sweep to the level passed as its first argument: time
    blocked in recv to the level's wait, the rest to its seconds."""
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
    """Per-worker workspace of one time level."""

    def __init__(self, solver, index, grid, splitting, spatial_level):
        self.index = index
        self.grid = grid
        self.splitting = splitting
        self.spatial_level = spatial_level
        self.decomp = Decomposition(splitting, solver.transport.size)
        rank = solver.transport.rank
        self.c_idx = [int(c) for c in self.decomp.c_points(rank)]
        self.own_lo, self.own_hi = self.decomp.owned_range(rank)
        self.left_index = self.decomp.left_boundary_index(rank)
        self.anchor = solver.problem.initial_state(spatial_level)
        nf = solver.problem.spatial.size(spatial_level)
        ns = solver.problem.n_scalars
        alloc = solver._alloc_state
        self.c_store = [alloc(index, nf, ns) for _ in self.c_idx]
        self.u_keep = None
        self.rhs = None
        if index > 0:
            n_owned = self.own_hi - self.own_lo
            self.u_keep = [alloc(index, nf, ns) for _ in range(n_owned)]
            self.rhs = [alloc(index, nf, ns) for _ in range(n_owned)]
        self.use_rhs = False  # plain initial-value level until a descent fills it
        self.seconds = 0.0
        self.wait = 0.0

    def kept(self, i):
        return self.u_keep[i - self.own_lo]


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

        self._counts = [0] * n_levels
        self.levels = [
            _Level(self, l, hierarchy[l], hierarchy.splittings[l],
                   self.assignment[l])
            for l in range(n_levels)]
        self._loss_weights = problem.loss_weights(self.assignment[0])
        self._smooth = False
        self.setup_seconds = time.perf_counter() - t_setup

    # --- storage accounting ---

    def _alloc_state(self, level, nf, ns):
        self._counts[level] += 1
        return BlockState.zeros(nf, ns)

    def storage_report(self):
        est = storage_estimate(
            self.n_levels, self.hierarchy[0].n_steps,
            self.hierarchy.factors[:self.n_levels - 1],
            self.transport.size,
            coarsest_factor=self.levels[-1].splitting.factor)
        return StorageReport(per_level=list(self._counts),
                             total=sum(self._counts), estimate=est)

    # --- communication helpers ---

    def _gather(self, chunk, first=None, rows=iter):
        """Gather every rank's owned chunk onto rank 0: a level's points are
        ``first``, then each rows(chunk) in rank order, as the owned ranges
        follow each other; None elsewhere."""
        gathered = gather_to_root(self.transport, chunk)
        if gathered is None:
            return None
        return [first] + [u for part in gathered for u in rows(part)]

    def _route(self, items, dest_of, expected, apply):
        """Redistribute (j, payload) items between levels.

        Each item goes to rank dest_of(j): local ones are applied at once,
        the rest are sent once the items are exhausted, merged in
        ascending j with the expected (j, source) arrivals.  Both ends of
        every message meet it in that one order, so no two ranks can
        block writing to each other (see the runtime module).
        """
        rank, outgoing = self.transport.rank, []
        for j, payload in items:
            dest = dest_of(j)
            if dest == rank:
                apply(j, payload)
            else:
                outgoing.append((j, True, dest, payload))
        incoming = ((j, False, src, None) for j, src in expected if src != rank)
        for j, sending, peer, payload in heapq.merge(
                outgoing, incoming, key=operator.itemgetter(0)):
            if sending:
                self.transport.send(peer, (j, payload))
                continue
            jj, payload = self.transport.recv(peer)
            if jj != j:
                raise RuntimeError(f"redistribution order broke: {jj} != {j}")
            apply(j, payload)

    # --- sweeps ---

    def _step(self, lvl, u_prev, i):
        t = lvl.grid.points
        out, _ = self.problem.step(u_prev, float(t[i - 1]), float(t[i]),
                                   lvl.spatial_level, guess=u_prev,
                                   smooth=self._smooth)
        return out

    def _walk(self, lvl, sweep=False):
        """Walk the owned range; idle ranks yield nothing.  Active ranks
        send their last C-value right, take the left boundary (the anchor
        on the first) and yield it as (left_index, boundary, None), then
        (i, u_i, prop) per owned point: F-values propagated with the FAS
        right-hand side added, C-values as stored.  A sweep stops at the
        last owned C-point and gives as prop the step into each C-point,
        before any right-hand side; otherwise prop is None and the walk
        goes on through the F-tail."""
        rank, d = self.transport.rank, lvl.decomp
        if d.is_empty(rank):
            return
        right, left = d.right_neighbor(rank), d.left_neighbor(rank)
        if right is not None and lvl.c_store:
            self.transport.send(right, lvl.c_store[-1])
        cur = lvl.anchor if left is None else self.transport.recv(left)
        yield lvl.left_index, cur, None
        stop = (lvl.c_idx or [lvl.left_index])[-1] + 1 if sweep else lvl.own_hi
        k = 0
        for i in range(lvl.left_index + 1, stop):
            prop = None
            if k < len(lvl.c_idx) and i == lvl.c_idx[k]:
                if sweep:
                    prop = self._step(lvl, cur, i)
                cur, k = lvl.c_store[k], k + 1
            else:
                cur = self._step(lvl, cur, i)
                if lvl.use_rhs:
                    cur.add_scaled(lvl.rhs[i - lvl.own_lo], 1.0)
            yield i, cur, prop

    def _sweep(self, lvl):
        """(left boundary, steps into the owned C-points) of one sweep."""
        walk = self._walk(lvl, sweep=True)
        _, boundary, _ = next(walk, (None, None, None))
        return boundary, [prop for _, _, prop in walk if prop is not None]

    @staticmethod
    def _commit(lvl, updates):
        for s, upd in zip(lvl.c_store, updates):
            s.copy_from(upd)

    @_charged
    def _fc_sweep(self, lvl):
        """F-relaxation, then C-relaxation from the F-relaxed values."""
        _, updates = self._sweep(lvl)
        if lvl.use_rhs:
            for c, upd in zip(lvl.c_idx, updates):
                upd.add_scaled(lvl.rhs[c - lvl.own_lo], 1.0)
        self._commit(lvl, updates)

    def _loss(self, c, before, at):
        """Joule loss of the fine step into point c."""
        t = self.levels[0].grid.points
        return joule_loss(before, at, float(t[c] - t[c - 1]),
                          self._loss_weights)

    def _reduce(self, squares, losses, prev_losses):
        """Fine residual norm from the per-C-point squares and loss change
        (None without prev_losses), reduced over all ranks; a non-finite
        one raises NonFiniteError."""
        norm = reduce_norm(self.transport, squares)
        change = None
        if prev_losses is not None:
            change = reduce_max(self.transport, qoi_change(losses, prev_losses)
                                if losses.size else 0.0)
        for name, value in (("residual norm", norm), ("loss change", change)):
            if value is not None and not math.isfinite(value):
                raise NonFiniteError(f"fine {name} is not finite: {value}")
        return norm, change

    @_charged
    def _measure(self, lvl, prev_losses=None):
        """The next cycle's first fine sweep, run without committing.

        Returns the fine residual norm, the loss change against
        ``prev_losses`` (None without them), the per-C-point losses, the
        held-back (left boundary, C-updates) and the walked states from the
        boundary on.  The fine level has no FAS right-hand side: the
        residual at c is step(u_{c-1}) - u_c.
        """
        squares, updates = [], []
        losses = np.zeros(len(lvl.c_idx))
        walk = self._walk(lvl, sweep=True)
        _, boundary, _ = next(walk, (None, None, None))
        walked = [boundary]
        for i, u, prop in walk:
            if prop is not None:
                squares.append((prop - u).norm_sq())
                losses[len(updates)] = self._loss(i, walked[-1], u)
                updates.append(prop)
            walked.append(u)
        return (*self._reduce(squares, losses, prev_losses), losses,
                (boundary, updates), walked)

    @_charged
    def _restrict_sweep(self, lvl, nxt, held=None):
        """Final F-sweep fused with residual injection and the coarse fill.

        Computes, for every owned unit's closing C-point c with coarse
        index j = c / m: the kept restricted iterate and the coarse FAS
        right-hand side, then redistributes both to the coarse owner and
        seeds the coarse iterate with the kept values.  ``held`` is a
        measuring sweep's (boundary, C-updates), which replace the sweep.
        """
        restrict = (self.problem.spatial.restrict_state
                    if nxt.spatial_level != lvl.spatial_level
                    else lambda s: s)  # nothing writes the C-store here
        d = lvl.decomp
        first = d.first_unit(self.transport.rank)
        boundary, updates = held if held is not None else self._sweep(lvl)

        def items(left_kept):
            for k, (c, prop) in enumerate(zip(lvl.c_idx, updates)):
                res = prop - lvl.c_store[k]
                if lvl.use_rhs:
                    res.add_scaled(lvl.rhs[c - lvl.own_lo], 1.0)
                kept = restrict(lvl.c_store[k])
                rhs = kept - self._step(nxt, left_kept, first + k + 1)
                rhs.add_scaled(restrict(res), 1.0)
                yield first + k + 1, (kept, rhs)
                left_kept = kept

        def fill(j, payload):
            nxt.kept(j).copy_from(payload[0])
            nxt.rhs[j - nxt.own_lo].copy_from(payload[1])

        self._route(items(None if boundary is None else restrict(boundary)),
                    nxt.decomp.point_owner,
                    ((j, d.unit_owner(j - 1))
                     for j in range(nxt.own_lo, nxt.own_hi)), fill)
        nxt.use_rhs = True
        self._commit(nxt, [nxt.kept(c) for c in nxt.c_idx])  # coarse seed

    @_charged
    def _coarsest_solve(self, lvl, nested=False, prev_losses=None):
        """Gather the right-hand side, step the level sequentially on
        rank 0, scatter the owned ranges.  On a coarse level the kept
        slots then hold v - kept (the error), or v itself during nested
        iterations.  On the fine level (a 1-level hierarchy) v is the
        answer: this returns _measure's tuple with v (rank 0) for the held
        updates, residual 0 by construction, losses from the scattered v."""
        g = self._gather(lvl.rhs if lvl.use_rhs
                         else [None] * (lvl.own_hi - lvl.own_lo))
        v = chunks = None
        if g is not None:
            v = sequential_solve(self.problem, lvl.grid.points,
                                 lvl.spatial_level, self._smooth,
                                 g if lvl.use_rhs else None,
                                 initial=lvl.anchor.clone())
            chunks = [v.states[slice(*lvl.decomp.owned_range(w))]
                      for w in range(self.transport.size)]
        mine = scatter_from_root(self.transport, chunks)
        if lvl.index == 0:
            lo = lvl.own_lo
            losses = np.array([self._loss(c, mine[c - 1 - lo], mine[c - lo])
                               for c in lvl.c_idx])
            return (*self._reduce([], losses, prev_losses), losses, v)
        for slot, vi in zip(lvl.u_keep, mine):
            slot.copy_from(vi if nested else vi - slot)

    @_charged
    def _ascend(self, coarse, fine, inject=False):
        """Carry corrections (or, for nested iterations, values) from a
        coarse level into the fine C-store.

        The coarsest level's kept slots already hold the payload for every
        owned point; on any other level a full walk reconstructs the
        coarse iterate and emits v - kept on the fly.
        """
        prolong = (self.problem.spatial.prolong_error
                   if coarse.spatial_level != fine.spatial_level
                   else lambda s: s)
        if coarse.index == self.n_levels - 1:
            items = ((i, coarse.kept(i))
                     for i in range(coarse.own_lo, coarse.own_hi))
        else:
            items = ((i, u if inject else u - coarse.kept(i))
                     for i, u, _ in self._walk(coarse) if i >= coarse.own_lo)
        first = fine.decomp.first_unit(self.transport.rank) + 1

        def apply(j, payload):
            slot = fine.c_store[j - first]
            if inject:
                slot.copy_from(prolong(payload))
            else:
                slot.add_scaled(prolong(payload), 1.0)

        self._route(items, lambda j: fine.decomp.unit_owner(j - 1),
                    ((j, coarse.decomp.point_owner(j))
                     for j in range(first, first + len(fine.c_idx))), apply)

    # --- cycles ---

    def _cycle(self, l, held=None, f_cycle=False):
        """One V- or F-cycle from level l down.  ``held`` is what the
        driver's measuring sweep of level 0 held back: it stands in for
        the first FC-sweep, or for the restriction's sweep when gamma = 0.
        The coarsest level is solved sequentially."""
        lvl, sweeps = self.levels[l], self.cycle.gamma
        if l == self.n_levels - 1:
            self._coarsest_solve(lvl)
            return
        if held is not None and sweeps:
            self._commit(lvl, held[1])
            held, sweeps = None, sweeps - 1
        for _ in range(sweeps):
            self._fc_sweep(lvl)
        self._restrict_sweep(lvl, self.levels[l + 1], held)
        self._cycle(l + 1, f_cycle=f_cycle)
        self._ascend(self.levels[l + 1], lvl)
        if f_cycle and l > 0:
            self._cycle(l)

    # --- nested iterations ---

    def _nested_iterations(self):
        self._smooth = True
        try:
            # use_rhs is False everywhere: _initialize_guess just ran
            self._coarsest_solve(self.levels[-1], nested=True)
            for l in range(self.n_levels - 2, -1, -1):
                self._ascend(self.levels[l + 1], self.levels[l], inject=True)
                if l > 0:
                    self._cycle(l)
        finally:
            self._smooth = False

    # --- driver ---

    def _initialize_guess(self):
        for lvl in self.levels:
            for s in lvl.c_store:
                s.copy_from(lvl.anchor)
            lvl.use_rhs = False

    def seed(self, trajectory):
        """Load the fine-level C-store from a full trajectory (every rank
        passes the same global SpaceTimeVector)."""
        lvl = self.levels[0]
        self._commit(lvl, [trajectory[c] for c in lvl.c_idx])

    def solve(self, gather_solution=True, initial_guess=None):
        """Run cycles until the stopping test passes or max_iters is hit.

        Returns (run, solution); the materialized fine trajectory arrives
        on rank 0 (None elsewhere, and None when gather_solution=False).
        A given initial_guess replaces both the constant-anchor start and
        the nested-iteration setup phase.
        """
        run = SolverRun(n_workers=self.transport.size)
        t_setup, t_solve, answer = time.perf_counter(), None, None
        fine = self.levels[0]
        self._initialize_guess()
        try:
            if initial_guess is not None:
                self.seed(initial_guess)
            elif self.cycle.nested_iterations and self.n_levels > 1:
                self._nested_iterations()
            t_solve = time.perf_counter()
            run.initial_residual, _, losses, held, _ = self._measure(fine)
            for it in range(1, self.cycle.max_iters + 1):
                if self.n_levels == 1:
                    norm, change, losses, answer = self._coarsest_solve(
                        fine, prev_losses=losses)
                else:
                    walked = None  # a failed stopping test drops it
                    self._cycle(0, held, self.cycle.kind == "F")
                    norm, change, losses, held, walked = self._measure(
                        fine, losses)
                run.iterations = it
                run.residual_norms.append(norm)
                run.qoi_changes.append(change)
                run.iteration_seconds.append(time.perf_counter() - t_solve)
                value = norm if self.stopping.kind == "residual-norm" else change
                if self.n_levels == 1 or value < self.stopping.tolerance:
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
        if t_solve is None:  # failed before the first cycle
            t_solve = time.perf_counter()
        run.setup_seconds = self.setup_seconds + (t_solve - t_setup)
        run.solve_seconds = time.perf_counter() - t_solve
        run.level_seconds = [lvl.seconds for lvl in self.levels]
        run.wait_seconds = [lvl.wait for lvl in self.levels]
        run.storage = self.storage_report()

        solution = None
        if gather_solution and run.failure is None:
            solution = (answer if self.n_levels == 1
                        else self._materialize(walked))
        return run, solution

    def _materialize(self, walked):
        """Step the F-tail on from the last measuring walk and gather the
        trajectory on rank 0 from each rank's stacked field and scalar
        arrays, copies that share no memory with the C-store."""
        lvl = self.levels[0]
        for i in range(lvl.own_lo + len(walked) - 1, lvl.own_hi):
            walked.append(self._step(lvl, walked[-1], i))
        n, a = len(walked) - 1, lvl.anchor
        fields = np.array([u.field for u in walked[1:]])
        scalars = np.array([u.scalars for u in walked[1:]])
        states = self._gather((fields.reshape(n, a.field.size),
                               scalars.reshape(n, a.scalars.size)),
                              a.clone(), rows=lambda fs: map(BlockState, *fs))
        return None if states is None else SpaceTimeVector(states)


def mgrit_solve(problem, hierarchy, cycle=None, stopping=None, transport=None,
                gather_solution=True, initial_guess=None):
    solver = MgritSolver(problem, hierarchy, cycle, stopping, transport)
    return solver.solve(gather_solution=gather_solution,
                        initial_guess=initial_guess)
