"""Reference operations the tests check the package against.

Relaxation and the two-grid cycle are stated here on materialized
space-time vectors in the plainest possible form; the distributed engine
in ``pintmg.mgrit`` is cross-checked against them.  The vector helpers
and the broadcast collective are only ever needed by tests as well.
"""

import math
from dataclasses import dataclass

from pintmg.state import SpaceTimeVector


# --- vector helpers -----------------------------------------------------------------

def _check_aligned(u, v):
    if u.start != v.start or len(u) != len(v):
        raise ValueError(
            f"owned ranges differ: [{u.start}, {u.stop}) vs "
            f"[{v.start}, {v.stop})")


def axpy(alpha, x, y):
    """Componentwise y + alpha * x as a new vector."""
    _check_aligned(y, x)
    out = y.clone()
    for s, xs in zip(out.states, x.states):
        s.add_scaled(xs, alpha)
    return out


def discrete_l2_norm(u):
    """Root of the plain sum of squares over all points and entries."""
    return math.sqrt(sum(s.norm_sq() for s in u.states))


def max_abs_diff(u, v):
    _check_aligned(u, v)
    return max((a - b).max_abs() for a, b in zip(u.states, v.states))


def space_time_residual(step, times, u, g):
    """Residual of the all-at-once system defined by one-step propagation.

    The block at index 0 is the initial-value identity, so r_0 = g_0 - u_0;
    for i >= 1, r_i = g_i - (u_i - step(u_{i-1}, t_{i-1}, t_i)).  ``u`` must
    own a full prefix [0, n) of the grid, matching ``g``.
    """
    _check_aligned(u, g)
    if u.start != 0:
        raise ValueError("residual evaluation needs the full time prefix")
    if len(u) > len(times):
        raise ValueError(f"{len(u)} states on a {len(times)}-point grid")
    res = [g[0] - u[0]]
    for i in range(1, u.stop):
        prop = step(u[i - 1], float(times[i - 1]), float(times[i]))
        res.append(g[i] - (u[i] - prop))
    return SpaceTimeVector(res, 0)


def broadcast_from_root(transport, payload=None):
    if transport.size == 1:
        return payload
    if transport.rank == 0:
        for dst in range(1, transport.size):
            transport.send(dst, payload)
        return payload
    return transport.recv(0)


# --- relaxation and the two-grid cycle ----------------------------------------------

@dataclass(frozen=True)
class LevelContext:
    """One level's grid, splitting, and bound propagator."""

    grid: object
    splitting: object
    step: object  # step(u_prev, t_prev, t_next) -> BlockState

    def times(self):
        return self.grid.points


def level_context(problem, grid, splitting, spatial_level=0, smooth=False):
    def step(u_prev, t_prev, t_next):
        out, _ = problem.step(u_prev, t_prev, t_next, spatial_level,
                              guess=u_prev, smooth=smooth)
        return out
    return LevelContext(grid=grid, splitting=splitting, step=step)


def _relax(ctx, u, g, indices):
    t = ctx.times()
    out = u.clone()
    targets = set(int(i) for i in indices)
    for i in range(1, len(t)):
        if i in targets:
            upd = ctx.step(out[i - 1], float(t[i - 1]), float(t[i]))
            if g is not None:
                upd.add_scaled(g[i], 1.0)
            out[i] = upd
    return out


def f_relaxation(ctx, u, g=None):
    """Solve all F-point blocks given current C-values."""
    return _relax(ctx, u, g, ctx.splitting.f_indices)


def c_relaxation(ctx, u, g=None):
    """Solve all C-point blocks (index 0 stays: it is the initial value)."""
    c = [i for i in ctx.splitting.c_indices if i > 0]
    return _relax(ctx, u, g, c)


def two_level_cycle(fine, coarse, u, g, gamma=0, spatial=None):
    """One full-approximation two-grid pass over a materialized iterate.

    ``spatial`` is None or (hierarchy, fine_grid_index): when given, the
    restricted iterate and residual move one spatial grid down and the
    correction is interpolated back up.
    """
    u = f_relaxation(fine, u, g)
    for _ in range(gamma):
        u = c_relaxation(fine, u, g)
        u = f_relaxation(fine, u, g)

    t = fine.times()
    c_idx = [int(i) for i in fine.splitting.c_indices]
    u2, res = [], []
    for j, c in enumerate(c_idx):
        u2.append(u[c].clone())
        if c == 0:
            res.append(g[0] - u[0])
        else:
            prop = fine.step(u[c - 1], float(t[c - 1]), float(t[c]))
            res.append(g[c] - (u[c] - prop))
    if spatial is not None:
        hier, _ = spatial
        u2 = [hier.restrict_state(s) for s in u2]
        res = [hier.restrict_state(s) for s in res]

    tc = coarse.times()
    rhs = [u2[0] + res[0]]
    for j in range(1, len(c_idx)):
        prop = coarse.step(u2[j - 1], float(tc[j - 1]), float(tc[j]))
        rhs.append(u2[j] - prop + res[j])
    v = [rhs[0]]
    for j in range(1, len(c_idx)):
        v.append(coarse.step(v[j - 1], float(tc[j - 1]), float(tc[j])) + rhs[j])

    out = u.clone()
    for j, c in enumerate(c_idx):
        if c == 0:
            continue
        e = v[j] - u2[j]
        if spatial is not None:
            e = spatial[0].prolong_error(e)
        out[c] = out[c] + e
    return f_relaxation(fine, out, g)
