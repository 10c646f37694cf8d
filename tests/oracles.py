"""Reference operations the tests check the package against.

Relaxation and the two-grid cycle are stated here on materialized
space-time vectors in the plainest possible form; the distributed engine
in ``pintmg.mgrit`` is cross-checked against them.  The vector helpers
and the broadcast collective are only ever needed by tests as well.  The
unfused damped-Newton step is the reference the package's nonlinear and
machine steps must equal bit for bit.
"""

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from pintmg.errors import NewtonConvergenceError
from pintmg.problems import StepDiagnostics
from pintmg.state import BlockState, SpaceTimeVector


# --- vector helpers -----------------------------------------------------------------

def _check_aligned(u, v):
    if len(u) != len(v):
        raise ValueError(f"lengths differ: {len(u)} vs {len(v)}")


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
    for i >= 1, r_i = g_i - (u_i - step(u_{i-1}, t_{i-1}, t_i)).  ``u`` and
    ``g`` cover the same first points of the grid.
    """
    _check_aligned(u, g)
    if len(u) > len(times):
        raise ValueError(f"{len(u)} states on a {len(times)}-point grid")
    res = [g[0] - u[0]]
    for i in range(1, len(u)):
        prop = step(u[i - 1], float(times[i - 1]), float(times[i]))
        res.append(g[i] - (u[i] - prop))
    return SpaceTimeVector(res)


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
    step: object  # step(u_prev, t_prev, t_next, guess=None) -> BlockState

    def times(self):
        return self.grid.points


def level_context(problem, grid, splitting, spatial_level=0, smooth=False,
                  tol=None):
    """Steps start Newton from the guess (None: from u_prev) and stop at
    the relative tolerance tol (None: the problem's newton.tol)."""
    if tol is not None:
        problem = copy.copy(problem)
        problem.newton = dataclasses.replace(problem.newton, tol=tol)

    def step(u_prev, t_prev, t_next, guess=None):
        out, _ = problem.step(u_prev, t_prev, t_next, spatial_level,
                              guess=u_prev if guess is None else guess,
                              smooth=smooth)
        return out
    return LevelContext(grid=grid, splitting=splitting, step=step)


def _relax(ctx, u, g, indices, guess_current=False):
    """Re-solve the blocks at indices in order; with guess_current, a
    step starts Newton from the value it replaces, less g there."""
    t = ctx.times()
    out = u.clone()
    targets = set(int(i) for i in indices)
    for i in range(1, len(t)):
        if i in targets:
            guess = None
            if guess_current:
                guess = out[i] if g is None else out[i] - g[i]
            upd = ctx.step(out[i - 1], float(t[i - 1]), float(t[i]), guess)
            if g is not None:
                upd.add_scaled(g[i], 1.0)
            out[i] = upd
    return out


def f_relaxation(ctx, u, g=None):
    """Solve all F-point blocks given current C-values."""
    return _relax(ctx, u, g, ctx.splitting.f_indices)


def c_relaxation(ctx, u, g=None):
    """Solve all C-point blocks (index 0 stays: it is the initial value),
    each step starting Newton from the C-value it replaces less g."""
    c = [i for i in ctx.splitting.c_indices if i > 0]
    return _relax(ctx, u, g, c, guess_current=True)


def two_level_cycle(fine, coarse, u, g, gamma=0, spatial=None, closing=None):
    """One full-approximation two-grid pass over a materialized iterate.

    ``spatial`` is None or (hierarchy, fine_grid_index): when given, the
    restricted iterate and residual move one spatial grid down and the
    correction is interpolated back up.  ``closing`` is the fine context
    of the closing F-relaxation (None: ``fine``).  Steps guess as the
    engine's do: a step into a C-point from the C-value it replaces, any
    other from the state it steps.
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
            prop = fine.step(u[c - 1], float(t[c - 1]), float(t[c]), u[c])
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
    return f_relaxation(fine if closing is None else closing, out, g)


# --- the unfused damped-Newton step -------------------------------------------------

class UnfusedNewton:
    """A NonlinearSaturationProblem or SurrogateMachineProblem whose step
    is damped Newton written out plainly: the residual and the Jacobian
    each compute the gradients and exp(k2 s^2) afresh from the Brauer
    formulas, and each Jacobian is solved with scipy's solveh_banded
    (LAPACK's ptsv for a tridiagonal band).  A trial whose residual norm
    is not below the current one, NaN included, is damped.  ``step_many``
    loops ``step`` over the rows, each from its guess row and at the given
    tolerance, as the package's step_many does.  Everything else is the
    wrapped problem's.  ``halvings`` counts the damped trials evaluated
    and ``non_finite_trials`` the full Newton trials with a non-finite
    norm.
    """

    def __init__(self, problem):
        self.problem = problem
        self.halvings = 0
        self.non_finite_trials = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def _gradients(self, u, dx):
        return np.diff(np.concatenate(([0.0], u, [0.0]))) / dx

    def _residual(self, v, sig_dt, rhs, dx):
        c = self.problem.curve
        g = self._gradients(v, dx)
        flux = (c.k1 * np.exp(c.k2 * (g * g)) + c.k3) * g
        div = flux[1:] - flux[:-1]
        div /= -dx
        return sig_dt * v + div - rhs

    def _jacobian(self, u, sig_dt, dx):
        c = self.problem.curve
        g = self._gradients(u, dx)
        s2 = g * g
        e = np.exp(c.k2 * s2)
        dphi = (c.k1 * e + c.k3 + 2.0 * c.k1 * c.k2 * s2 * e) / dx ** 2
        ab = np.zeros((2, u.size))
        ab[0, 1:] = -dphi[1:-1]
        ab[1, :] = sig_dt + dphi[:-1] + dphi[1:]
        return ab

    def _newton(self, u_prev, t_prev, t_next, level, guess, smooth, tol):
        p, opt = self.problem, self.problem.newton
        tol = opt.tol if tol is None else tol
        dt = t_next - t_prev
        sig_dt = p.mass_coeff / dt
        dx = p.spatial.spacing(level)
        rhs = p.forcing(t_next, level, smooth) + sig_dt * u_prev
        scale = max(math.sqrt(rhs @ rhs), 1e-300)
        u = (guess if guess is not None else u_prev).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            r = self._residual(u, sig_dt, rhs, dx)
            rnorm = math.sqrt(r @ r)
            for it in range(opt.max_iters + 1):
                if not (math.isfinite(rnorm) and math.isfinite(scale)):
                    raise NewtonConvergenceError(
                        "Newton residual not finite", time=t_next,
                        iterations=it)
                if rnorm <= tol * scale:
                    return u, it
                if it == opt.max_iters:
                    break
                delta = solveh_banded(self._jacobian(u, sig_dt, dx), -r,
                                      check_finite=False)
                trial = u + delta
                r_trial = self._residual(trial, sig_dt, rhs, dx)
                t_norm = math.sqrt(r_trial @ r_trial)
                self.non_finite_trials += not math.isfinite(t_norm)
                if not t_norm < rnorm:
                    alpha = opt.damping
                    for _ in range(opt.max_halvings):
                        self.halvings += 1
                        trial = u + alpha * delta
                        r_trial = self._residual(trial, sig_dt, rhs, dx)
                        t_norm = math.sqrt(r_trial @ r_trial)
                        if t_norm < rnorm:
                            break
                        alpha *= 0.5
                u, r, rnorm = trial, r_trial, t_norm
        raise NewtonConvergenceError("Newton stalled", time=t_next,
                                     iterations=opt.max_iters)

    def step_many(self, fields, scalars, t_prev, t_next, spatial_level=0,
                  smooth=False, guess=None, tol=None):
        out = [self.step(BlockState(f, s), a, b, spatial_level,
                         None if guess is None else BlockState(guess[r]),
                         smooth, tol)
               for r, (f, s, a, b) in enumerate(zip(fields, scalars, t_prev,
                                                    t_next))]
        return (np.array([v.field for v, _ in out]),
                np.array([v.scalars for v, _ in out]).reshape(scalars.shape),
                [d.iterations for _, d in out])

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False, tol=None):
        p = self.problem
        field, it = self._newton(u_prev.field, t_prev, t_next, spatial_level,
                                 None if guess is None else guess.field,
                                 smooth, tol)
        if not p.n_scalars:
            return BlockState(field), StepDiagnostics(iterations=it)
        dt = t_next - t_prev
        theta, omega = u_prev.scalars
        torque = float(p._couplings[spatial_level] @ field)
        omega_new = ((omega + dt * torque / p.inertia)
                     / (1.0 + dt * p.friction / p.inertia))
        theta_new = theta + dt * omega_new
        return (BlockState(field, [theta_new, omega_new]),
                StepDiagnostics(iterations=it))
