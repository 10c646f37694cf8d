"""Reference operations the tests check the package against.

Relaxation and the two-grid cycle are stated here on materialized
space-time vectors, one row (field, then scalars) per point, in the
plainest possible form; the distributed engine in ``pintmg.mgrit`` is
cross-checked against them, and against the Parareal iteration.  The
vector comparison is only ever needed by tests as well.  The unfused
damped-Newton step is the reference the package's nonlinear and machine
steps must equal bit for bit.
"""

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from pintmg.errors import NewtonConvergenceError
from pintmg.problems import DAMPING, MAX_HALVINGS, StepDiagnostics
from pintmg.state import BlockState, SpaceTimeVector


# --- vector helpers -----------------------------------------------------------------

def _rows(u):
    """A vector's points as one array of rows, field then scalars (a
    new array)."""
    return np.concatenate((u.fields, u.scalars), axis=1)


def _vector(rows, nf):
    return SpaceTimeVector(rows[:, :nf], rows[:, nf:])


def max_abs_diff(u, v):
    if len(u) != len(v):
        raise ValueError(f"lengths differ: {len(u)} vs {len(v)}")
    return float(np.max(np.abs(_rows(u) - _rows(v))))


# --- relaxation and the two-grid cycle ----------------------------------------------

@dataclass(frozen=True)
class LevelContext:
    """One level's grid, factor (C-point j is point j factor), and bound
    propagator."""

    grid: object
    factor: int
    step: object  # step(u_prev, t_prev, t_next, guess=None) -> row

    def times(self):
        return self.grid.points


def level_context(problem, grid, factor, spatial_level=0, smooth=False,
                  tol=None):
    """Steps map a row (field, then scalars) to a row, starting Newton
    from the guess row (None: from u_prev) and stopping at the relative
    tolerance tol (None: the problem's newton.tol)."""
    if tol is not None:
        problem = copy.copy(problem)
        problem.newton = dataclasses.replace(problem.newton, tol=tol)
    nf = problem.spatial.size(spatial_level)

    def step(u_prev, t_prev, t_next, guess=None):
        u = BlockState(u_prev[:nf], u_prev[nf:])
        out, _ = problem.step(u, t_prev, t_next, spatial_level,
                              guess=u if guess is None
                              else BlockState(guess[:nf], guess[nf:]),
                              smooth=smooth)
        return np.concatenate((out.field, out.scalars))
    return LevelContext(grid=grid, factor=factor, step=step)


def _relax(ctx, u, g, indices, guess_current=False):
    """Re-solve the blocks at indices in order; with guess_current, a
    step starts Newton from the value it replaces, less g there."""
    t = ctx.times()
    out, g = _rows(u), None if g is None else _rows(g)
    targets = set(int(i) for i in indices)
    for i in range(1, len(t)):
        if i in targets:
            guess = None
            if guess_current:
                guess = out[i] if g is None else out[i] - g[i]
            out[i] = ctx.step(out[i - 1], float(t[i - 1]), float(t[i]), guess)
            if g is not None:
                out[i] += g[i]
    return _vector(out, u.fields.shape[1])


def f_relaxation(ctx, u, g=None):
    """Solve all F-point blocks given current C-values."""
    n = ctx.grid.n_points
    return _relax(ctx, u, g,
                  set(range(n)).difference(range(0, n, ctx.factor)))


def c_relaxation(ctx, u, g=None):
    """Solve all C-point blocks (index 0 stays: it is the initial value),
    each step starting Newton from the C-value it replaces less g."""
    return _relax(ctx, u, g, range(ctx.factor, ctx.grid.n_points, ctx.factor),
                  guess_current=True)


def two_level_cycle(fine, coarse, u, g, gamma=0, spatial=None, closing=None):
    """One full-approximation two-grid pass over a materialized iterate.

    ``spatial`` is None or the problem's spatial hierarchy: when given,
    the restricted iterate and residual move one spatial grid down and the
    correction is interpolated back up.  ``closing`` is the fine context
    of the closing F-relaxation (None: ``fine``).  Steps guess as the
    engine's do: a step into a C-point from the C-value it replaces, any
    other from the state it steps.
    """
    u = f_relaxation(fine, u, g)
    for _ in range(gamma):
        u = c_relaxation(fine, u, g)
        u = f_relaxation(fine, u, g)

    t, (nf, ns) = fine.times(), (u.fields.shape[1], u.scalars.shape[1])
    c_idx = list(range(0, fine.grid.n_points, fine.factor))
    rows, g_rows = _rows(u), _rows(g)
    u2, res = rows[c_idx], np.empty((len(c_idx), nf + ns))
    res[0] = g_rows[0] - rows[0]
    for j, c in enumerate(c_idx[1:], 1):
        prop = fine.step(rows[c - 1], float(t[c - 1]), float(t[c]), rows[c])
        res[j] = g_rows[c] - (rows[c] - prop)

    def transfer(fn, block):
        """fn on the block's fields, the scalars carried along."""
        n = block.shape[1] - ns
        return np.concatenate((fn(block[:, :n]), block[:, n:]), axis=1)

    if spatial is not None:
        u2 = transfer(spatial.restrict_fields, u2)
        res = transfer(spatial.restrict_fields, res)

    tc = coarse.times()
    v = np.empty_like(u2)
    v[0] = u2[0] + res[0]
    for j in range(1, len(c_idx)):
        a, b = float(tc[j - 1]), float(tc[j])
        rhs = u2[j] - coarse.step(u2[j - 1], a, b) + res[j]
        v[j] = coarse.step(v[j - 1], a, b) + rhs
    e = v - u2
    if spatial is not None:
        e = transfer(spatial.prolong_fields, e)
    rows[c_idx[1:]] += e[1:]  # index 0 is the initial value
    return f_relaxation(fine if closing is None else closing,
                        _vector(rows, nf), g)


def parareal_iterates(problem, grid, m, n_sweeps):
    """The C-point values of a one-field problem after each of n_sweeps
    Parareal sweeps, U_{j+1} = G(U_j new) + F(U_j) - G(U_j), with F m
    fine steps and G one step of m dt, from the anchor at every C-point
    (the solver's initial guess)."""
    t, tc = grid.points, grid.points[::m]

    def prop(u, times):
        v = BlockState([u])
        for a, b in zip(times[:-1], times[1:]):
            v, _ = problem.step(v, float(a), float(b), guess=v)
        return v.field[0]

    anchor, units = problem.initial_state().field[0], range(len(tc) - 1)
    u, sweeps = [anchor] * len(tc), []
    for _ in range(n_sweeps):
        fu = [prop(u[j], t[j * m:(j + 1) * m + 1]) for j in units]
        gu = [prop(u[j], tc[j:j + 2]) for j in units]
        u = [anchor]
        for j in units:
            u.append(prop(u[j], tc[j:j + 2]) + fu[j] - gu[j])
        sweeps.append(u)
    return sweeps


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
                    alpha = DAMPING
                    for _ in range(MAX_HALVINGS):
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
