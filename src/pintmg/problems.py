"""Model problems advanced by backward Euler.

Every problem exposes the same one-step contract:

    step(u_prev, t_prev, t_next, spatial_level=0, guess=None, smooth=False)
        -> (BlockState, StepDiagnostics)

which solves (M / dt + K(u)) u = f(t_next) + (M / dt) u_prev on the
requested spatial grid.  ``smooth`` swaps the pulsed voltage source for
its carrier-period-average surrogate; coarse setup sweeps use that.
Steppers are deterministic.  Their only state is two memos: banded
factorizations per (grid, dt) and read-only forcing arrays per
(t, grid, smooth).  MGRIT re-runs the same time points on every level
and cycle, so the forcing memo is bounded by the distinct time points a
worker sees (about 1.3 MiB per worker on 2048 steps at nx = 127).  Entries
are written once, never modified, and equal whatever a racing thread
computes for the same key, so concurrent workers may share an instance
or build their own from the same config.

Banded Cholesky factorizations and solves call LAPACK's pbtrf/pbtrs
directly: the same routines scipy's cholesky_banded/cho_solve_banded
call, without their finiteness checks and copies.  Newton factors a
fresh Jacobian and solves once per iteration, so it makes one pbsv call
instead, which is bitwise pbtrf followed by pbtrs.  A non-finite value
therefore passes through a step; Newton rejects a non-finite residual
itself, and the MGRIT driver stops on a non-finite residual norm.

Newton evaluates the flux once per iterate: the residual at an iterate
keeps the squared gradients, exp(k2 s^2) and nu that the Jacobian at the
same iterate is then assembled from, and an accepted trial (damped or
not) hands its arrays on to the next iteration.  The results are bitwise
those of evaluating residual and Jacobian separately.

Chaining steps over a whole time grid (sequential_solve) is the oracle
every parallel-in-time result is measured against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

from .errors import NewtonConvergenceError
from .excitation import PwmSource
from .spatial import SpatialHierarchy
from .state import BlockState, SpaceTimeVector


@dataclass(frozen=True)
class StepDiagnostics:
    iterations: int
    converged: bool = True


@functools.lru_cache(maxsize=None)
def _diagnostics(iterations):
    """A converged step's diagnostics: frozen, so one instance per
    iteration count is shared by every step."""
    return StepDiagnostics(iterations=iterations)


@dataclass(frozen=True)
class NewtonOptions:
    max_iters: int = 25
    tol: float = 1e-11
    damping: float = 0.5
    max_halvings: int = 8

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_iters < 1 or self.tol <= 0.0:
            raise ValueError("max_iters must be >= 1 and tol positive")


def joule_loss(u_prev, u_next, dt, weights):
    """Weighted square of the discrete time derivative of the field."""
    du = (u_next.field - u_prev.field) / dt
    return float(weights @ (du * du))


SOURCES = ("sine", "bump", "random")

# The hot calls pass (lower, ldab, overwrite_*) positionally, which the
# f2py wrappers parse faster than keywords.
_pbtrf, _pbtrs, _pbsv = get_lapack_funcs(("pbtrf", "pbtrs", "pbsv"),
                                         (np.empty((2, 1)),))


def _norm(v):
    """Euclidean norm, bitwise np.linalg.norm of a 1-d float array."""
    return math.sqrt(v @ v)


def _check_factor_info(info, routine):
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of "
                         f"internal {routine}")


def _band_factor(ab):
    """Upper Cholesky factor of a symmetric positive-definite band in
    scipy's upper form (ab[0, 1:] the superdiagonal, ab[1] the diagonal),
    overwriting ab where LAPACK can."""
    c, info = _pbtrf(ab, lower=0, overwrite_ab=1)
    _check_factor_info(info, "pbtrf")
    return c


def _band_solve(factor, b):
    """Solve A x = b from _band_factor's factor, overwriting b."""
    x, info = _pbtrs(factor, b, 0, factor.shape[0], 1)  # overwrite_b=1
    if info:
        _check_factor_info(info, "pbtrs")
    return x


def _band_factor_solve(ab, b):
    """Solve A x = b for a band in _band_factor's form with one LAPACK
    pbsv call, bitwise _band_solve(_band_factor(ab), b); overwrites ab (if
    Fortran-ordered) and b."""
    # lower=0, overwrite_ab=1, overwrite_b=1
    _, x, info = _pbsv(ab, b, 0, ab.shape[0], 1, 1)
    if info:
        _check_factor_info(info, "pbsv")
    return x


def _source_profile(kind, x, seed):
    if kind == "sine":
        return np.sin(math.pi * x)
    if kind == "bump":
        return np.exp(-((x - 0.5) / 0.15) ** 2)
    if kind == "random":
        return np.random.default_rng(seed).normal(size=x.size)
    raise ValueError(f"unknown source profile {kind!r}; "
                     "choose sine, bump or random")


class _FieldProblem:
    """Shared plumbing: grids, forcing, loss weights, initial state."""

    n_scalars = 0

    def __init__(self, nx, n_spatial_grids=1, mass_coeff=1.0,
                 excitation=None, source="sine", seed=0):
        if mass_coeff <= 0.0:
            raise ValueError(f"mass coefficient must be positive, "
                             f"got {mass_coeff}")
        self.spatial = SpatialHierarchy(nx, n_spatial_grids)
        self.mass_coeff = float(mass_coeff)
        self.excitation = excitation
        # the spatial shape multiplying the (scalar) source voltage;
        # sampled analytically on each grid so coarse levels stay
        # discretizations of the same continuous problem
        self._shapes = []
        for g in range(self.spatial.n_grids):
            x = self.spatial.coordinates(g)
            if source == "random" and g > 0:
                # coarse grids inject the fine samples to stay nested
                self._shapes.append(self._shapes[g - 1][1::2].copy())
            else:
                self._shapes.append(_source_profile(source, x, seed))
        self._forcing = {}

    def initial_state(self, spatial_level=0):
        return BlockState.zeros(self.spatial.size(spatial_level), self.n_scalars)

    def loss_weights(self, spatial_level=0):
        n = self.spatial.size(spatial_level)
        return np.full(n, self.mass_coeff * self.spatial.spacing(spatial_level))

    def forcing(self, t, spatial_level=0, smooth=False):
        """Source term at time t, memoized and read-only: callers add it
        into a new array, never into this one."""
        key = (t, spatial_level, smooth)
        f = self._forcing.get(key)
        if f is None:
            if self.excitation is None:
                f = np.zeros(self.spatial.size(spatial_level))
            else:
                v = (self.excitation.smooth_value(t) if smooth
                     else self.excitation.value(t))
                f = v * self._shapes[spatial_level]
            f.flags.writeable = False
            self._forcing[key] = f
        return f


class LinearDiffusionProblem(_FieldProblem):
    """sigma u_t - nu u_xx = f(t) s(x) on (0, 1), Dirichlet, central
    differences on the interior points."""

    def __init__(self, nx, diffusivity=1.0, **kw):
        super().__init__(nx, **kw)
        if diffusivity <= 0.0:
            raise ValueError(f"diffusivity must be positive, got {diffusivity}")
        self.diffusivity = float(diffusivity)
        self._factor_cache = {}

    def _stiffness_banded(self, spatial_level):
        n = self.spatial.size(spatial_level)
        dx = self.spatial.spacing(spatial_level)
        ab = np.zeros((2, n))
        ab[0, 1:] = -self.diffusivity / dx ** 2
        ab[1, :] = 2.0 * self.diffusivity / dx ** 2
        return ab

    def prepare(self, spatial_level, dt):
        key = (spatial_level, float(dt))
        if key not in self._factor_cache:
            ab = self._stiffness_banded(spatial_level)
            ab[1, :] += self.mass_coeff / dt
            self._factor_cache[key] = _band_factor(ab)
        return self._factor_cache[key]

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        dt = t_next - t_prev
        factor = self.prepare(spatial_level, dt)
        rhs = (self.forcing(t_next, spatial_level, smooth)
               + (self.mass_coeff / dt) * u_prev.field)
        return BlockState(_band_solve(factor, rhs)), _diagnostics(1)


@dataclass(frozen=True)
class BrauerCurve:
    """Reluctivity nu(s) = k1 exp(k2 s^2) + k3 of the gradient magnitude."""

    k1: float = 0.05
    k2: float = 2.0
    k3: float = 1.0

    def __post_init__(self):
        if self.k1 < 0.0 or self.k2 < 0.0 or self.k3 <= 0.0:
            raise ValueError("Brauer curve needs k1, k2 >= 0 and k3 > 0")

    def exp_and_nu(self, s2):
        """(exp(k2 s^2), nu) of the squared gradient: the one exp that the
        flux and its derivative at the same gradients both need."""
        e = np.exp(self.k2 * s2)
        return e, self.k1 * e + self.k3

    def flux_derivative_from(self, s2, e, nu):
        """d(nu(|g|) g)/dg from exp_and_nu's (e, nu) at s2 = g^2, as a new
        array: nu + 2 k1 k2 s2 e."""
        d = 2.0 * self.k1 * self.k2 * s2
        d *= e
        d += nu  # IEEE addition commutes: bitwise nu + d
        return d


class NonlinearSaturationProblem(_FieldProblem):
    """sigma u_t - d/dx(nu(|u_x|) u_x) = f(t) s(x), damped-Newton solves."""

    def __init__(self, nx, curve=None, newton=None, **kw):
        super().__init__(nx, **kw)
        self.curve = curve if curve is not None else BrauerCurve()
        self.newton = newton if newton is not None else NewtonOptions()

    def _gradients(self, u, dx):
        """Interface gradients including the Dirichlet boundaries: the
        differences of u padded with zeros, to the sign of a zero."""
        g = np.empty(u.size + 1)
        g[0] = u[0]
        np.subtract(u[1:], u[:-1], out=g[1:-1])
        g[-1] = 0.0 - u[-1]
        g /= dx
        return g

    def _divergence(self, u, dx):
        """N(u), the negative divergence of the saturating flux, with the
        (s2, e, nu) it was computed from, which the Jacobian at u reuses."""
        g = self._gradients(u, dx)
        s2 = g * g
        e, nu = self.curve.exp_and_nu(s2)
        flux = nu * g
        div = flux[1:] - flux[:-1]
        div /= -dx  # bitwise -(div / dx), signed zeros included
        return div, s2, e, nu

    def _jacobian_band(self, s2, e, nu, sig_dt, dx):
        """sig_dt I + N'(u) in _band_factor's form from _divergence's
        arrays at u."""
        dphi = self.curve.flux_derivative_from(s2, e, nu)
        dphi /= dx ** 2
        ab = np.empty((2, dphi.size - 1), order="F")  # LAPACK's layout
        ab[0, 0] = 0.0
        np.negative(dphi[1:-1], out=ab[0, 1:])
        np.add(sig_dt, dphi[:-1], out=ab[1])
        ab[1] += dphi[1:]
        return ab

    def _newton(self, u_prev, t_prev, t_next, spatial_level, guess, smooth):
        """Damped Newton for the step's field from the field arrays u_prev
        and guess (None: start from u_prev).  Returns a new array and the
        iteration count."""
        dt = t_next - t_prev
        sig_dt = self.mass_coeff / dt
        dx = self.spatial.spacing(spatial_level)
        rhs = (self.forcing(t_next, spatial_level, smooth)
               + sig_dt * u_prev)
        scale = max(_norm(rhs), 1e-300)
        opt = self.newton

        def res(v):
            """F(v) = sig_dt v + N(v) - rhs and the arrays behind N(v)."""
            r, s2, e, nu = self._divergence(v, dx)
            r += sig_dt * v  # IEEE addition commutes: bitwise sig_dt v + N(v)
            r -= rhs
            return r, s2, e, nu

        u = guess if guess is not None else u_prev
        # an overflow or NaN shows up as a non-finite norm, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            r, s2, e, nu = res(u)
            rnorm = _norm(r)
            for it in range(opt.max_iters + 1):
                if not (math.isfinite(rnorm) and math.isfinite(scale)):
                    raise NewtonConvergenceError(
                        f"Newton residual not finite at t={t_next:.6g} on "
                        f"grid {spatial_level}: |F|={rnorm:.3e}, "
                        f"|rhs|={scale:.3e} after {it} iterations",
                        time=t_next, iterations=it)
                if rnorm <= opt.tol * scale:
                    # the start is the caller's array: never hand it back
                    return (u if it else u.copy()), it
                if it == opt.max_iters:
                    break
                try:
                    delta = _band_factor_solve(
                        self._jacobian_band(s2, e, nu, sig_dt, dx), -r)
                except LinAlgError as err:
                    raise NewtonConvergenceError(
                        f"Newton Jacobian at t={t_next:.6g} on grid "
                        f"{spatial_level} is not positive definite after "
                        f"{it} iterations: {err}",
                        time=t_next, iterations=it) from err
                trial = u + delta
                trial_res = res(trial)
                t_norm = _norm(trial_res[0])
                if not t_norm < rnorm:  # a NaN norm is damped as well
                    alpha = opt.damping
                    for _ in range(opt.max_halvings):
                        trial = u + alpha * delta
                        trial_res = res(trial)
                        t_norm = _norm(trial_res[0])
                        if t_norm < rnorm:
                            break
                        alpha *= 0.5
                u, rnorm = trial, t_norm
                r, s2, e, nu = trial_res
        raise NewtonConvergenceError(
            f"Newton stalled at t={t_next:.6g} on grid {spatial_level}: "
            f"|F|={rnorm:.3e} > {opt.tol:.1e} * {scale:.3e} "
            f"after {opt.max_iters} iterations",
            time=t_next, iterations=opt.max_iters)

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        field, it = self._newton(u_prev.field, t_prev, t_next, spatial_level,
                                 None if guess is None else guess.field,
                                 smooth)
        return BlockState(field), _diagnostics(it)


class SurrogateMachineProblem(NonlinearSaturationProblem):
    """Saturating field one-way coupled to rotor angle and speed.

    The magnetic torque is a fixed weighted sum of the new field values;
    speed and angle then take one backward Euler step:

        omega' = (T_mag(u) - friction * omega) / inertia
        theta' = omega
    """

    n_scalars = 2  # (theta, omega)

    def __init__(self, nx, inertia=1.0, friction=0.1, **kw):
        super().__init__(nx, **kw)
        if inertia <= 0.0 or friction < 0.0:
            raise ValueError("need inertia > 0 and friction >= 0")
        self.inertia = float(inertia)
        self.friction = float(friction)
        self._couplings = [
            np.sin(2.0 * math.pi * self.spatial.coordinates(g))
            * self.spatial.spacing(g)
            for g in range(self.spatial.n_grids)]

    def torque(self, field, spatial_level=0):
        return float(self._couplings[spatial_level] @ field)

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        field, it = self._newton(u_prev.field, t_prev, t_next, spatial_level,
                                 None if guess is None else guess.field,
                                 smooth)
        dt = t_next - t_prev
        theta, omega = u_prev.scalars
        torque = self.torque(field, spatial_level)
        omega_new = ((omega + dt * torque / self.inertia)
                     / (1.0 + dt * self.friction / self.inertia))
        theta_new = theta + dt * omega_new
        return (BlockState(field, np.array([theta_new, omega_new])),
                _diagnostics(it))


class DahlquistProblem:
    """Scalar test equation u' = rate * u (+ optional source voltage)."""

    n_scalars = 0

    def __init__(self, rate=-1.0, initial=1.0, excitation=None):
        self.rate = float(rate)
        self.initial = float(initial)
        self.excitation = excitation
        self.spatial = SpatialHierarchy(1, 1)

    def initial_state(self, spatial_level=0):
        return BlockState([self.initial])

    def loss_weights(self, spatial_level=0):
        return np.ones(1)

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        dt = t_next - t_prev
        f = 0.0
        if self.excitation is not None:
            f = (self.excitation.smooth_value(t_next) if smooth
                 else self.excitation.value(t_next))
        val = (u_prev.field[0] + dt * f) / (1.0 - dt * self.rate)
        return BlockState([val]), _diagnostics(1)


def sequential_solve(problem, times, spatial_level=0, smooth=False, g=None,
                     initial=None):
    """Forward block solve: the O(n_steps) serial oracle.

    With a right-hand-side vector ``g`` this solves the all-at-once system
    u_0 = g_0, u_i = step(u_{i-1}) + g_i, which is how coarse levels carry
    their correction sources; without it, g is the plain initial-value
    right-hand side.  Returns the trajectory as a SpaceTimeVector.
    """
    n = len(times)
    if initial is None:
        initial = (g[0].clone() if g is not None
                   else problem.initial_state(spatial_level))
    states = [initial]
    for i in range(1, n):
        u, _ = problem.step(states[-1], float(times[i - 1]), float(times[i]),
                            spatial_level, guess=states[-1], smooth=smooth)
        if g is not None:
            u.add_scaled(g[i], 1.0)
        states.append(u)
    return SpaceTimeVector(states)
