"""Model problems advanced by backward Euler.

Every problem exposes the same one-step contract:

    step(u_prev, t_prev, t_next, spatial_level=0, guess=None, smooth=False)
        -> (BlockState, StepDiagnostics)

which solves (M / dt + K(u)) u = f(t_next) + (M / dt) u_prev on the
requested spatial grid.  ``smooth`` swaps the pulsed voltage source for
its carrier-period-average surrogate; coarse setup sweeps use that.
All four problems (Dahlquist's on one point) also step many rows at once:

    step_many(fields, scalars, t_prev, t_next, spatial_level=0, smooth=False,
              guess=None, tol=None) -> (fields, scalars, iterations)

with (k, n_field) and (k, n_scalars) arrays and k-long time sequences.
``guess`` is None or (k, n_field) field rows to start Newton from (None:
each row from its own state), and ``tol`` None or a relative Newton
tolerance in place of newton.tol; linear steps ignore both.  Row r
is bit for bit step(BlockState(fields[r], scalars[r]), t_prev[r],
t_next[r], spatial_level, guess=<row r's guess>, smooth) of a problem
whose newton.tol is ``tol``: each row does its single step's arithmetic,
only grouped into whole-array calls (np.exp and the elementwise
operations give each row's bits whatever the batch).  The linear step
makes one pttrs call for all rows, whatever their dts; Newton iterates
the rows still active together, with one stacked ddot for their norms
and one ptsv call per iterate, and damps the rows whose trial is not
better together, one residual per halving, each row keeping its own
scale and norms.  A failing row raises exactly its single step's error,
the first failing row in row order when several fail.  ``step`` is the
same kernel on one row, so no kernel exists twice, and step_many takes
that path for a single row (chosen by the row count), so a one-row call
costs what ``step`` does.  batched_step picks step_many for a problem
whose class defines it next to ``step``, and a per-row loop over
``step`` otherwise, so a wrapper that forwards attributes, or a subclass
that overrides only ``step``, still sees every step (with its guess, at
newton.tol).

Steppers are deterministic.  Their only state is two memos, each entry
computed from its own key alone, in one call, and read-only: the linear
problem's block-diagonal bands of LDL^T factors per (dts, grid), from
one pttrf call on the distinct dts; and forcings per (t, grid, smooth),
from one call of the excitation's value or smooth_value on the float t,
or per (times, grid, smooth), a (k, n) stack from one call on the array
of times, which the excitation must accept.  MGRIT re-runs the same time
points, and a walk the same layers, on every level and cycle, so the
memos are bounded by the layers and single steps a worker sees: on 2048
steps at nx = 127 and three grids, one worker holds 2.3 MiB of forcings
in 34 entries and 4.5 MiB of bands in 25.  An entry is written once,
never modified, and equal to whatever a racing thread computes for the
same key, so concurrent workers may share an instance.

Every matrix is symmetric positive-definite tridiagonal, solved with
LAPACK's LDL^T routines pttrf/pttrs/ptsv as scipy's solveh_banded does,
without its checks and copies: one pttrs call per linear layer and one
ptsv call (bitwise pttrf then pttrs) per Newton iterate, on the rows'
block-diagonal band.  dptts2 subtracts its +0.0 coupling times the row
before's last entry from a row's first, and times the next row's first
from a row's last.  That flips the sign of a zero starting a row's
right-hand side or ending its solution, and spreads an inf or a NaN to
every row; and one point alone is scaled by 1 / d, not divided.  Those
rows (_solved_alone) are solved alone, so a non-finite value passes
through a step; Newton rejects a non-finite residual itself, and the
MGRIT solver stops on a non-finite residual norm.

Newton evaluates the flux once per iterate: the residual at an iterate
keeps the squared gradients, exp(k2 s^2) and nu that the Jacobian at the
same iterate is then assembled from, and an accepted trial (damped or
not) hands its arrays on to the next iteration.  The results are bitwise
those of evaluating residual and Jacobian separately.

sequential_solve, plain forward stepping with ``step`` from the initial
state, is the oracle every parallel-in-time result is measured against;
the solver never calls it.
"""

from __future__ import annotations

import functools
import math
import operator
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


@functools.lru_cache(maxsize=None)
def _diagnostics(iterations):
    """A converged step's diagnostics: frozen, so one instance per
    iteration count is shared by every step."""
    return StepDiagnostics(iterations=iterations)


# Newton's line search: a trial no better than its start is retried at
# DAMPING times the step, halved up to MAX_HALVINGS times
DAMPING = 0.5
MAX_HALVINGS = 8


@dataclass(frozen=True)
class NewtonOptions:
    max_iters: int = 25
    tol: float = 1e-11

    def __post_init__(self):
        if self.max_iters < 1 or self.tol <= 0.0:
            raise ValueError("max_iters must be >= 1 and tol positive")


def joule_loss(u_prev, u_next, dt, weights):
    """Weighted square of the discrete time derivative of each of the k
    rows of fields, steps dt (k or one), from one stacked dot: bitwise each
    row's weights @ (du * du) (q @ weights, a gemv, is not)."""
    du = (u_next - u_prev) / np.reshape(dt, (-1, 1))
    return ((du * du)[:, None, :] @ weights[:, None])[:, 0, 0]


SOURCES = ("sine", "bump", "random")

# The hot calls pass the overwrite flags positionally, which the f2py
# wrappers parse faster than keywords; the wrappers check the shapes, so
# no call returns info < 0 (an illegal argument).
_pttrf, _pttrs, _ptsv = get_lapack_funcs(("pttrf", "pttrs", "ptsv"),
                                         (np.empty(1),))


# index expressions along the last axis, the points of one state's field
# or of each row of fields: all but the last, all but the first, all but
# the two ends
_HEAD, _TAIL, _INNER = np.s_[..., :-1], np.s_[..., 1:], np.s_[..., 1:-1]


def _norms(v):
    """Euclidean norms as a list: of a 1-d array, bitwise np.linalg.norm;
    of each row of a 2-d one, from one stacked ddot, bitwise the row's own
    (np.einsum is not)."""
    if v.ndim == 1:
        return [math.sqrt(v @ v)]
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0]).tolist()


def _factor_error(info):
    """The error of pttrf's or ptsv's info > 0."""
    return LinAlgError(f"{info}-th leading minor not positive definite")


def _diagonals(ab):
    """A band's diagonal and superdiagonal in scipy's upper form, as the
    contiguous views the pt routines take (of one point, the pad ab[0]:
    the f2py wrappers want one entry)."""
    return ab[1], ab[0, 1:] if ab.shape[1] > 1 else ab[0]


def _band_factor(ab):
    """pttrf's LDL^T factors (d, l) of an SPD tridiagonal band in scipy's
    upper form, C-ordered, in place: _diagonals' views of ab."""
    factor = _diagonals(ab)
    *_, info = _pttrf(*factor, 1, 1)  # overwrite_d, overwrite_e
    if info:
        raise _factor_error(info)
    return factor


def _band_solve(factor, b):
    """Solve A x = b from _band_factor's (d, l) (pttrs), overwriting b."""
    return _pttrs(*factor, b, 1)[0]  # overwrite_b=1


def _band_factor_solve(ab, b):
    """Solve A x = b for a band in _band_factor's form with one ptsv call,
    bitwise _band_solve(_band_factor(ab), b) and scipy's solveh_banded,
    overwriting ab and b; (x, info), x unsolved if info > 0 (a minor)."""
    return _ptsv(*_diagonals(ab), b, 1, 1, 1)[2:]  # overwrite d, e, b


def _solved_alone(b0, x):
    """The rows of x, solved on their block-diagonal band, that its zero
    coupling can change (see above): all, or those where b0, the first
    entry of the right-hand side, or x's last is 0."""
    if x.shape[1] == 1 or not np.isfinite(x).all():
        return range(len(x))
    nonzero = np.logical_and(b0, x[:, -1])
    return () if nonzero.all() else np.flatnonzero(~nonzero)


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
    """Shared plumbing: grids, forcing, loss weights, initial state, and
    step and step_many over a subclass's one kernel,

        _advance(fields, scalars, t_prev, t_next, spatial_level, smooth,
                 guess, tol=None) -> (fields, scalars, iterations)

    which steps every row of (k, n) arrays, or one state given as its 1-d
    arrays, from the rows of guess (None: from the fields), to the
    relative Newton tolerance tol (None: newton.tol)."""

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
        return self._forcings((t,), spatial_level, smooth)

    def _forcings(self, times, spatial_level, smooth):
        """The forcing at each of times, memoized read-only per (times,
        grid, smooth) from one call of the source: a single time's row, on
        its float, which broadcasts over any one row; more times' (k, n)
        stack, on their array.  Without a source, a row of zeros."""
        one = len(times) == 1
        key = (times[0] if one else tuple(times), spatial_level, smooth)
        f = self._forcing.get(key)
        if f is None:
            shape = self._shapes[spatial_level]
            if self.excitation is None:
                f = np.zeros(shape.size)
            else:
                src = self.excitation
                value = src.smooth_value if smooth else src.value
                f = (value(times[0]) * shape if one
                     else value(np.array(times))[:, None] * shape)
            f.flags.writeable = False
            self._forcing[key] = f
        return f

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        fields, scalars, its = self._advance(
            u_prev.field, u_prev.scalars, (t_prev,), (t_next,), spatial_level,
            smooth, None if guess is None else guess.field)
        return BlockState(fields, scalars), _diagnostics(its[0])

    def step_many(self, fields, scalars, t_prev, t_next, spatial_level=0,
                  smooth=False, guess=None, tol=None):
        """Row r of the result is step(BlockState(fields[r], scalars[r]),
        t_prev[r], t_next[r], spatial_level, guess, smooth) bit for bit,
        guess the state of row r of ``guess`` (None: row r's own), at the
        relative Newton tolerance ``tol`` (None: newton.tol), as (fields,
        scalars, iterations).  A single row takes step's path, on its 1-d
        arrays, without the rows' bookkeeping."""
        if len(t_prev) == 1:
            f, s, its = self._advance(fields[0], scalars[0], t_prev, t_next,
                                      spatial_level, smooth,
                                      None if guess is None else guess[0], tol)
            return f[None], s[None], its
        return self._advance(fields, scalars, t_prev, t_next, spatial_level,
                             smooth, guess, tol)


class LinearDiffusionProblem(_FieldProblem):
    """sigma u_t - nu u_xx = f(t) s(x) on (0, 1), Dirichlet, central
    differences on the interior points."""

    def __init__(self, nx, diffusivity=1.0, **kw):
        super().__init__(nx, **kw)
        if diffusivity <= 0.0:
            raise ValueError(f"diffusivity must be positive, got {diffusivity}")
        self.diffusivity = float(diffusivity)
        self._factor_cache = {}

    def _band(self, dts, spatial_level):
        """_band_factor's (d, l) of M / dt + K on the grid for the step sizes
        dts, memoized read-only per (dts, grid), block-diagonal with +0.0
        coupling each row to the one before: one pttrf call factors the
        distinct dts' band, whose blocks are gathered to the rows."""
        key = (dts, spatial_level)
        band = self._factor_cache.get(key)
        if band is None:
            n = self.spatial.size(spatial_level)
            dx2 = self.spatial.spacing(spatial_level) ** 2
            distinct, rows = np.unique(dts, return_inverse=True)
            ab = np.zeros((2, len(distinct), n))
            ab[0, :, 1:] = -self.diffusivity / dx2
            ab[1] = (2.0 * self.diffusivity / dx2
                     + self.mass_coeff / distinct[:, None])
            _band_factor(ab.reshape(2, -1))
            ab = ab[:, rows].reshape(2, -1)
            ab.flags.writeable = False
            band = self._factor_cache[key] = _diagonals(ab)
        return band

    def _advance(self, fields, scalars, t_prev, t_next, spatial_level,
                 smooth, guess, tol=None):
        """One pttrs solve for the only row (1-d fields) or on _band's band
        for all rows, after which the rows that _solved_alone names are
        solved alone; no guess, no tolerance, no scalars to step."""
        if fields.ndim == 1:
            dt = t_next[0] - t_prev[0]
            rhs = (self.mass_coeff / dt) * fields
            rhs += self._forcings(t_next, spatial_level, smooth)
            return (_band_solve(self._band((dt,), spatial_level), rhs),
                    scalars, [1])
        dts = np.subtract(t_next, t_prev)
        rhs = (self.mass_coeff / dts[:, None]) * fields
        rhs += self._forcings(t_next, spatial_level, smooth)
        b0 = rhs[:, 0].copy()
        out = _band_solve(self._band(tuple(dts.tolist()), spatial_level),
                          rhs.reshape(-1)).reshape(fields.shape)
        for r in _solved_alone(b0, out):
            out[r] = self._advance(fields[r], scalars[r], t_prev[r:r + 1],
                                   t_next[r:r + 1], spatial_level, smooth,
                                   None)[0]
        return out, scalars, [1] * len(out)


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
        differences of u padded with zeros (u_0 - 0.0 is u_0, to the sign
        of a zero), along the last axis, so for every row of a 2-d u."""
        padded = np.zeros((*u.shape[:-1], u.shape[-1] + 2))
        padded[_INNER] = u
        g = padded[_TAIL] - padded[_HEAD]
        g /= dx
        return g

    def _divergence(self, u, dx):
        """N(u), the negative divergence of the saturating flux, with the
        (s2, e, nu) it was computed from, which the Jacobian at u reuses."""
        g = self._gradients(u, dx)
        s2 = g * g
        e, nu = self.curve.exp_and_nu(s2)
        flux = nu * g
        div = flux[_TAIL] - flux[_HEAD]
        div /= -dx  # bitwise -(div / dx), signed zeros included
        return div, s2, e, nu

    def _jacobian_band(self, s2, e, nu, sig_dt, dx):
        """sig_dt I + N'(u) in _band_factor's form from _divergence's
        arrays at u, its diagonal and superdiagonal rows contiguous as
        LAPACK takes them; for k rows (sig_dt a column) their block-diagonal
        band, shape (2, k n), coupled by 0 in the superdiagonal at each
        row's first point."""
        dphi = self.curve.flux_derivative_from(s2, e, nu)
        dphi /= dx ** 2
        lower = dphi[_HEAD]
        ab = np.empty((2, lower.size))
        upper, diagonal = ab.reshape(2, *lower.shape)
        np.negative(lower, out=upper)
        upper[..., 0] = 0.0  # outside the band, or between two rows
        np.add(sig_dt, lower, out=diagonal)
        diagonal += dphi[_TAIL]
        return ab

    def _newton_step(self, r, s2, e, nu, sig_dt, dx):
        """Newton's step -J(u)^-1 r for each row of the residual r at u, and
        {q: LinAlgError}, row q's single-step error, for the rows whose
        Jacobian is not positive definite (steps unsolved), from one ptsv
        call on their band, then each row _solved_alone names alone; info >
        0 fails row (info - 1) // n, and the rest is rebuilt (ptsv overwrote
        it) and solved again.  One row takes no scan."""
        ab, delta = self._jacobian_band(s2, e, nu, sig_dt, dx), -r
        k, n = r.shape if r.ndim == 2 else (1, len(r))
        x, info = _band_factor_solve(ab, delta.reshape(-1))
        delta, singular = x.reshape(r.shape), {}
        if info:
            pos = (info - 1) // n
            singular[pos] = _factor_error(info - pos * n)
            parts = [[q for q in range(k) if q != pos]]
        elif k == 1:
            return delta, singular
        else:
            parts = [[q] for q in _solved_alone(r[:, 0], delta)]
        for rows in filter(None, parts):
            delta[rows], part = self._newton_step(
                *(a[rows] for a in (r, s2, e, nu, sig_dt)), dx)
            singular.update((rows[q], err) for q, err in part.items())
        return delta, singular

    def _advance(self, u_prev, scalars, t_prev, t_next, spatial_level,
                 smooth, guess, tol=None):
        """Damped Newton for the step's field, for every row of the (k, n)
        array u_prev (a 1-d array is one row) from the rows of guess (None:
        from u_prev), until |F| <= tol |rhs| (None: newton.tol).  Each row
        keeps its own scale and norms and does its single step's
        arithmetic; the rows still iterating share the array calls, one
        stacked ddot and one ptsv (_newton_step) per iterate, and the rows
        being damped one residual per halving.  Returns a new array shaped
        as u_prev, the scalars and the per-row iteration counts, or raises
        the first failing row's error."""
        k = len(t_prev)
        if not k:
            return u_prev.copy(), scalars, []
        one = u_prev.ndim == 1  # the only row, as a 1-d array
        m = self.mass_coeff
        # a column over the rows; the only row takes the float itself
        sig = (m / (t_next[0] - t_prev[0]) if one
               else m / (np.array(t_next) - np.array(t_prev))[:, None])
        dx = self.spatial.spacing(spatial_level)
        rhs = sig * u_prev
        rhs += self._forcings(t_next, spatial_level, smooth)
        scale = [max(b, 1e-300) for b in _norms(rhs)]
        opt = self.newton
        tol = opt.tol if tol is None else tol
        tols = [tol * s for s in scale]  # of the rows still iterating
        out, its, failed = None, [0] * k, {}
        rows = range(k)  # the row of u_prev each row still iterating steps

        def res(v, sig, rhs):
            """F(v) = sig v + N(v) - rhs and the arrays behind N(v)."""
            r, s2, e, nu = self._divergence(v, dx)
            r += sig * v  # IEEE addition commutes: bitwise sig v + N(v)
            r -= rhs
            return r, s2, e, nu

        def fail(row, it, text, why=None):
            """Record row's first error, its single step's, raised last."""
            err = NewtonConvergenceError(f"Newton {text}", time=t_next[row],
                                         iterations=it)
            err.__cause__ = why
            failed.setdefault(row, err)

        u = u_prev if guess is None else guess
        # an overflow or NaN shows up as a non-finite norm, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            r, s2, e, nu = res(u, sig, rhs)
            rnorm = _norms(r)
            for it in range(opt.max_iters + 1):
                # rows that converged or failed leave; a NaN compares false
                if not (it < opt.max_iters and sum(rnorm) < math.inf
                        and all(map(operator.lt, tols, rnorm))):
                    if (len(rows) == k and not failed
                            and sum(tols) < math.inf
                            and all(map(operator.le, rnorm, tols))):
                        # every row converged at once: u is the answer
                        return (u if it else u.copy()), scalars, [it] * k
                    keep = []
                    for q, row in enumerate(rows):
                        if row in failed:
                            continue
                        if not (math.isfinite(rnorm[q])
                                and math.isfinite(scale[row])):
                            fail(row, it, f"residual not finite at "
                                 f"t={t_next[row]:.6g} on grid "
                                 f"{spatial_level}: |F|={rnorm[q]:.3e}, "
                                 f"|rhs|={scale[row]:.3e} after {it} "
                                 f"iterations")
                        elif rnorm[q] <= tols[q]:
                            if out is None:
                                out = np.empty(u_prev.shape)
                            its[row] = it
                            ((out,) if one else out)[row][...] = (
                                (u,) if one else u)[q]
                        elif it == opt.max_iters:
                            fail(row, it, f"stalled at t={t_next[row]:.6g} "
                                 f"on grid {spatial_level}: "
                                 f"|F|={rnorm[q]:.3e} > {tol:.1e} * "
                                 f"{scale[row]:.3e} after {opt.max_iters} "
                                 f"iterations")
                        else:
                            keep.append(q)
                    if not keep:
                        break
                    if len(keep) < len(rows):
                        rows, rnorm, tols = ([a[q] for q in keep]
                                             for a in (rows, rnorm, tols))
                        u, r, s2, e, nu, sig, rhs = (
                            a[keep] for a in (u, r, s2, e, nu, sig, rhs))
                delta, singular = self._newton_step(r, s2, e, nu, sig, dx)
                for q, err in singular.items():
                    fail(rows[q], it, f"Jacobian at t={t_next[rows[q]]:.6g} "
                         f"on grid {spatial_level} is not positive definite "
                         f"after {it} iterations: {err}", err)
                trial = u + delta
                trial_res = res(trial, sig, rhs)
                t_norm = _norms(trial_res[0])
                alpha = DAMPING  # every damped row's, halved each round
                for _ in range(MAX_HALVINGS):
                    if all(map(operator.lt, t_norm, rnorm)):
                        break
                    # the rows not better, a NaN norm too; all of them (the
                    # only one included) taken whole, without a gather
                    q = [j for j, n in enumerate(t_norm) if not n < rnorm[j]]
                    at = ... if len(q) == len(t_norm) else q
                    trial[at] = v = u[at] + alpha * delta[at]
                    damped = res(v, sig if one else sig[at], rhs[at])
                    for a, b in zip(trial_res, damped):
                        a[at] = b
                    for j, n in zip(q, _norms(damped[0])):
                        t_norm[j] = n
                    alpha *= 0.5
                u, rnorm = trial, t_norm
                r, s2, e, nu = trial_res
        if failed:
            raise failed[min(failed)]
        return out, scalars, its


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

    def _advance(self, fields, scalars, t_prev, t_next, spatial_level,
                 smooth, guess, tol=None):
        """Newton, then the rotor: one row on floats, more elementwise with
        torques from one stacked dot, in the same operations, bitwise."""
        out, _, its = super()._advance(fields, scalars, t_prev, t_next,
                                       spatial_level, smooth, guess, tol)
        one, c = out.ndim == 1, self._couplings[spatial_level]
        theta, omega = scalars.tolist() if one else scalars.T
        dt = t_next[0] - t_prev[0] if one else np.subtract(t_next, t_prev)
        torque = (self.torque(out, spatial_level) if one
                  else (out[:, None] @ c[:, None])[:, 0, 0])
        omega = ((omega + dt * torque / self.inertia)
                 / (1.0 + dt * self.friction / self.inertia))
        rotor = np.array([theta + dt * omega, omega])
        return out, rotor.T.reshape(scalars.shape), its


class DahlquistProblem(_FieldProblem):
    """Scalar test equation u' = rate * u (+ optional source voltage): a
    field problem on one point, whose source shape sin(pi / 2) is exactly
    1.0, so its forcing is the source value itself."""

    def __init__(self, rate=-1.0, initial=1.0, excitation=None):
        super().__init__(1, excitation=excitation)
        self.rate = float(rate)
        self.initial = float(initial)

    def initial_state(self, spatial_level=0):
        return BlockState([self.initial])

    def loss_weights(self, spatial_level=0):
        return np.ones(1)

    def _advance(self, fields, scalars, t_prev, t_next, spatial_level,
                 smooth, guess, tol=None):
        """(u + dt f) / (1 - dt rate) for every row, or for the only one
        (1-d fields); no guess, no tolerance, no scalars to step."""
        dt = np.subtract(t_next, t_prev)[:, None]
        f = self._forcings(t_next, spatial_level, smooth)
        out = (fields + dt * f) / (1.0 - dt * self.rate)
        return out.reshape(fields.shape), scalars, [1] * len(dt)


def batched_step(problem):
    """The step_many kernel to step rows of states of ``problem`` with.

    It is the problem's own step_many when ``step`` resolves from the same
    class, looked up on the type so that a wrapper forwarding attributes
    is not mistaken for its target; otherwise a loop over ``step``, row by
    row, so that a wrapper or a subclass overriding only ``step`` sees
    every step, with the row's guess, never ``tol``, which ``step`` lacks.
    """
    mro = type(problem).__mro__

    def owner(name):
        return next((c for c in mro if name in vars(c)), None)

    if owner("step_many") is not None and owner("step_many") is owner("step"):
        return problem.step_many

    def step_rows(fields, scalars, t_prev, t_next, spatial_level=0,
                  smooth=False, guess=None, tol=None):
        out_f, out_s = np.empty(fields.shape), np.empty(scalars.shape)
        its = []
        for r, (a, b) in enumerate(zip(t_prev, t_next)):
            u = BlockState(fields[r], scalars[r])
            g = u if guess is None else BlockState(guess[r], scalars[r])
            v, diag = problem.step(u, a, b, spatial_level, guess=g,
                                   smooth=smooth)
            out_f[r], out_s[r] = v.field, v.scalars
            its.append(diag.iterations)
        return out_f, out_s, its
    return step_rows


def sequential_solve(problem, times, spatial_level=0, smooth=False):
    """Forward stepping from the initial state: the O(n_steps) serial
    oracle.  Returns the trajectory as a SpaceTimeVector."""
    states = [problem.initial_state(spatial_level)]
    for i in range(1, len(times)):
        u, _ = problem.step(states[-1], float(times[i - 1]), float(times[i]),
                            spatial_level, guess=states[-1], smooth=smooth)
        states.append(u)
    return SpaceTimeVector(np.array([u.field for u in states]),
                           np.array([u.scalars for u in states]))
