"""Independent correctness checks for the benchmark's solves.

Nothing here calls the solver or the problem classes.  The PWM forcing,
the backward-Euler system, the Brauer material law and the rotor
recurrence are written out again from their definitions, so a fault in
the package cannot hide behind the same fault in its reference.  The
one concession is the carrier phase ``t * (pulses / period)``: it is
formed in the package's operation order, because at every carrier reset
the rounding of that product decides the sign of the pulse.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve

SHIFTS = {1: 0.0, 2: -2.0 * math.pi / 3.0, 3: -4.0 * math.pi / 3.0}

# The model the workloads are meant to solve.  The benchmark checks that
# the problems it builds carry exactly these values, so that a changed
# package default makes a run incorrect instead of moving the check.
BRAUER = (0.05, 2.0, 1.0)       # k1, k2, k3 of nu(s) = k1 exp(k2 s^2) + k3
NEWTON_TOL = 1e-11              # |F(u)| <= tol * |rhs| ends a Newton solve
INERTIA = 1.0
FRICTION = 0.1


class CheckFailed(AssertionError):
    """An answer disagreed with its independent reference."""


def pwm_forcing(t, period, pulses, modulation, phase, ramp, smooth=False):
    """Source voltage at time t: ramp times the pulse train (or its
    carrier-period average when ``smooth``)."""
    reference = math.sin(2.0 * math.pi * t / period + SHIFTS[phase])
    if smooth:
        pulse = modulation * reference
    else:
        x = t * (pulses / period)
        carrier = 2.0 * (x - math.floor(x)) - 1.0
        pulse = 1.0 if modulation * reference >= carrier else -1.0
    if ramp and t < 2.0 * period:
        return 0.5 * (1.0 - math.cos(math.pi * t / (2.0 * period))) * pulse
    return pulse


def forcing_series(times, pwm):
    """Forcing at every time point; ``pwm`` holds pwm_forcing's keywords."""
    return np.array([pwm_forcing(float(t), **pwm) for t in times])


def stiffness_dense(nx, diffusivity=1.0):
    """Dense central-difference -nu d2/dx2 on nx interior points."""
    dx = 1.0 / (nx + 1)
    k = (2.0 * np.eye(nx) - np.eye(nx, k=1) - np.eye(nx, k=-1))
    return diffusivity / dx ** 2 * k


def dense_linear_trajectory(times, profile, forcing, diffusivity=1.0,
                            mass=1.0):
    """Backward Euler for mass u_t - nu u_xx = f(t) s(x), u(0) = 0, by a
    dense LU solve per step.  Returns an (n_points, nx) array."""
    nx = profile.size
    out = np.zeros((len(times), nx))
    k = stiffness_dense(nx, diffusivity)
    factors = {}
    for n in range(1, len(times)):
        dt = float(times[n]) - float(times[n - 1])
        if dt not in factors:
            factors[dt] = lu_factor(mass / dt * np.eye(nx) + k)
        rhs = forcing[n] * profile + (mass / dt) * out[n - 1]
        out[n] = lu_solve(factors[dt], rhs)
    return out


def brauer_operator(u, k1, k2, k3):
    """-d/dx(nu(|u_x|) u_x) with nu(s) = k1 exp(k2 s^2) + k3 and zero
    Dirichlet values, row-wise for a (..., nx) array."""
    nx = u.shape[-1]
    dx = 1.0 / (nx + 1)
    pad = np.zeros(u.shape[:-1] + (nx + 2,))
    pad[..., 1:-1] = u
    g = (pad[..., 1:] - pad[..., :-1]) / dx
    flux = (k1 * np.exp(k2 * g * g) + k3) * g
    return -(flux[..., 1:] - flux[..., :-1]) / dx


def check_brauer_steps(times, fields, profile, forcing, curve=BRAUER,
                       newton_tol=NEWTON_TOL, mass=1.0):
    """Every step of a nonlinear trajectory solves its backward-Euler
    equation to the Newton tolerance, measured as the package's Newton
    loop measures it: |F(u_n)| <= tol * |rhs_n|, plus 1e-13 * |rhs_n|
    for the rounding in which the two residual evaluations differ."""
    dt = np.diff(np.asarray(times, dtype=float))[:, None]
    rhs = forcing[1:, None] * profile + mass / dt * fields[:-1]
    res = mass / dt * fields[1:] + brauer_operator(fields[1:], *curve) - rhs
    rnorm = np.linalg.norm(res, axis=1)
    limit = (newton_tol + 1e-13) * np.maximum(np.linalg.norm(rhs, axis=1),
                                              1e-300)
    worst = int(np.argmax(rnorm / limit))
    if rnorm[worst] > limit[worst]:
        raise CheckFailed(
            f"step {worst + 1}: Brauer residual {rnorm[worst]:.3e} exceeds "
            f"the Newton bound {limit[worst]:.3e}")
    return float(np.max(rnorm / limit))


def check_rotor(times, fields, scalars, inertia=INERTIA, friction=FRICTION):
    """theta, omega follow one backward-Euler step of
    J omega' = T(u) - c omega, theta' = omega from rest, with the torque
    T(u) = sum_i sin(2 pi x_i) u_i dx taken from the new field."""
    nx = fields.shape[1]
    dx = 1.0 / (nx + 1)
    x = np.arange(1, nx + 1) * dx
    torque = fields @ (np.sin(2.0 * math.pi * x) * dx)
    theta = omega = 0.0
    expect = np.zeros((len(times), 2))
    for n in range(1, len(times)):
        dt = float(times[n]) - float(times[n - 1])
        omega = (omega + dt * torque[n] / inertia) / (1.0 + dt * friction
                                                      / inertia)
        theta = theta + dt * omega
        expect[n] = theta, omega
    err = float(np.max(np.abs(scalars - expect)))
    scale = max(float(np.max(np.abs(expect))), 1e-300)
    if err > 1e-12 * scale:
        raise CheckFailed(f"rotor recurrence off by {err:.3e} "
                          f"(scale {scale:.3e})")
    return err


def trajectory_bound(n_steps, tolerance, amplification=2.0):
    """Largest error a trajectory may carry at one time point once the
    space-time residual norm is below ``tolerance``.

    The error obeys e_n = Phi(e_{n-1}) + r_n.  A backward-Euler step of a
    monotone diffusion is a contraction in the 2-norm, so |e_n| is at
    most the sum of |r_i|, and Cauchy-Schwarz gives sqrt(n_steps) times
    the residual norm.  The rotor scalars integrate the field error over
    t_final = 0.02, which ``amplification`` covers with room to spare.
    """
    return amplification * math.sqrt(n_steps) * tolerance


def max_point_error(a, b):
    """Largest 2-norm of a time point's difference, for (n, m) arrays."""
    return float(np.max(np.linalg.norm(a - b, axis=1)))
