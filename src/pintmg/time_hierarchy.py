"""Time grids, per-level factors, and the temporal coarsening plan.

A level's C/F splitting is its factor m: C-point j is point j m, every
other point is an F-point.  Coarse grids are built by slicing the
parent's time array at its C-points, so a coarse time value is always
bitwise identical to the fine value it came from.  Points that trail the
last C-point of a level (when the factor does not divide the step count)
stay on the fine level as an F-only tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """A single level's time points."""

    points: np.ndarray

    def __post_init__(self):
        if self.points.ndim != 1 or self.points.size < 2:
            raise ValueError("a time grid needs at least 2 points")

    @property
    def n_points(self):
        return int(self.points.size)

    @property
    def n_steps(self):
        return int(self.points.size - 1)


def build_uniform_grid(t0, tf, n_steps):
    """Uniform finest grid over [t0, tf] with n_steps intervals."""
    if not tf > t0:
        raise ValueError(f"need tf > t0, got [{t0!r}, {tf!r}]")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return TimeGrid(np.linspace(t0, tf, n_steps + 1))


def level_factor(n_points, factor):
    """The factor the coarsest level of n_points points actually uses: a
    grid with no more points than factor takes max(2, n_points - 1)."""
    return factor if n_points > factor else max(2, n_points - 1)


def plan_coarsening(n_steps, max_levels, coarse_factor):
    """Choose inter-level factors as XBraid does: coarse_factor per level
    until max_levels is reached or the next grid would drop below 2 steps.
    Returns the (possibly empty) factor list.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    if coarse_factor < 2:
        raise ValueError(f"coarse_factor must be >= 2, got {coarse_factor}")
    factors = []
    steps = n_steps
    while len(factors) + 1 < max_levels and steps // coarse_factor >= 2:
        factors.append(coarse_factor)
        steps //= coarse_factor
    return factors


@dataclass(frozen=True)
class TimeHierarchy:
    """The grid stack plus one factor per level.

    level_factors[:-1] are the inter-level factors; the coarsest level
    reuses the last one, clamped by level_factor (it still has its own
    C/F structure: relaxation sweeps and the storage model are defined
    per level).
    """

    grids: tuple
    factors: tuple
    level_factors: tuple

    @classmethod
    def build(cls, fine_grid, factors):
        grids = [fine_grid]
        for m in factors:
            if m < 2:
                raise ValueError(f"inter-level factor must be >= 2, got {m}")
            parent = grids[-1]
            coarse_points = parent.points[::m]
            if coarse_points.size < 2:
                raise ValueError(
                    f"factor {m} leaves level {len(grids)} with "
                    f"{coarse_points.size} point(s); need at least 2")
            grids.append(TimeGrid(coarse_points))
        factors = tuple(int(m) for m in factors)
        coarsest = level_factor(grids[-1].n_points,
                                factors[-1] if factors else 2)
        return cls(grids=tuple(grids), factors=factors,
                   level_factors=factors + (coarsest,))

    @classmethod
    def plan(cls, fine_grid, max_levels, coarse_factor):
        factors = plan_coarsening(fine_grid.n_steps, max_levels, coarse_factor)
        return cls.build(fine_grid, factors)

    @property
    def n_levels(self):
        return len(self.grids)

    def __getitem__(self, level):
        return self.grids[level]

    def __len__(self):
        return len(self.grids)
