"""Time grids, C/F splittings, and the temporal coarsening plan.

Coarse grids are built by slicing the parent's time array at its C-points,
so a coarse time value is always bitwise identical to the fine value it
came from.  Points that trail the last C-point of a level (when the factor
does not divide the step count) stay on the fine level as an F-only tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """A single level's time points, finest level is 0."""

    level: int
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

    @property
    def t0(self):
        return float(self.points[0])

    @property
    def tf(self):
        return float(self.points[-1])

    @property
    def dt(self):
        """Nominal uniform spacing."""
        return (self.tf - self.t0) / self.n_steps


@dataclass(frozen=True)
class CFSplitting:
    """C-points at every factor-th index; everything else is an F-point."""

    n_points: int
    factor: int
    c_indices: np.ndarray = field(init=False)
    f_indices: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.factor < 2:
            raise ValueError(f"splitting factor must be >= 2, got {self.factor}")
        if self.n_points < 2:
            raise ValueError("cannot split fewer than 2 points")
        c = np.arange(0, self.n_points, self.factor)
        mask = np.zeros(self.n_points, dtype=bool)
        mask[c] = True
        object.__setattr__(self, "c_indices", c)
        object.__setattr__(self, "f_indices", np.nonzero(~mask)[0])

    @property
    def n_intervals(self):
        """Number of C-intervals: one per C-point after index 0."""
        return int(self.c_indices.size - 1)


def build_uniform_grid(t0, tf, n_steps):
    """Uniform finest grid over [t0, tf] with n_steps intervals."""
    if not tf > t0:
        raise ValueError(f"need tf > t0, got [{t0!r}, {tf!r}]")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return TimeGrid(level=0, points=np.linspace(t0, tf, n_steps + 1))


def cf_split(n_points, factor):
    return CFSplitting(n_points=n_points, factor=factor)


def level_factor(n_points, factor):
    """The splitting factor a level of n_points points actually uses: a
    grid with no more points than factor takes max(2, n_points - 1)."""
    return factor if n_points > factor else max(2, n_points - 1)


def plan_coarsening(n_steps, n_workers, max_levels, coarse_factor):
    """Choose inter-level factors: first one sized so the second level has
    about one point per worker, then coarse_factor repeatedly.

    Coarsening stops once max_levels is reached or the next grid would
    drop below 3 points.  Returns the (possibly empty) factor list.
    """
    if n_steps < 1 or n_workers < 1:
        raise ValueError("n_steps and n_workers must be positive")
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    if coarse_factor < 2:
        raise ValueError(f"coarse_factor must be >= 2, got {coarse_factor}")
    factors = []
    steps = n_steps
    if max_levels > 1:
        first = max(2, math.ceil(n_steps / n_workers))
        if steps // first >= 1:
            factors.append(first)
            steps //= first
    while len(factors) + 1 < max_levels and steps // coarse_factor >= 2:
        factors.append(coarse_factor)
        steps //= coarse_factor
    return factors


@dataclass(frozen=True)
class TimeHierarchy:
    """The grid stack plus per-level C/F splittings.

    Every level gets a splitting factor, the coarsest reusing the last
    inter-level factor (it still has its own C/F structure: relaxation
    sweeps and the storage model are defined per level).
    """

    grids: tuple
    factors: tuple
    splittings: tuple

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
                    f"factor {m} leaves level {parent.level + 1} with "
                    f"{coarse_points.size} point(s); need at least 2")
            grids.append(TimeGrid(level=parent.level + 1, points=coarse_points))
        factors = tuple(int(m) for m in factors)
        level_factors = factors + (factors[-1] if factors else 2,)
        splittings = tuple(cf_split(g.n_points, level_factor(g.n_points, m))
                           for g, m in zip(grids, level_factors))
        return cls(grids=tuple(grids), factors=factors, splittings=splittings)

    @classmethod
    def plan(cls, fine_grid, n_workers, max_levels, coarse_factor):
        factors = plan_coarsening(fine_grid.n_steps, n_workers, max_levels,
                                  coarse_factor)
        return cls.build(fine_grid, factors)

    @property
    def n_levels(self):
        return len(self.grids)

    def __getitem__(self, level):
        return self.grids[level]

    def __len__(self):
        return len(self.grids)
