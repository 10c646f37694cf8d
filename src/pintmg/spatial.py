"""Transfer between nested 1D spatial grids.

Grids hold interior points of the unit interval under homogeneous
Dirichlet conditions; a grid of n points refines one of (n - 1) / 2
points, so fine odd indices coincide with coarse points.  Sizes strictly
decrease down the stack, so a state's field size names its grid: the
transfers read the source grid from it rather than from a tag.  Fields
move by injection (down) and linear interpolation (up); lumped scalars
ride along unchanged in both directions.  Injection of an interpolated
vector gives back exactly what went up, which keeps repeated transfer
cycles stable.
"""

from __future__ import annotations

import numpy as np

from .state import BlockState

STRATEGIES = ("none", "direct", "delayed")


def coarse_size(n_fine):
    if n_fine < 3 or n_fine % 2 == 0:
        raise ValueError(
            f"a {n_fine}-point grid has no nested coarse grid; "
            "need an odd size >= 3")
    return (n_fine - 1) // 2


class SpatialHierarchy:
    """Sizes of the nested grid stack, finest first."""

    def __init__(self, n_fine, n_grids=1):
        if n_grids < 1:
            raise ValueError(f"n_grids must be >= 1, got {n_grids}")
        sizes = [int(n_fine)]
        if sizes[0] < 1:
            raise ValueError(f"grid size must be positive, got {n_fine}")
        for _ in range(n_grids - 1):
            sizes.append(coarse_size(sizes[-1]))
        self.sizes = tuple(sizes)

    @property
    def n_grids(self):
        return len(self.sizes)

    def size(self, grid):
        return self.sizes[grid]

    def spacing(self, grid):
        return 1.0 / (self.sizes[grid] + 1)

    def coordinates(self, grid):
        """Interior points of [0, 1] on the given grid."""
        n = self.sizes[grid]
        return np.arange(1, n + 1) / (n + 1)

    def _grid_of(self, state):
        """The grid whose size is the state's field size."""
        try:
            return self.sizes.index(state.field.size)
        except ValueError:
            raise ValueError(f"no grid has {state.field.size} points; "
                             f"sizes are {self.sizes}") from None

    def restrict_state(self, state):
        """Inject field values at coarse-aligned points, one grid down."""
        s = self._grid_of(state)
        if s + 1 >= self.n_grids:
            raise ValueError(f"no grid below {s} (hierarchy has "
                             f"{self.n_grids})")
        return BlockState(state.field[1::2].copy(), state.scalars.copy())

    def prolong_error(self, state):
        """Linearly interpolate the field to the next finer grid."""
        if self._grid_of(state) == 0:
            raise ValueError("already on the finest grid")
        fine = np.empty(2 * state.field.size + 1)
        fine[1::2] = state.field
        padded = np.concatenate(([0.0], state.field, [0.0]))
        fine[0::2] = 0.5 * (padded[:-1] + padded[1:])
        return BlockState(fine, state.scalars.copy())


def assign_spatial_levels(strategy, n_time_levels, n_spatial_grids):
    """Spatial grid index used by each time level.

    direct coarsens as early as possible; delayed keeps the finest grid
    until only the last (n_spatial_grids - 1) transitions remain.  Either
    way level 0 runs on the finest grid and neighbouring levels differ by
    at most one grid.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown spatial strategy {strategy!r}; "
                         f"choose from {STRATEGIES}")
    if n_time_levels < 1 or n_spatial_grids < 1:
        raise ValueError("need at least one time level and one grid")
    if strategy == "none":
        return [0] * n_time_levels
    if strategy == "direct":
        return [min(l, n_spatial_grids - 1) for l in range(n_time_levels)]
    offset = max(n_time_levels - n_spatial_grids, 0)
    return [min(max(0, l - offset), n_spatial_grids - 1)
            for l in range(n_time_levels)]
