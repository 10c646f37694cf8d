"""Space-time state containers.

A BlockState is one time point's unknowns: a field vector on some spatial
grid plus a (possibly empty) vector of lumped scalars such as rotor angle
and speed.  A SpaceTimeVector is a contiguous run of block states, with an
explicit global index range so distributed owners can reason about their
slice of the time line.
"""

from __future__ import annotations

import numpy as np

_FLOAT64 = np.dtype(np.float64)


def _vector(values):
    """values as a 1-d float array; a 1-d float64 ndarray is taken as it is,
    which is what asarray and atleast_1d would return for it."""
    if (type(values) is np.ndarray and values.ndim == 1
            and values.dtype is _FLOAT64):
        return values
    return np.atleast_1d(np.asarray(values, dtype=float))


class BlockState:
    """Field values plus lumped scalars at a single time point."""

    __slots__ = ("field", "scalars", "spatial_level")

    def __init__(self, field, scalars=None, spatial_level=0):
        self.field = _vector(field)
        self.scalars = np.zeros(0) if scalars is None else _vector(scalars)
        self.spatial_level = int(spatial_level)

    @classmethod
    def zeros(cls, n_field, n_scalars=0, spatial_level=0):
        return cls(np.zeros(n_field), np.zeros(n_scalars), spatial_level)

    def clone(self):
        return BlockState(self.field.copy(), self.scalars.copy(),
                          self.spatial_level)

    def copy_from(self, other):
        """Overwrite in place; shapes must already agree."""
        self._check_compatible(other)
        self.field[:] = other.field
        self.scalars[:] = other.scalars
        return self

    def _check_compatible(self, other):
        if (self.spatial_level != other.spatial_level
                or self.field.shape != other.field.shape
                or self.scalars.shape != other.scalars.shape):
            raise ValueError(
                "incompatible block states: "
                f"grid {self.spatial_level}/{other.spatial_level}, "
                f"field {self.field.shape}/{other.field.shape}, "
                f"scalars {self.scalars.shape}/{other.scalars.shape}")

    def add_scaled(self, other, alpha=1.0):
        """self += alpha * other, in place."""
        self._check_compatible(other)
        self.field += alpha * other.field
        self.scalars += alpha * other.scalars
        return self

    def __add__(self, other):
        return self.clone().add_scaled(other, 1.0)

    def __sub__(self, other):
        return self.clone().add_scaled(other, -1.0)

    def __mul__(self, alpha):
        out = self.clone()
        out.field *= alpha
        out.scalars *= alpha
        return out

    __rmul__ = __mul__

    def norm_sq(self):
        return float(self.field @ self.field) + float(self.scalars @ self.scalars)

    def max_abs(self):
        m = float(np.max(np.abs(self.field)))
        if self.scalars.size:
            m = max(m, float(np.max(np.abs(self.scalars))))
        return m

    def __repr__(self):
        return (f"BlockState(n_field={self.field.size}, "
                f"n_scalars={self.scalars.size}, grid={self.spatial_level})")


class SpaceTimeVector:
    """Block states at the contiguous global time indices [start, stop)."""

    def __init__(self, states, start=0):
        self.states = list(states)
        self.start = int(start)

    @property
    def stop(self):
        return self.start + len(self.states)

    @property
    def indices(self):
        return range(self.start, self.stop)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        """Access by global time index."""
        if not self.start <= i < self.stop:
            raise IndexError(f"index {i} outside owned range "
                             f"[{self.start}, {self.stop})")
        return self.states[i - self.start]

    def __setitem__(self, i, state):
        if not self.start <= i < self.stop:
            raise IndexError(f"index {i} outside owned range "
                             f"[{self.start}, {self.stop})")
        self.states[i - self.start] = state

    def clone(self):
        return SpaceTimeVector([s.clone() for s in self.states], self.start)
