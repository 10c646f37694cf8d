"""Space-time state containers.

A BlockState is one time point's unknowns: a field vector plus a
(possibly empty) vector of lumped scalars such as rotor angle and speed.
It is plain data and carries no grid tag: the field's size names its
spatial grid, since the sizes of a grid stack strictly decrease
(spatial.SpatialHierarchy).  A SpaceTimeVector is the run of block
states at time indices 0, 1, ... of one level.
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

    __slots__ = ("field", "scalars")

    def __init__(self, field, scalars=None):
        self.field = _vector(field)
        self.scalars = np.zeros(0) if scalars is None else _vector(scalars)

    @classmethod
    def zeros(cls, n_field, n_scalars=0):
        return cls(np.zeros(n_field), np.zeros(n_scalars))

    def clone(self):
        return BlockState(self.field.copy(), self.scalars.copy())

    def _check_compatible(self, other):
        if (self.field.shape != other.field.shape
                or self.scalars.shape != other.scalars.shape):
            raise ValueError(
                "incompatible block states: "
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
                f"n_scalars={self.scalars.size})")


class SpaceTimeVector:
    """Block states at time indices 0, 1, ..., len - 1."""

    def __init__(self, states):
        self.states = list(states)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __setitem__(self, i, state):
        self.states[i] = state

    def clone(self):
        return SpaceTimeVector([s.clone() for s in self.states])
