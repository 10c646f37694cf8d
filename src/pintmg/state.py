"""Space-time state containers.

A BlockState is one time point's unknowns: a field vector plus a
(possibly empty) vector of lumped scalars such as rotor angle and speed.
It is plain data and carries no grid tag: the field's size names its
spatial grid, since the sizes of a grid stack strictly decrease
(spatial.SpatialHierarchy).  A SpaceTimeVector is a level's states at
time indices 0, 1, ... as two row arrays, fields (n, n_field) and
scalars (n, n_scalars); indexing it makes a BlockState view of one row.
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

    def __repr__(self):
        return (f"BlockState(n_field={self.field.size}, "
                f"n_scalars={self.scalars.size})")


class SpaceTimeVector:
    """States at time indices 0, 1, ..., len - 1: row i of ``fields`` and
    of ``scalars`` is point i's field and scalars."""

    def __init__(self, fields, scalars):
        self.fields, self.scalars = fields, scalars

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, i):
        """Point i as a BlockState whose arrays are views of its rows."""
        return BlockState(self.fields[i], self.scalars[i])

    @property
    def states(self):
        return [self[i] for i in range(len(self))]
