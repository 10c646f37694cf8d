import numpy as np

from pintmg.state import BlockState, SpaceTimeVector


def _vector(fields, scalars=None):
    fields = np.array(fields, dtype=float)
    return SpaceTimeVector(fields, np.zeros((len(fields), 0))
                           if scalars is None else np.array(scalars, float))


def test_points_are_block_state_views_of_the_rows():
    v = _vector([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [[7.0], [8.0], [9.0]])
    assert len(v) == 3
    point = v[1]
    assert isinstance(point, BlockState)
    assert point.field.tolist() == [3.0, 4.0]
    assert point.scalars.tolist() == [8.0]
    assert np.shares_memory(point.field, v.fields)
    assert np.shares_memory(point.scalars, v.scalars)
    assert [s.field[0] for s in v.states] == [1.0, 3.0, 5.0]
    assert repr(point) == "BlockState(n_field=2, n_scalars=1)"
