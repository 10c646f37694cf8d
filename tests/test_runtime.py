import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from pintmg.errors import TransportError
from pintmg.mgrit import MgritSolver
from pintmg.runtime import (
    Decomposition, NullTransport, gather_to_root, reduce_max, reduce_norm,
    run_spmd, scatter_from_root,
)
from pintmg.state import BlockState
from pintmg.time_hierarchy import cf_split

from oracles import broadcast_from_root


# --- decomposition -------------------------------------------------------------

def test_two_workers_split_at_index_eight():
    d = Decomposition(cf_split(17, 4), 2)
    assert d.owned_range(0) == (1, 9)
    assert d.owned_range(1) == (9, 17)
    assert d.left_boundary_index(1) == 8
    assert d.c_points(0).tolist() == [4, 8]
    assert d.c_points(1).tolist() == [12, 16]


def test_owned_ranges_partition_every_level():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(3, 200))
        m = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        d = Decomposition(cf_split(n, m), p)
        covered = []
        for w in range(p):
            lo, hi = d.owned_range(w)
            covered.extend(range(lo, hi))
        assert covered == list(range(1, n)), (n, m, p)
        # index 0 belongs to worker 0's side: its left boundary
        assert d.left_boundary_index(0) == 0


def test_unit_balance_and_idle_workers():
    d = Decomposition(cf_split(33, 4), 3)  # 8 units over 3 workers
    assert [d.n_units(w) for w in range(3)] == [3, 3, 2]
    d2 = Decomposition(cf_split(9, 4), 4)  # 2 units over 4 workers
    assert [d2.n_units(w) for w in range(4)] == [1, 1, 0, 0]
    assert d2.is_empty(3) and d2.is_empty(2)
    assert d2.owned_range(2) == (0, 0)
    assert not d2.is_empty(0) and not d2.is_empty(1)
    assert d2.left_neighbor(1) == 0 and d2.left_neighbor(0) is None
    assert d2.right_neighbor(1) is None
    # every (points, factor, p <= 16, rank): the active ranks are the ones
    # dealt a unit (or rank 0 on a level without one), and the neighbours
    # of an active rank are the nearest active ranks on either side
    cases = 0
    for n in range(2, 50):
        for m in range(2, 15):
            split = cf_split(n, m)
            for p in range(1, 17):
                d = Decomposition(split, p)
                active = [w for w in range(p) if d.n_units(w) > 0
                          or (w == 0 and split.n_intervals == 0)]
                for w in range(p):
                    cases += 1
                    assert d.is_empty(w) == (w not in active), (n, m, p, w)
                    if w in active:
                        lower = [v for v in active if v < w]
                        higher = [v for v in active if v > w]
                        assert d.left_neighbor(w) == (
                            lower[-1] if lower else None), (n, m, p, w)
                        assert d.right_neighbor(w) == (
                            higher[0] if higher else None), (n, m, p, w)
    assert cases == 84864


def test_trailing_f_points_belong_to_last_active_rank():
    # 11 points, factor 4: C-points 0,4,8 and an F-tail 9,10
    d = Decomposition(cf_split(11, 4), 2)
    assert d.owned_range(0) == (1, 5)
    assert d.owned_range(1) == (5, 11)


def test_degenerate_level_all_points_to_rank_zero():
    d = Decomposition(cf_split(2, 2), 3)
    assert not d.is_empty(0)
    assert d.owned_range(0) == (1, 2)
    assert d.is_empty(1) and d.owned_range(1) == (0, 0)


@pytest.mark.parametrize("n,m,p", [
    (11, 4, 2),   # an F-tail after the last C-point
    (9, 4, 4),    # two idle ranks
    (35, 4, 3),   # F-tail and an uneven deal
    (2, 2, 3),    # no C-interval at all
    (3, 4, 2),    # fewer points than the factor
])
def test_point_owner_agrees_with_owned_ranges(n, m, p):
    d = Decomposition(cf_split(n, m), p)
    owners = {i: w for w in range(p) for i in range(*d.owned_range(w))}
    assert sorted(owners) == list(range(1, n))
    assert all(d.point_owner(i) == w for i, w in owners.items())


# --- transports ------------------------------------------------------------------

def _echo_pattern(transport, payload):
    """Every rank sends its rank*10 to every other, receives all."""
    for dst in range(transport.size):
        if dst != transport.rank:
            transport.send(dst, transport.rank * 10)
    got = {src: transport.recv(src)
           for src in range(transport.size) if src != transport.rank}
    return got


def test_thread_transport_all_to_all():
    results = run_spmd(4, _echo_pattern, None, backend="thread")
    for rank, got in enumerate(results):
        assert got == {src: src * 10 for src in range(4) if src != rank}


def test_process_transport_all_to_all():
    results = run_spmd(3, _echo_pattern, None, backend="process", timeout=60)
    for rank, got in enumerate(results):
        assert got == {src: src * 10 for src in range(3) if src != rank}


def _mutation_probe(transport, payload):
    if transport.rank == 0:
        state = BlockState([1.0, 2.0])
        transport.send(1, state)
        state.field[:] = -1.0  # must not reach the receiver
        return None
    return transport.recv(0).field.tolist()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_transport_has_value_semantics(backend):
    results = run_spmd(2, _mutation_probe, None, backend=backend, timeout=60)
    assert results[1] == [1.0, 2.0]


def _fifo_probe(transport, payload):
    if transport.rank == 0:
        for k in range(20):
            transport.send(1, k)
        return None
    return [transport.recv(0) for _ in range(20)]


def test_per_pair_fifo_order():
    results = run_spmd(2, _fifo_probe, None, backend="thread")
    assert results[1] == list(range(20))


def _reduce_probe(transport, payload):
    parts = payload
    return (reduce_norm(transport, parts[transport.rank]),
            reduce_max(transport, float(transport.rank)))


def test_reduce_norm_rank_ordered():
    results = run_spmd(2, _reduce_probe, [[9.0], [16.0]], backend="thread")
    assert all(r[0] == 5.0 for r in results)
    assert all(r[1] == 1.0 for r in results)
    single = run_spmd(1, _reduce_probe, [[49.0]], backend="thread")
    assert single[0][0] == 7.0


def test_reduce_norm_is_the_one_worker_sum_for_any_split():
    # 0.1 + 0.2 + 0.3 added left to right differs from 0.1 + (0.2 + 0.3)
    # in the last bit: the terms are summed in order, not per rank first
    terms = [0.1, 0.2, 0.3, 1e-17, 0.7]
    whole = run_spmd(1, _reduce_probe, [terms], backend="thread")[0][0]
    assert whole == (((0.1 + 0.2) + 0.3 + 1e-17) + 0.7) ** 0.5
    for parts in ([terms[:1], terms[1:]], [terms[:2], [], terms[2:]],
                  [[], terms[:4], terms[4:]]):
        results = run_spmd(len(parts), _reduce_probe, parts, backend="thread")
        assert [r[0] for r in results] == [whole] * len(parts)


def _max_probe(transport, payload):
    return reduce_max(transport, payload[transport.rank])


def test_reduce_max_keeps_a_nan_from_any_rank():
    for parts in ([0.5, float("nan")], [float("nan"), 0.5]):
        results = run_spmd(2, _max_probe, parts, backend="thread")
        assert all(r != r for r in results)


def _gather_scatter_probe(transport, payload):
    gathered = gather_to_root(transport, transport.rank + 0.5)
    if transport.rank == 0:
        items = [x * 2 for x in gathered]
    else:
        items = None
    mine = scatter_from_root(transport, items)
    tag = broadcast_from_root(transport, "done" if transport.rank == 0 else None)
    return (gathered, mine, tag)


def test_gather_scatter_broadcast_round_trip():
    results = run_spmd(3, _gather_scatter_probe, None, backend="thread")
    assert results[0][0] == [0.5, 1.5, 2.5]
    assert results[1][0] is None
    assert [r[1] for r in results] == [1.0, 3.0, 5.0]
    assert all(r[2] == "done" for r in results)


def _deadlock_probe(transport, payload):
    if transport.rank == 1:
        return transport.recv(0)  # rank 0 never sends
    return None


def test_recv_timeout_raises_transport_error():
    with pytest.raises(TransportError):
        run_spmd(2, _deadlock_probe, None, backend="thread", timeout=1.0)


def _crash_probe(transport, payload):
    if transport.rank == 0:
        raise RuntimeError("boom")
    return transport.recv(0)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_worker_exception_propagates(backend):
    # the cause is reported, not the peer's "a peer failed", and the peer
    # blocked in recv stops within a poll instead of waiting to be killed
    t0 = time.perf_counter()
    with pytest.raises(TransportError) as err:
        run_spmd(2, _crash_probe, None, backend=backend, timeout=30.0)
    assert str(err.value) == "worker 0 failed: RuntimeError: boom"
    assert time.perf_counter() - t0 < 2.5


def test_null_transport_refuses_traffic():
    t = NullTransport()
    with pytest.raises(TransportError):
        t.send(0, 1)
    with pytest.raises(ValueError):
        run_spmd(2, _echo_pattern, None, backend="carrier-pigeon")


def _unpicklable_probe(transport, payload):
    return UNPICKLABLE


UNPICKLABLE = lambda: None  # noqa: E731  (pickles by name, which fails)


def test_unpicklable_process_result_is_reported_at_once():
    t0 = time.perf_counter()
    with pytest.raises(TransportError,
                       match=r"^worker [01] failed: PicklingError: "):
        run_spmd(2, _unpicklable_probe, None, backend="process", timeout=1.0)
    assert time.perf_counter() - t0 < 2.5


def _silent_death_probe(transport, payload):
    if transport.rank == 0:
        os._exit(3)  # no report, no cleanup
    return transport.recv(0)


def test_a_worker_that_dies_without_a_report_is_named_at_once():
    # at the default 120 s timeout the peer blocked in recv would wait it
    # out; the driver names the dead worker after one poll instead
    t0 = time.perf_counter()
    with pytest.raises(TransportError, match="^worker 0 exited with code 3 "
                                             "without a report$"):
        run_spmd(2, _silent_death_probe, None, backend="process")
    assert time.perf_counter() - t0 < 1.0


# --- payloads larger than a pipe holds -----------------------------------------------

BIG = 1 << 17  # float64 values: 1 MiB, sixteen times a pipe's buffer


def _big(tag):
    return np.full(BIG, float(tag))


def _exchange_probe(transport, payload):
    """The walk's boundary exchange: write right, then read left."""
    rank = transport.rank
    if rank + 1 < transport.size:
        transport.send(rank + 1, _big(rank))
    return float(transport.recv(rank - 1)[-1]) if rank else None


def _route_probe(transport, payload):
    """MgritSolver._route itself, items and expected arrivals as given."""
    owned, dest = payload
    owner = {j: w for w, js in enumerate(owned) for j in js}
    rank, got = transport.rank, {}
    expected = [(j, owner[j]) for j in sorted(dest) if dest[j] == rank]
    MgritSolver._route(
        SimpleNamespace(transport=transport),
        ((j, _big(j)) for j in owned[rank]), dest.__getitem__, expected,
        lambda j, arr: got.__setitem__(j, (arr.size, float(arr[-1]))))
    return got


def _route_case(p, shape):
    if shape == "triangle":  # 0 writes to 1 and 2, 1 writes to 2
        return [[1, 2], [3], []], {1: 1, 2: 2, 3: 2}
    owned = [[3 * w + 1, 3 * w + 2, 3 * w + 3] for w in range(p)]
    owner = {j: w for w, js in enumerate(owned) for j in js}
    if shape == "right":  # each rank's last item goes right
        return owned, {j: owner[min(j + 1, 3 * p)] for j in owner}
    return owned, {j: owner[max(j - 1, 1)] for j in owner}  # first goes left


def _gather_probe(transport, payload):
    got = gather_to_root(transport, _big(transport.rank))
    return None if got is None else [float(a[-1]) for a in got]


def _scatter_probe(transport, payload):
    items = ([_big(w) for w in range(transport.size)]
             if transport.rank == 0 else None)
    return float(scatter_from_root(transport, items)[-1])


def _run_big(p, probe, payload, backend):
    t0 = time.perf_counter()
    results = run_spmd(p, probe, payload, backend=backend, timeout=5.0)
    assert time.perf_counter() - t0 < 4.0
    return results


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("p", [2, 3])
def test_large_boundary_exchange(p, backend):
    results = _run_big(p, _exchange_probe, None, backend)
    assert results == [None] + [float(w) for w in range(p - 1)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("p,shape", [(2, "right"), (2, "left"), (3, "right"),
                                     (3, "left"), (3, "triangle")])
def test_large_route(p, shape, backend):
    owned, dest = _route_case(p, shape)
    results = _run_big(p, _route_probe, (owned, dest), backend)
    assert results == [{j: (BIG, float(j)) for j in dest if dest[j] == w}
                       for w in range(p)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("p", [2, 3])
def test_large_gather_and_scatter(p, backend):
    gathered = _run_big(p, _gather_probe, None, backend)
    assert gathered == [[float(w) for w in range(p)]] + [None] * (p - 1)
    assert _run_big(p, _scatter_probe, None, backend) == [
        float(w) for w in range(p)]


def _blocked_writer_probe(transport, payload):
    if transport.rank == 1:
        raise RuntimeError("reader gone")
    transport.send(1, _big(0))  # more than the pipe holds: blocks


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_writer_blocked_on_a_failed_reader_is_released(backend):
    t0 = time.perf_counter()
    with pytest.raises(TransportError,
                       match="^worker 1 failed: RuntimeError: reader gone$"):
        run_spmd(2, _blocked_writer_probe, None, backend=backend,
                 timeout=30.0)
    assert time.perf_counter() - t0 < 2.5


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_run_spmd_leaves_no_descriptor_open(backend):
    run_spmd(3, _echo_pattern, None, backend=backend)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        run_spmd(3, _echo_pattern, None, backend=backend)
    assert len(os.listdir("/proc/self/fd")) == before
