import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pintmg
from pintmg.errors import TransportError
from pintmg.runtime import (
    Decomposition, NullTransport, reduce_norm, route, run_spmd,
)
from pintmg.state import BlockState

from callers import CALLERS, from_caller


# --- decomposition -------------------------------------------------------------

def test_two_workers_split_at_index_eight():
    d = Decomposition(17, 4, 2)
    assert d.owned == [(1, 9), (9, 17)]
    # closing C-points 4, 8 on rank 0 and 12, 16 on rank 1
    assert d.intervals == [(1, 3), (3, 5)]
    assert d.last == 1


def test_owned_ranges_partition_every_level():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(3, 200))
        m = int(rng.integers(2, 9))
        p = int(rng.integers(1, 9))
        d = Decomposition(n, m, p)
        covered = [i for lo, hi in d.owned for i in range(lo, hi)]
        assert covered == list(range(1, n)), (n, m, p)
        # index 0 belongs to worker 0's side: its left boundary
        assert d.intervals[0][0] == 1


def test_unit_balance_and_idle_workers():
    d = Decomposition(33, 4, 3)  # 8 intervals over 3 workers
    assert [b - a for a, b in d.intervals] == [3, 3, 2]
    d2 = Decomposition(9, 4, 4)  # 2 intervals over 4 workers
    assert [b - a for a, b in d2.intervals] == [1, 1, 0, 0]
    assert d2.last == 1
    assert d2.owned == [(1, 5), (5, 9), (0, 0), (0, 0)]
    # every (points, factor, p <= 16): the intervals 1 .. K are dealt in
    # rank order, whole and balanced; the active ranks 0 .. last are the
    # ones dealt one (or rank 0 on a level without one), so an active
    # rank below last always has a right neighbour to send to
    cases = 0
    for n in range(2, 50):
        for m in range(2, 15):
            k = (n - 1) // m
            for p in range(1, 17):
                cases += 1
                d = Decomposition(n, m, p)
                counts = [b - a for a, b in d.intervals]
                stops = [a for a, _ in d.intervals] + [d.intervals[-1][1]]
                assert stops == [1 + sum(counts[:w]) for w in range(p + 1)]
                assert sum(counts) == k and max(counts) - min(counts) <= 1
                assert counts == sorted(counts, reverse=True)
                active = [w for w in range(p) if counts[w] or w == 0]
                assert active == list(range(d.last + 1)), (n, m, p)
                assert all(d.owned[w] == (0, 0) for w in range(d.last + 1, p))
    assert cases == 9984


def test_trailing_f_points_belong_to_last_active_rank():
    # 11 points, factor 4: C-points 0,4,8 and an F-tail 9,10
    assert Decomposition(11, 4, 2).owned == [(1, 5), (5, 11)]


def test_degenerate_level_all_points_to_rank_zero():
    d = Decomposition(2, 2, 3)
    assert d.last == 0
    assert d.owned == [(1, 2), (0, 0), (0, 0)]


# --- transports ------------------------------------------------------------------

def _echo_pattern(transport, payload):
    """Every rank sends its rank*10 to every other, receives all."""
    for dst in range(transport.size):
        if dst != transport.rank:
            transport.send(dst, transport.rank * 10)
    got = {src: transport.recv(src)
           for src in range(transport.size) if src != transport.rank}
    return got


@pytest.mark.parametrize("p", [3, 4])
def test_transport_all_to_all(p):
    results = run_spmd(p, _echo_pattern, None, timeout=60)
    for rank, got in enumerate(results):
        assert got == {src: src * 10 for src in range(p) if src != rank}


def _mutation_probe(transport, payload):
    if transport.rank == 0:
        state = BlockState([1.0, 2.0])
        transport.send(1, state)
        state.field[:] = -1.0  # must not reach the receiver
        return None
    return transport.recv(0).field.tolist()


@pytest.mark.parametrize("caller", CALLERS)
def test_transport_has_value_semantics(caller):
    results = from_caller(
        caller, lambda: run_spmd(2, _mutation_probe, None, timeout=60))
    assert results[1] == [1.0, 2.0]


def _fifo_probe(transport, payload):
    if transport.rank == 0:
        for k in range(20):
            transport.send(1, k)
        return None
    return [transport.recv(0) for _ in range(20)]


def test_per_pair_fifo_order():
    results = run_spmd(2, _fifo_probe, None)
    assert results[1] == list(range(20))


def _reduce_probe(transport, payload):
    return reduce_norm(transport, payload[transport.rank],
                       float(transport.rank))


def test_reduce_norm_rank_ordered():
    results = run_spmd(2, _reduce_probe, [[9.0], [16.0]])
    assert all(r[0] == 5.0 for r in results)
    assert all(r[1] == 1.0 for r in results)
    single = run_spmd(1, _reduce_probe, [[49.0]])
    assert single[0][0] == 7.0
    # without values no max is reduced
    results = run_spmd(2, _max_probe, [None, None])
    assert results == [(2.0 ** 0.5, None)] * 2


def test_reduce_norm_is_the_one_worker_sum_for_any_split():
    # 0.1 + 0.2 + 0.3 added left to right differs from 0.1 + (0.2 + 0.3)
    # in the last bit: the terms are summed in order, not per rank first
    terms = [0.1, 0.2, 0.3, 1e-17, 0.7]
    whole = run_spmd(1, _reduce_probe, [terms])[0][0]
    assert whole == (((0.1 + 0.2) + 0.3 + 1e-17) + 0.7) ** 0.5
    for parts in ([terms[:1], terms[1:]], [terms[:2], [], terms[2:]],
                  [[], terms[:4], terms[4:]]):
        results = run_spmd(len(parts), _reduce_probe, parts)
        assert [r[0] for r in results] == [whole] * len(parts)
        # a further list of squares, as for the loose bar, is added alike
        results = run_spmd(len(parts), _more_probe, parts)
        assert results == [(0.0, None, whole)] * len(parts)


def _more_probe(transport, payload):
    return reduce_norm(transport, [], None, payload[transport.rank])


def _max_probe(transport, payload):
    return reduce_norm(transport, [1.0], payload[transport.rank])


def test_reduce_norm_keeps_a_nan_from_any_rank():
    # the loss change travels with the squares; its max keeps a NaN
    for parts in ([0.5, float("nan")], [float("nan"), 0.5]):
        results = run_spmd(2, _max_probe, parts)
        assert all(r[0] == 2.0 ** 0.5 and r[1] != r[1] for r in results)


def _deadlock_probe(transport, payload):
    if transport.rank == 1:
        return transport.recv(0)  # rank 0 never sends
    return None


def test_recv_timeout_raises_transport_error():
    with pytest.raises(TransportError):
        run_spmd(2, _deadlock_probe, None, timeout=1.0)


def _crash_probe(transport, payload):
    if transport.rank == 0:
        raise RuntimeError("boom")
    return transport.recv(0)


@pytest.mark.parametrize("caller", CALLERS)
def test_worker_exception_propagates(caller):
    # the cause is reported, not the peer's "a peer failed", and the peer
    # blocked in recv stops within a poll instead of waiting to be killed
    t0 = time.perf_counter()
    with pytest.raises(TransportError) as err:
        from_caller(caller,
                    lambda: run_spmd(2, _crash_probe, None, timeout=30.0))
    assert str(err.value) == "worker 0 failed: RuntimeError: boom"
    assert time.perf_counter() - t0 < 2.5


def test_null_transport_refuses_traffic():
    t = NullTransport()
    with pytest.raises(TransportError):
        t.send(0, 1)
    for backend in ("carrier-pigeon", "thread"):
        with pytest.raises(ValueError):
            run_spmd(2, _echo_pattern, None, backend=backend)


def _one_fails_probe(transport, payload):
    _echo_pattern(transport, None)
    if transport.rank == payload:
        raise RuntimeError("boom")
    return transport.recv(payload)


@pytest.mark.parametrize("caller", CALLERS)
def test_the_failing_rank_is_named_among_more_ranks_than_cores(caller):
    # every other rank, the caller too, fails after it; with a short
    # switch interval their "a peer failed" races the cause
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for rank in range(4):
            t0 = time.perf_counter()
            with pytest.raises(TransportError) as err:
                from_caller(caller, lambda: run_spmd(
                    4, _one_fails_probe, rank, timeout=30.0))
            assert str(err.value) == f"worker {rank} failed: RuntimeError: boom"
            assert time.perf_counter() - t0 < 2.5
    finally:
        sys.setswitchinterval(interval)


def _unpicklable_probe(transport, payload):
    return UNPICKLABLE if transport.rank in payload else None


UNPICKLABLE = lambda: None  # noqa: E731  (pickles by name, which fails)


def test_unpicklable_process_result_is_reported_at_once():
    t0 = time.perf_counter()
    with pytest.raises(TransportError,
                       match=r"^worker 1 failed: PicklingError: "):
        run_spmd(2, _unpicklable_probe, {0, 1},
                 timeout=1.0)
    assert time.perf_counter() - t0 < 2.5
    # rank 0 runs in the caller, so its result is never pickled
    assert run_spmd(2, _unpicklable_probe, {0},
                    timeout=1.0) == [UNPICKLABLE, None]


def _call_payload_probe(transport, payload):
    return payload(transport.rank)


def test_the_payload_is_never_pickled():
    # forked ranks inherit the payload, so one that cannot pickle runs too
    assert run_spmd(2, _call_payload_probe, lambda rank: 10 * rank,
                    backend="process") == [0, 10]


def _silent_death_probe(transport, payload):
    if transport.rank == 1:
        os._exit(3)  # no report, no cleanup
    return transport.recv(1)


def test_a_worker_that_dies_without_a_report_is_named_at_once():
    # at the default 120 s timeout rank 0 blocked in recv would wait it
    # out; its pipe's end fails rank 0 at once, and the caller names the
    # dead worker from waitpid when its report pipe ends without a report.
    # The exit is on rank 1: rank 0 runs in the caller, pytest itself
    t0 = time.perf_counter()
    with pytest.raises(TransportError, match="^worker 1 exited with code 3 "
                                             "without a report$"):
        run_spmd(2, _silent_death_probe, None)
    assert time.perf_counter() - t0 < 1.0


def _killed_probe(transport, payload):
    if transport.rank == 1:
        time.sleep(0.3)  # the caller is blocked in recv by then
        os.kill(os.getpid(), signal.SIGKILL)
    return transport.recv(1)


def test_a_worker_killed_while_the_caller_waits_in_recv_is_named():
    # the caller sees the pipe close at once; its own "a peer failed" is
    # secondary and must not mask the dead worker
    t0 = time.perf_counter()
    with pytest.raises(TransportError, match="^worker 1 exited with code -9 "
                                             "without a report$"):
        run_spmd(2, _killed_probe, None)
    assert time.perf_counter() - t0 < 1.3


def _cause_and_death_probe(transport, payload):
    if transport.rank == 2:
        raise RuntimeError("cause")
    if transport.rank == 1:
        try:
            transport.recv(2)
        except TransportError:  # rank 2 has failed: die without a report
            os._exit(4)
    return transport.recv(1)


def test_the_cause_is_named_beside_a_worker_that_died_after_it():
    # rank 1 dies, unreported, only once rank 2 has failed, and rank 0
    # fails on rank 1's end: the cause is raised, never "a peer failed"
    # nor rank 1's death
    for _ in range(10):
        t0 = time.perf_counter()
        with pytest.raises(TransportError) as err:
            run_spmd(3, _cause_and_death_probe, None,
                     timeout=30.0)
        assert str(err.value) == "worker 2 failed: RuntimeError: cause"
        assert time.perf_counter() - t0 < 2.5


ORPHAN = """
import os, sys, time
from pintmg.runtime import run_spmd

def fn(transport, path):
    if transport.rank == 1:
        with open(path + ".part", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(path + ".part", path)
        return transport.recv(0)  # rank 0 never sends
    deadline = time.monotonic() + 10.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(3)  # the caller dies, its worker blocked in recv

run_spmd(2, fn, sys.argv[1], timeout=20.0)
"""


def _gone(pid):
    """Whether pid has exited (a zombie not yet reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def test_workers_stop_when_their_caller_dies(tmp_path):
    # rank 0 runs in the caller, so its os._exit kills the caller; rank 1
    # must stop at once rather than wait out its 20 s recv timeout
    pid_file = tmp_path / "rank1.pid"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(pintmg.__file__).parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    with open(tmp_path / "stderr", "w") as err:
        caller = subprocess.Popen(
            [sys.executable, "-c", ORPHAN, str(pid_file)], env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        assert caller.wait(timeout=30) == 3, (
            tmp_path / "stderr").read_text()
    died = time.monotonic()
    pid = int(pid_file.read_text())
    while not _gone(pid) and time.monotonic() - died < 1.0:
        time.sleep(0.01)
    assert _gone(pid), "rank 1 outlived its caller by more than 1 s"


def _thread_count_probe(transport, payload):
    return threading.active_count()


def test_a_process_run_starts_no_helper_thread():
    before = threading.active_count()
    counts = run_spmd(2, _thread_count_probe, None)
    assert counts[0] == before
    assert threading.active_count() == before


def _whereabouts_probe(transport, payload):
    return os.getpid(), threading.get_ident(), payload


@pytest.mark.parametrize("caller", CALLERS)
def test_rank_zero_runs_in_the_caller(caller):
    payload = ["not copied"]
    here, results = from_caller(caller, lambda: (
        (os.getpid(), threading.get_ident()),
        run_spmd(2, _whereabouts_probe, payload)))
    assert results[0][:2] == here
    assert results[0][2] is payload
    assert results[1][:2] != results[0][:2] and results[1][2] == payload


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


def _ranges(points_of):
    """Each rank's points, consecutive ones, as a [start, stop) range."""
    out = []
    for js in points_of:
        lo, hi = (min(js), max(js) + 1) if js else (0, 0)
        assert sorted(js) == list(range(lo, hi))
        out.append((lo, hi))
    return out


def _route_probe(transport, payload):
    """route itself: rank w holds the rows of the points owned[w] and
    takes the points that dest maps to w."""
    owned, dest = payload
    sent = _ranges(owned)
    received = _ranges([[j for j in dest if dest[j] == w]
                        for w in range(transport.size)])
    lo, hi = sent[transport.rank]
    got = route(
        transport,
        np.array([_big(j) for j in range(lo, hi)]).reshape(hi - lo, BIG),
        sent, received)
    return {received[transport.rank][0] + q: (row.size, float(row[-1]))
            for q, row in enumerate(got)}


def _route_case(p, shape):
    if shape == "triangle":  # 0 writes to 1 and 2, 1 writes to 2
        return [[1, 2], [3], []], {1: 1, 2: 2, 3: 2}
    owned = [[3 * w + 1, 3 * w + 2, 3 * w + 3] for w in range(p)]
    owner = {j: w for w, js in enumerate(owned) for j in js}
    if shape == "gather":  # every rank's points go to rank 0
        return owned, {j: 0 for j in owner}
    if shape == "scatter":  # rank 0's points go to each rank
        return [sorted(owner)] + [[]] * (p - 1), owner
    if shape == "right":  # each rank's last item goes right
        return owned, {j: owner[min(j + 1, 3 * p)] for j in owner}
    return owned, {j: owner[max(j - 1, 1)] for j in owner}  # first goes left


def _run_big(p, probe, payload, caller):
    t0 = time.perf_counter()
    results = from_caller(
        caller, lambda: run_spmd(p, probe, payload, timeout=5.0))
    assert time.perf_counter() - t0 < 4.0
    return results


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("p", [2, 3])
def test_large_boundary_exchange(p, caller):
    results = _run_big(p, _exchange_probe, None, caller)
    assert results == [None] + [float(w) for w in range(p - 1)]


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("p,shape", [
    (2, "right"), (2, "left"), (2, "gather"), (2, "scatter"), (3, "right"),
    (3, "left"), (3, "triangle"), (3, "gather"), (3, "scatter")])
def test_large_route(p, shape, caller):
    owned, dest = _route_case(p, shape)
    results = _run_big(p, _route_probe, (owned, dest), caller)
    assert results == [{j: (BIG, float(j)) for j in dest if dest[j] == w}
                       for w in range(p)]


def _blocked_writer_probe(transport, payload):
    if transport.rank == 1:
        raise RuntimeError("reader gone")
    transport.send(1, _big(0))  # more than the pipe holds: blocks


@pytest.mark.parametrize("caller", CALLERS)
def test_writer_blocked_on_a_failed_reader_is_released(caller):
    t0 = time.perf_counter()
    with pytest.raises(TransportError,
                       match="^worker 1 failed: RuntimeError: reader gone$"):
        from_caller(caller, lambda: run_spmd(
            2, _blocked_writer_probe, None, timeout=30.0))
    assert time.perf_counter() - t0 < 2.5


@pytest.mark.parametrize("caller", CALLERS)
def test_run_spmd_leaves_no_descriptor_open(caller):
    from_caller(caller, lambda: run_spmd(3, _echo_pattern, None))
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        from_caller(caller, lambda: run_spmd(3, _echo_pattern, None))
    assert len(os.listdir("/proc/self/fd")) == before
