"""Worker decomposition, message transport and the SPMD driver.

A level is its points and its factor m: C-point j is point j m.  Its
points are dealt out as whole C-intervals, interval j being the
half-open point run ((j - 1) m, j m] ending at its closing C-point, so a
worker boundary never splits an F-run and the state a worker needs from
outside is exactly the C-point immediately left of its range.
Decomposition deals them once into per-rank lists, interval counts
balanced with the remainder going to the lowest ranks, which keeps
worker 0 owner of index 0 (the anchor) on every level; ranks beyond the
interval count idle on that level.

One driver, run_spmd, runs fn(transport, payload) on every rank: rank 0
in the calling thread, ranks 1 .. p - 1 as threads ("thread", used by
the test suite) or os.fork children ("process", for scaling runs), and
no helper thread; a single worker runs on a NullTransport.  Each ordered
rank pair has a one-way os.pipe carrying length-framed pickles (value
semantics, FIFO per pair).  A failing rank stamps its failure on the
monotonic clock and writes a byte to the failure pipe.  A recv polls its
source next to that pipe and, in a forked rank, the liveness pipe, whose
write end only the caller holds, and fails at once as secondary ("rank
<r>: a peer failed") on an event there, on the source's EOF or, in a
send, on EPIPE: so workers stop when a peer fails or their caller dies.
A rank closes its pipe ends as its fn ends, releasing a writer blocked
on it.  A forked rank then writes one report, its failure or its result
pickled within the run, on its own report pipe and calls os._exit; the
caller reads the reports after rank 0's fn, names a rank whose report
pipe ends without one from waitpid ("worker <rank> exited with code
<code> without a report"), and raises the earliest failure that is not
secondary as TransportError("worker <rank> failed: <Type>: <message>").
No forked rank outlives run_spmd, and nothing interrupts rank 0's fn: it
stops at its next send or recv, waiting at most the timeout in a recv.

A pipe write blocks once 64 KiB wait unread, so every message pattern
reads within itself all it writes and finishes even if each write waits
for its reader.  A walk's boundary exchange writes only rightward, so
the writers unwind from the last active rank.  A route between levels
(MgritSolver._route) sends each peer one block of consecutive points,
the writes and reads in ascending first point, one order both ends of
every message follow (a point has one sender and one receiver); writing
all before reading could deadlock from p = 5 (a writes to b, b to c, c
waits for a), although no pair sends both ways.  Gather and scatter only
write to or only read from rank 0, which takes the ranks in order;
allreduce is one gather and one scatter, and reduce_norm carries all a
measuring sweep reduces in a single one.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
import pickle
import select
import signal
import sys
import threading
import time
from itertools import accumulate, chain

from .errors import TransportError

DEFAULT_TIMEOUT = 120.0
TRANSPORTS = ("thread", "process")


class Decomposition:
    """A level of n_points points with factor m, its C-intervals dealt
    across n_workers ranks.  Interval j is the run ((j - 1) m, j m],
    numbered by its closing C-point j m, j = 1 .. (n_points - 1) // m.

    intervals[w] is [first, stop) of rank w's intervals and owned[w] the
    [start, stop) of its points, the F-tail past the last C-point going
    to the last active rank, ``last``.  Ranks 0 .. last are active (rank
    0 even on a level without an interval, owning every point after 0);
    an idle rank owns (0, 0).
    """

    def __init__(self, n_points, factor, n_workers):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        base, rem = divmod((n_points - 1) // factor, n_workers)
        stops = list(accumulate(
            (base + (w < rem) for w in range(n_workers)), initial=1))
        self.intervals = list(zip(stops, stops[1:]))
        self.last = max((w for w, (a, b) in enumerate(self.intervals)
                         if a < b), default=0)
        self.owned = [(0, 0) if w > self.last else (
            (a - 1) * factor + 1,
            n_points if w == self.last else (b - 1) * factor + 1)
            for w, (a, b) in enumerate(self.intervals)]


# --- transports ---------------------------------------------------------------

class NullTransport:
    """Single worker: no peers to talk to."""

    rank = 0
    size = 1

    def send(self, dst, payload):
        raise TransportError("no peers in a single-worker run")

    def recv(self, src):
        raise TransportError("no peers in a single-worker run")


# a rank stopped by another's failure: a TransportError, by name too
_PeerFailed = type("TransportError", (TransportError,),
                   {"secondary": True, "__qualname__": "_PeerFailed"})


def _write_frame(fd, data):
    """Write len(data) in 8 bytes, then data, in one writev if no signal."""
    head = len(data).to_bytes(8, "little")
    sent = os.writev(fd, [head, data])
    for part, skip in ((head, sent), (data, sent - 8)):
        view = memoryview(part)[max(skip, 0):]
        while view:
            view = view[os.write(fd, view):]


def _take(fd, n):
    """n bytes read from fd, None if its writers end first (a frame once
    begun is written whole, so a read within one never hangs)."""
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return buf


def _read_frame(fd):
    head = _take(fd, 8)
    return head and _take(fd, int.from_bytes(head, "little"))


class _PipeTransport:
    """Sends on this rank's pipe to the peer and receives on the peer's
    pipe to this rank; an event on a fd in watch is a peer's failure."""

    def __init__(self, rank, size, pipes, watch, timeout):
        self.rank, self.size = rank, size
        self._out = {d: pipes[rank, d][1] for d in range(size) if d != rank}
        self._in = {s: pipes[s, rank][0] for s in range(size) if s != rank}
        self.fds = {*self._out.values(), *self._in.values()}
        self._polls = {fd: select.poll() for fd in self._in.values()}
        for fd, poll in self._polls.items():
            for f in (fd, *watch):
                poll.register(f, select.POLLIN)
        self._timeout_ms = timeout * 1e3

    def send(self, dst, payload):
        fd = self._out.get(dst)
        if fd is None:
            raise TransportError(f"rank {self.rank} cannot send to {dst}")
        try:
            _write_frame(fd, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:  # the reader ended
            raise _PeerFailed(f"rank {self.rank}: a peer failed") from None

    def recv(self, src):
        fd = self._in.get(src)
        if fd is None:
            raise TransportError(f"rank {self.rank} cannot recv from {src}")
        if not (ready := self._polls[fd].poll(self._timeout_ms)):
            raise TransportError(f"rank {self.rank} timed out waiting for {src}")
        data = None if any(f != fd for f, _ in ready) else _read_frame(fd)
        if data is None:  # a failure, the caller's end or the writer's
            raise _PeerFailed(f"rank {self.rank}: a peer failed")
        return pickle.loads(data)


# --- collectives ----------------------------------------------------------------

def gather_to_root(transport, payload):
    """Rank-ordered gather; returns the list on rank 0, None elsewhere."""
    if transport.rank:
        transport.send(0, payload)
        return None
    return [payload, *(transport.recv(s) for s in range(1, transport.size))]


def scatter_from_root(transport, items):
    """Inverse of gather: rank 0 deals items[w] to each rank w."""
    if transport.rank:
        return transport.recv(0)
    if len(items) != transport.size:
        raise TransportError(
            f"scatter needs {transport.size} items, got {len(items)}")
    for dst in range(1, transport.size):
        transport.send(dst, items[dst])
    return items[0]


def allreduce(transport, value, fold):
    """fold(the values in rank order) on rank 0, shared with every rank."""
    parts = gather_to_root(transport, value)
    return scatter_from_root(
        transport, None if parts is None else [fold(parts)] * transport.size)


def reduce_norm(transport, squares, value=None, *more):
    """(norm, top, *norms) from one allreduce: the root of every rank's
    squares added one by one from 0.0 in rank order, as one worker adds
    them (sum() would compensate on 3.12+), the max of every rank's value
    (None without), a NaN from any rank winning, and the norm of each
    further list of squares, added alike."""
    def fold(parts):
        lists, values = zip(*parts)
        norm, *norms = (
            functools.reduce(operator.add, chain(*terms), 0.0) ** 0.5
            for terms in zip(*lists))
        return (norm, None if value is None else functools.reduce(
            lambda a, b: b if b > a or b != b else a, values), *norms)
    return allreduce(transport, ([[float(s) for s in q]
                                  for q in (squares, *more)], value), fold)


# --- SPMD driver ------------------------------------------------------------------

def _run(fn, payload, transport, failure_w, results, failures,
         catch=BaseException):
    """fn on transport's rank, its result into results or its failure,
    (time, text, secondary), into failures; its pipe ends close after."""
    try:
        results[transport.rank] = fn(transport, payload)
    except catch as e:
        failures.append((time.monotonic(), f"worker {transport.rank} failed: "
                         f"{type(e).__name__}: {e}",
                         getattr(e, "secondary", False)))
        os.write(failure_w, b"!")
    finally:
        for fd in transport.fds:
            os.close(fd)


def _flush_std():
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):
            stream.flush()


def _forked_rank(fn, payload, transport, held, failure, live, report):
    """A forked rank: close the fds in held not its own, run fn (pickling
    the result within, so an unpicklable one fails it), report, exit."""
    code, results, failures = 1, {}, []
    try:
        for fd in held - transport.fds - {*failure, live[0], report[1]}:
            os.close(fd)
        _run(lambda t, p: pickle.dumps(fn(t, p), pickle.HIGHEST_PROTOCOL),
             payload, transport, failure[1], results, failures)
        _flush_std()
        _write_frame(report[1], pickle.dumps(
            (failures, results.get(transport.rank))))
        code = 0
    finally:
        os._exit(code)


def _collect(reports, pids, threads, results, failures, failure_w, timeout):
    """Wait for the thread ranks, and take the forked ranks' reports as
    they come, naming a rank whose report pipe ends without one."""
    for t in threads:
        t.join(timeout + 10.0)
    waiting = {fd: rank for rank, (fd, _) in reports.items()}
    poll = select.poll()
    for fd in waiting:
        poll.register(fd, select.POLLIN)
    while waiting and (ready := poll.poll((timeout + 10.0) * 1e3)):
        for fd, _ in ready:
            rank = waiting.pop(fd)
            poll.unregister(fd)
            data = _read_frame(fd)
            if data is not None:
                failed, result = pickle.loads(data)
                failures.extend(failed)
                results[rank] = result and pickle.loads(result)
                continue
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(rank), 0)[1])
            failures.append((time.monotonic(), f"worker {rank} exited with "
                             f"code {code} without a report", False))
            os.write(failure_w, b"!")
    if waiting or any(t.is_alive() for t in threads):
        failures.append(
            (time.monotonic(), "workers did not report back", False))


def run_spmd(n_workers, fn, payload, backend="thread",
             timeout=DEFAULT_TIMEOUT):
    """Run fn(transport, payload) on n_workers ranks, rank 0 in the
    calling thread; returns the per-rank results, rank 0's as fn returned
    it, raising the earliest worker failure that no peer's failure caused
    as a TransportError.  On the process backend fn, payload and the
    results of ranks 1.. must be picklable."""
    if backend not in TRANSPORTS:
        raise ValueError(f"unknown backend {backend!r}; use one of {TRANSPORTS}")
    if n_workers == 1:
        return [fn(NullTransport(), payload)]
    forked = backend == "process"
    if forked:
        pickle.dumps(payload)  # fail fast with a clear origin
        _flush_std()  # or each child flushes the caller's buffers again
    pipes = {(src, dst): os.pipe() for src in range(n_workers)
             for dst in range(n_workers) if src != dst}
    failure, live = os.pipe(), os.pipe() if forked else ()
    reports = {r: os.pipe() for r in range(1, n_workers)} if forked else {}
    held = {*chain(*pipes.values(), *reports.values()), *failure, *live}
    results, failures, pids, threads = [None] * n_workers, [], {}, []
    try:
        for rank in range(1, n_workers):
            transport = _PipeTransport(rank, n_workers, pipes,
                                       (failure[0], *live[:1]), timeout)
            if forked:
                pids[rank] = os.fork()
                if pids[rank] == 0:
                    _forked_rank(fn, payload, transport, held, failure,
                                 live, reports[rank])
                continue
            threads.append(threading.Thread(target=_run, daemon=True, args=(
                fn, payload, transport, failure[1], results, failures)))
            threads[-1].start()
            held -= transport.fds
        transport = _PipeTransport(0, n_workers, pipes, failure[:1], timeout)
        held -= transport.fds  # closed as rank 0's fn ends
        if forked:  # the workers' ends are theirs now
            keep = {*failure, live[1], *(fd for fd, _ in reports.values())}
            for fd in held - keep:
                os.close(fd)
            held = keep
        _run(fn, payload, transport, failure[1], results, failures, Exception)
        _collect(reports, pids, threads, results, failures, failure[1],
                 timeout)
    finally:  # stop whatever still runs
        os.write(failure[1], b"!")
        for t in threads:
            t.join(5.0)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in held:
            os.close(fd)
    if failures:  # the earliest that no peer's failure caused
        raise TransportError(min(failures, key=lambda f: (f[2], f[0]))[1])
    return results
