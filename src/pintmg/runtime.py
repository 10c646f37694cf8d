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
in the calling thread, ranks 1 .. p - 1 as threads (backend "thread",
used by the test suite) or as forked processes ("process", for scaling
runs); only the worker class, the failure event and the report queue
differ by backend.  Each ordered rank pair has a one-way pipe: the
sender pickles and writes a payload itself (value semantics, no helper
thread in the way), the receiver reads only its source's pipe (FIFO per
pair).  Each worker puts one (rank, error_text, result) report, a
process worker pickling its result itself so that an unpicklable one is
its failure; rank 0's result is returned as fn returned it.  A monitor
thread, started after the last fork, takes the reports while rank 0
computes.  The first failure (a failure report, a forked worker that
exited nonzero without one within a 0.1 s poll, or rank 0's own
exception) is raised as TransportError("worker <rank> failed: <Type>:
<message>" or "... exited with code <code> without a report"); only then
is the failure event set (ranks blocked in recv stop within one poll,
never reporting ahead of the cause) and are the pipes closed (a writer
blocked on a failed reader gets BrokenPipeError).  A rank whose peer's
pipe closes under it waits for that event before it fails.  The caller
after forking, like each forked worker, closes the pipe ends that are
not its own.  Nothing interrupts rank 0's fn: it stops at its next send
or recv, and waits at most the timeout in a recv, as any rank does.  A
single worker runs in-process on a NullTransport.

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
allreduce is one gather and one scatter, and reduce_norm carries the
residual squares, the loss change and any further squares (the first
sweep's C-updates) in a single one, so a measuring sweep makes one
gather and one scatter at p >= 2.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import operator
import pickle
import queue
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


class _PipeTransport:
    """Writes to each peer on this rank's own pipe to it and reads from
    each peer only on that peer's pipe to this rank."""

    def __init__(self, rank, size, pipes, failure, timeout):
        self.rank, self.size = rank, size
        self._out = {d: pipes[rank, d][1] for d in range(size) if d != rank}
        self._in = {s: pipes[s, rank][0] for s in range(size) if s != rank}
        self._failure, self._timeout = failure, timeout

    def send(self, dst, payload):
        if dst not in self._out:
            raise TransportError(f"rank {self.rank} cannot send to {dst}")
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        try:
            self._out[dst].send_bytes(data)
        except OSError:  # the reader ended: wait to hear why
            self._failure.wait(self._timeout)
            raise TransportError(f"rank {self.rank}: a peer failed") from None

    def recv(self, src):
        pipe = self._in.get(src)
        if pipe is None:
            raise TransportError(f"rank {self.rank} cannot recv from {src}")
        for _ in range(max(1, math.ceil(self._timeout / 0.2))):
            if self._failure.is_set():
                raise TransportError(f"rank {self.rank}: a peer failed")
            try:
                if pipe.poll(0.2):
                    return pickle.loads(pipe.recv_bytes())
            except (EOFError, OSError):  # the writer ended: wait to hear why
                self._failure.wait(0.2)
        raise TransportError(f"rank {self.rank} timed out waiting for {src}")


# --- collectives ----------------------------------------------------------------

def gather_to_root(transport, payload):
    """Rank-ordered gather; returns the list on rank 0, None elsewhere."""
    if transport.size == 1:
        return [payload]
    if transport.rank == 0:
        out = [payload]
        for src in range(1, transport.size):
            out.append(transport.recv(src))
        return out
    transport.send(0, payload)
    return None


def scatter_from_root(transport, items):
    """Inverse of gather: rank 0 deals items[w] to each rank w."""
    if transport.size == 1:
        return items[0]
    if transport.rank == 0:
        if len(items) != transport.size:
            raise TransportError(
                f"scatter needs {transport.size} items, got {len(items)}")
        for dst in range(1, transport.size):
            transport.send(dst, items[dst])
        return items[0]
    return transport.recv(0)


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

def _close_ends(pipes, keep=None):
    """Close every pipe end that is not rank keep's, the read ends first:
    a writer blocked on a failed reader fails while its end is open."""
    for side in (0, 1):
        for pair, ends in pipes.items():
            if pair[1 - side] != keep:
                ends[side].close()


def _worker(rank, size, fn, payload, pipes, failure, reports, timeout,
            forked):
    if forked:  # the fork copied every pipe end: keep only this rank's
        _close_ends(pipes, keep=rank)
    transport = _PipeTransport(rank, size, pipes, failure, timeout)
    try:
        result = fn(transport, payload)
        reports.put((rank, None, pickle.dumps(result) if forked else result))
    except BaseException as e:  # whatever ends fn, one report goes out
        reports.put((rank, f"{type(e).__name__}: {e}", None))


def _monitor(workers, forked, reports, results, failed, failure, pipes,
             timeout):
    """Collect the reports of ranks 1.. until all are in or one fails,
    whose text goes into failed before the failure event and the close."""
    waiting = set(workers)
    deadline = time.monotonic() + timeout + 10.0
    while waiting and not failure.is_set():
        # exit codes are read before the poll: a worker gone by then
        # has written whatever report it made
        dead = [(r, workers[r].exitcode) for r in sorted(waiting)
                if forked and workers[r].exitcode]
        try:
            rank, error, result = reports.get(timeout=0.1)
        except queue.Empty:
            if dead:
                error = ("worker {} exited with code {} without a report"
                         .format(*dead[0]))
            elif time.monotonic() > deadline:
                error = "workers did not report back"
            else:
                continue
        else:
            if error is None:
                waiting.discard(rank)
                results[rank] = pickle.loads(result) if forked else result
                deadline = time.monotonic() + timeout + 10.0
                continue
            error = f"worker {rank} failed: {error}"
        failed.append(error)
        failure.set()
        _close_ends(pipes)


def run_spmd(n_workers, fn, payload, backend="thread",
             timeout=DEFAULT_TIMEOUT):
    """Run fn(transport, payload) on n_workers ranks, rank 0 in the
    calling thread; returns the per-rank results, rank 0's as fn returned
    it, raising the first worker failure as a TransportError.  On the
    process backend fn, payload and the results of ranks 1.. must be
    picklable."""
    if backend not in TRANSPORTS:
        raise ValueError(f"unknown backend {backend!r}; use one of {TRANSPORTS}")
    if n_workers == 1:
        return [fn(NullTransport(), payload)]
    forked = backend == "process"
    if forked:
        pickle.dumps(payload)  # fail fast with a clear origin
        ctx = multiprocessing.get_context("fork")
        Queue, Event, Worker = ctx.Queue, ctx.Event, ctx.Process
    else:
        Queue, Event, Worker = queue.Queue, threading.Event, threading.Thread
    pipes = {(src, dst): multiprocessing.Pipe(duplex=False)
             for src in range(n_workers) for dst in range(n_workers)
             if src != dst}
    failure, reports = Event(), Queue()
    workers = {w: Worker(target=_worker, daemon=True,
                         args=(w, n_workers, fn, payload, pipes, failure,
                               reports, timeout, forked))
               for w in range(1, n_workers)}
    for w in workers.values():
        w.start()
    if forked:
        _close_ends(pipes, keep=0)
    results, failed = [None] * n_workers, []
    monitor = threading.Thread(target=_monitor, daemon=True, args=(
        workers, forked, reports, results, failed, failure, pipes, timeout))
    monitor.start()
    try:
        try:
            results[0] = fn(_PipeTransport(0, n_workers, pipes, failure,
                                           timeout), payload)
        except Exception as e:  # behind any failure the monitor took
            failed.append(f"worker 0 failed: {type(e).__name__}: {e}")
            failure.set()
        monitor.join()
    finally:
        failure.set()
        monitor.join()
        _close_ends(pipes)
        for w in workers.values():
            w.join(timeout=5.0)
            if w.is_alive() and forked:
                w.terminate()
    if failed:
        raise TransportError(failed[0])
    return results
