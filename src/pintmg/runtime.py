"""Worker decomposition, message transport and the SPMD driver.

Time points are dealt out as whole C-intervals: unit k of a level is the
half-open point run (c_k, c_{k+1}] ending at its closing C-point, so a
worker boundary never splits an F-run and the state a worker needs from
outside is exactly the C-point immediately left of its range.  Unit
counts are balanced with the remainder going to the lowest ranks, which
keeps worker 0 owner of index 0 (the anchor) on every level; ranks beyond
the unit count idle on that level.

One driver, run_spmd, runs fn(transport, payload) on every rank, as
threads (backend "thread", used by the test suite) or as forked processes
("process", for scaling runs); only the worker class, the failure event
and the report queue differ by backend.  Each ordered rank pair has a
one-way pipe: the sender pickles and writes a payload itself (value
semantics, no helper thread in the way), the receiver reads only its
source's pipe (FIFO per pair).  Each worker puts one (rank, error_text,
result) report, a process worker pickling its result itself so that an
unpicklable one is its failure.  The driver raises the first failure
report as TransportError("worker <rank> failed: <Type>: <message>"), or,
within a 0.1 s poll, a forked worker that exited nonzero without one
("worker <rank> exited with code <code> without a report"), and only
then sets the failure event (peers blocked in recv stop within one poll,
never reporting ahead of the cause) and closes its pipe ends (a writer
blocked on a failed reader gets BrokenPipeError).  A forked worker
closes the ends that are not its own.  A single worker runs in-process
on a NullTransport.

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
residual squares and the loss change in a single one, so a measuring
sweep makes one gather and one scatter at p >= 2.
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
from itertools import chain

from .errors import TransportError

DEFAULT_TIMEOUT = 120.0
TRANSPORTS = ("thread", "process")


class Decomposition:
    """Ownership of one level's C-intervals across n_workers ranks."""

    def __init__(self, splitting, n_workers):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.splitting = splitting
        k = splitting.n_intervals
        base, rem = divmod(k, n_workers)
        self._n_units = [base + 1 if w < rem else base
                         for w in range(n_workers)]
        self._first_unit = [0] * n_workers
        for w in range(1, n_workers):
            self._first_unit[w] = self._first_unit[w - 1] + self._n_units[w - 1]
        self._last_rank = max(
            (w for w in range(n_workers) if self._n_units[w] > 0), default=0)

    def n_units(self, rank):
        return self._n_units[rank]

    def first_unit(self, rank):
        return self._first_unit[rank]

    def is_empty(self, rank):
        """Active ranks are a prefix: rank 0 (which keeps a level with no
        C-interval) up to the last rank dealt a unit."""
        return rank > self._last_rank

    def c_points(self, rank):
        """Global indices of the closing C-points of rank's units."""
        c = self.splitting.c_indices
        first = self._first_unit[rank]
        return c[first + 1: first + 1 + self._n_units[rank]]

    def left_boundary_index(self, rank):
        """The C-point immediately left of rank's owned range."""
        return int(self.splitting.c_indices[self._first_unit[rank]])

    def owned_range(self, rank):
        """Owned points as [start, stop); the last active rank also owns
        any F-tail trailing the final C-point."""
        if self.is_empty(rank):
            return (0, 0)
        c = self.splitting.c_indices
        lo = self.left_boundary_index(rank) + 1
        if self.splitting.n_intervals == 0:
            return (1, self.splitting.n_points) if rank == 0 else (0, 0)
        hi = int(c[self._first_unit[rank] + self._n_units[rank]]) + 1
        if rank == self._last_rank:
            hi = self.splitting.n_points
        return (lo, hi)

    def left_neighbor(self, rank):
        """The active rank left of an active rank, None for rank 0."""
        return rank - 1 if rank > 0 else None

    def right_neighbor(self, rank):
        """The active rank right of an active rank, None for the last."""
        return rank + 1 if rank < self._last_rank else None


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
        self._out[dst].send_bytes(
            pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))

    def recv(self, src):
        pipe = self._in.get(src)
        if pipe is None:
            raise TransportError(f"rank {self.rank} cannot recv from {src}")
        for _ in range(max(1, math.ceil(self._timeout / 0.2))):
            if self._failure.is_set():
                raise TransportError(f"rank {self.rank}: a peer failed")
            if pipe.poll(0.2):
                return pickle.loads(pipe.recv_bytes())
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


def reduce_norm(transport, squares, value=None):
    """(norm, top) from one allreduce: the root of every rank's squares
    added one by one from 0.0 in rank order, as one worker adds them
    (sum() would compensate on 3.12+), and the max of every rank's value
    (None without), a NaN from any rank winning."""
    def fold(parts):
        terms, values = zip(*parts)
        return (functools.reduce(operator.add, chain(*terms), 0.0) ** 0.5,
                None if value is None else functools.reduce(
                    lambda a, b: b if b > a or b != b else a, values))
    return allreduce(transport, ([float(s) for s in squares], value), fold)


# --- SPMD driver ------------------------------------------------------------------

def _worker(rank, size, fn, payload, pipes, failure, reports, timeout,
            forked):
    if forked:  # the fork copied every pipe end: keep only this rank's
        for (src, dst), (reader, writer) in pipes.items():
            if dst != rank:
                reader.close()
            if src != rank:
                writer.close()
    transport = _PipeTransport(rank, size, pipes, failure, timeout)
    try:
        result = fn(transport, payload)
        reports.put((rank, None, pickle.dumps(result) if forked else result))
    except BaseException as e:  # whatever ends fn, one report goes out
        reports.put((rank, f"{type(e).__name__}: {e}", None))


def run_spmd(n_workers, fn, payload, backend="thread",
             timeout=DEFAULT_TIMEOUT):
    """Run fn(transport, payload) on n_workers ranks; returns the per-rank
    results, raising the first worker failure as a TransportError.  On
    the process backend fn, payload and results must be picklable."""
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
    workers = [Worker(target=_worker, daemon=True,
                      args=(w, n_workers, fn, payload, pipes, failure,
                            reports, timeout, forked))
               for w in range(n_workers)]
    for w in workers:
        w.start()
    results, waiting = [None] * n_workers, set(range(n_workers))
    deadline = time.monotonic() + timeout + 10.0
    try:
        while waiting:
            # exit codes are read before the poll: a worker gone by then
            # has written whatever report it made
            dead = [(r, workers[r].exitcode) for r in sorted(waiting)
                    if forked and workers[r].exitcode]
            try:
                rank, error, result = reports.get(timeout=0.1)
            except queue.Empty:
                if dead:
                    raise TransportError(
                        "worker {} exited with code {} without a report"
                        .format(*dead[0])) from None
                if time.monotonic() > deadline:
                    raise TransportError(
                        "workers did not report back") from None
                continue
            if error is not None:
                raise TransportError(f"worker {rank} failed: {error}")
            waiting.discard(rank)
            results[rank] = pickle.loads(result) if forked else result
            deadline = time.monotonic() + timeout + 10.0
    finally:
        failure.set()
        # read ends first: blocked writers fail while their end is open
        for ends in zip(*pipes.values()):
            for end in ends:
                end.close()
        for w in workers:
            w.join(timeout=5.0)
            if w.is_alive() and forked:
                w.terminate()
    return results
