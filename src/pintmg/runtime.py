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
("process", for scaling runs).  Both backends take their queues, event
and worker class from one context and share everything else: one inbox
per rank (send/recv with per-pair FIFO order and value semantics), one
failure event, and one report queue on which each worker puts exactly one
(rank, error_text, result).  On the process backend a worker pickles
its result itself, so a result that cannot be pickled is reported as
that worker's failure.  The driver raises the first failure report as
TransportError("worker <rank> failed: <Type>: <message>").  Only the
driver sets the failure event, after it holds that report, so peers
blocked in recv stop within one poll and their "a peer failed" is never
reported ahead of the cause.  A single worker runs in-process on a
NullTransport.
"""

from __future__ import annotations

import copy
import multiprocessing
import operator
import pickle
import queue
import threading
from bisect import bisect_right

from .errors import TransportError

DEFAULT_TIMEOUT = 120.0
TRANSPORTS = ("thread", "process")


class Decomposition:
    """Ownership of one level's C-intervals across n_workers ranks."""

    def __init__(self, splitting, n_workers):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.splitting = splitting
        self.n_workers = n_workers
        k = splitting.n_intervals
        base, rem = divmod(k, n_workers)
        self._n_units = [base + 1 if w < rem else base
                         for w in range(n_workers)]
        self._first_unit = [0] * n_workers
        for w in range(1, n_workers):
            self._first_unit[w] = self._first_unit[w - 1] + self._n_units[w - 1]
        self._ends = [f + n for f, n in zip(self._first_unit, self._n_units)]
        self._last_rank = max(
            (w for w in range(n_workers) if self._n_units[w] > 0), default=0)

    def n_units(self, rank):
        return self._n_units[rank]

    def first_unit(self, rank):
        return self._first_unit[rank]

    def unit_owner(self, unit):
        """Rank whose unit range contains the given global unit index."""
        if not 0 <= unit < self.splitting.n_intervals:
            raise ValueError(f"unit {unit} out of range")
        return bisect_right(self._ends, unit)

    def point_owner(self, i):
        """Rank owning point i >= 1: the owner of the unit it closes or
        lies inside, the F-tail going with the last unit."""
        k = self.splitting.n_intervals
        if k == 0:
            return 0
        return self.unit_owner(min((i - 1) // self.splitting.factor, k - 1))

    def is_empty(self, rank):
        return self._n_units[rank] == 0 and not (
            rank == 0 and self.splitting.n_intervals == 0)

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
        """Closest lower active rank, or None for the first active one."""
        for w in range(rank - 1, -1, -1):
            if not self.is_empty(w):
                return w
        return None

    def right_neighbor(self, rank):
        for w in range(rank + 1, self.n_workers):
            if not self.is_empty(w):
                return w
        return None


# --- transports ---------------------------------------------------------------

class NullTransport:
    """Single worker: no peers to talk to."""

    rank = 0
    size = 1

    def send(self, dst, payload):
        raise TransportError("no peers in a single-worker run")

    def recv(self, src):
        raise TransportError("no peers in a single-worker run")


class _InboxTransport:
    """One inbox per rank (thread or multiprocessing queues), (src,
    payload) messages, out-of-order arrivals stashed per source."""

    def __init__(self, rank, size, inboxes, failure, timeout):
        self.rank = rank
        self.size = size
        self._inboxes = inboxes
        self._stash = {}
        self._failure = failure
        self._timeout = timeout

    def send(self, dst, payload):
        if not 0 <= dst < self.size or dst == self.rank:
            raise TransportError(f"rank {self.rank} cannot send to {dst}")
        # snapshot at send time: thread queues pass references and
        # multiprocessing queues pickle lazily in a feeder thread, so
        # without this the sender could mutate a message in flight
        self._inboxes[dst].put((self.rank, copy.deepcopy(payload)))

    def recv(self, src):
        if not 0 <= src < self.size or src == self.rank:
            raise TransportError(f"rank {self.rank} cannot recv from {src}")
        stash = self._stash.get(src)
        if stash:
            return stash.pop(0)
        waited = 0.0
        while not self._failure.is_set():
            try:
                sender, payload = self._inboxes[self.rank].get(timeout=0.2)
            except queue.Empty:
                waited += 0.2
                if waited >= self._timeout:
                    raise TransportError(
                        f"rank {self.rank} timed out waiting for {src}")
                continue
            if sender == src:
                return payload
            self._stash.setdefault(sender, []).append(payload)
        raise TransportError(f"rank {self.rank}: a peer failed")


# --- collectives ----------------------------------------------------------------

def allreduce(transport, value, op):
    """Fold the per-worker values with op in ascending rank order on rank
    0 and share the result; every rank returns the same value."""
    value = float(value)
    if transport.size == 1:
        return value
    if transport.rank == 0:
        for src in range(1, transport.size):
            value = op(value, float(transport.recv(src)))
        for dst in range(1, transport.size):
            transport.send(dst, value)
        return value
    transport.send(0, value)
    return float(transport.recv(0))


def reduce_norm(transport, local_sum_sq):
    """Square root of the rank-ascending sum of partial sums of squares."""
    return allreduce(transport, local_sum_sq, operator.add) ** 0.5


def _max_keeping_nan(a, b):
    """max(a, b), except that a NaN on either side wins."""
    return b if b > a or b != b else a


def reduce_max(transport, local_value):
    return allreduce(transport, local_value, _max_keeping_nan)


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


# --- SPMD driver ------------------------------------------------------------------

def _worker(rank, size, fn, payload, inboxes, failure, reports, timeout,
            encode):
    transport = _InboxTransport(rank, size, inboxes, failure, timeout)
    try:
        reports.put((rank, None, encode(fn(transport, payload))))
    except BaseException as e:  # whatever ends fn, one report goes out
        reports.put((rank, f"{type(e).__name__}: {e}", None))


def _as_is(result):
    return result


def run_spmd(n_workers, fn, payload, backend="thread",
             timeout=DEFAULT_TIMEOUT):
    """Run fn(transport, payload) on n_workers ranks; returns the per-rank
    results, raising the first worker failure as a TransportError.  On
    the process backend fn, payload and results must be picklable."""
    if backend not in TRANSPORTS:
        raise ValueError(f"unknown backend {backend!r}; use one of {TRANSPORTS}")
    if n_workers == 1:
        return [fn(NullTransport(), payload)]
    if backend == "thread":
        Queue, Event, Worker = queue.Queue, threading.Event, threading.Thread
        encode = decode = _as_is
    else:
        pickle.dumps(payload)  # fail fast with a clear origin
        ctx = multiprocessing.get_context("fork")
        Queue, Event, Worker = ctx.Queue, ctx.Event, ctx.Process
        # pickled in the worker: the queue's feeder thread would drop an
        # unpicklable result and leave the driver waiting for it
        encode, decode = pickle.dumps, pickle.loads
    inboxes = [Queue() for _ in range(n_workers)]
    failure, reports = Event(), Queue()
    workers = [Worker(target=_worker, daemon=True,
                      args=(w, n_workers, fn, payload, inboxes, failure,
                            reports, timeout, encode))
               for w in range(n_workers)]
    for w in workers:
        w.start()
    results = [None] * n_workers
    try:
        for _ in range(n_workers):
            try:
                rank, error, result = reports.get(timeout=timeout + 10.0)
            except queue.Empty:
                raise TransportError("workers did not report back") from None
            if error is not None:
                raise TransportError(f"worker {rank} failed: {error}")
            results[rank] = decode(result)
    finally:
        failure.set()
        for w in workers:
            w.join(timeout=5.0)
            if w.is_alive() and backend == "process":
                w.terminate()
    return results
