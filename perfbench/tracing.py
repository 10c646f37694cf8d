"""Outside-in counting and tracing of the solver's layers.

The solver is handed proxies in place of its collaborators: the problem
(``step``, and its ``spatial`` hierarchy's ``restrict_state`` and
``prolong_error``), the PWM source (``value``, ``smooth_value``) and the
transport that ``run_spmd`` gives each rank (``send``, ``recv``).  A
proxy counts its calls and records one span per call.  The solver itself
is not modified.

A span is (name, start, end, parent, tag) in perf_counter seconds, with
``parent`` the index of the enclosing span on the same rank (-1 at the
top) and ``tag`` the time level of a step.  Self time is a span's length
minus the length of its direct children.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder of one rank."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def open(self, name, tag=-1, start=None):
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter() if start is None else start,
                           None, self._stack[-2], tag])

    def close(self, end=None):
        self.spans[self._stack.pop()][2] = (perf_counter() if end is None
                                            else end)


class Counts:
    """Call counts of one rank, gathered at the proxy boundaries."""

    def __init__(self, n_levels):
        self.step_calls = [0] * n_levels
        self.smooth_step_calls = 0
        self.newton_iters = 0
        self.excitation_calls = 0
        self.excitation_times = set()
        self.restrict_calls = 0
        self.prolong_calls = 0
        self.messages = 0
        self.bytes = 0

    def summary(self):
        """Plain dict for the trip back from a worker process."""
        out = dict(self.__dict__)
        out["excitation_times"] = len(self.excitation_times)
        return out


class _Proxy:
    """Forwards every attribute it does not wrap to the wrapped object."""

    def __init__(self, inner, counts, tracer):
        self._inner = inner
        self._counts = counts
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ExcitationProxy(_Proxy):
    def _call(self, fn, t, smooth):
        c = self._counts
        c.excitation_calls += 1
        c.excitation_times.add((t, smooth))
        tr = self._tracer
        tr.open("excitation.smooth_value" if smooth else "excitation.value")
        out = fn(t)
        tr.close()
        return out

    def value(self, t):
        return self._call(self._inner.value, t, False)

    def smooth_value(self, t):
        return self._call(self._inner.smooth_value, t, True)


class SpatialProxy(_Proxy):
    def restrict_state(self, state):
        self._counts.restrict_calls += 1
        return self._timed("spatial.restrict", self._inner.restrict_state,
                           state)

    def prolong_error(self, state):
        self._counts.prolong_calls += 1
        return self._timed("spatial.prolong", self._inner.prolong_error,
                           state)

    def _timed(self, name, fn, state):
        tr = self._tracer
        tr.open(name)
        out = fn(state)
        tr.close()
        return out


class ProblemProxy(_Proxy):
    """Counts steps per time level; the level is read from the step size,
    ``level_dts`` holding each level's nominal step."""

    def __init__(self, inner, counts, tracer, level_dts, newton):
        super().__init__(inner, counts, tracer)
        self.spatial = SpatialProxy(inner.spatial, counts, tracer)
        self._level_dts = level_dts
        self._levels = {}
        self._newton = newton

    def _level(self, dt):
        level = self._levels.get(dt)
        if level is None:
            level = min(range(len(self._level_dts)),
                        key=lambda l: abs(math.log(dt / self._level_dts[l])))
            self._levels[dt] = level
        return level

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        c = self._counts
        level = self._level(t_next - t_prev)
        c.step_calls[level] += 1
        if smooth:
            c.smooth_step_calls += 1
        tr = self._tracer
        tr.open("problems.step", level)
        out = self._inner.step(u_prev, t_prev, t_next, spatial_level,
                               guess=guess, smooth=smooth)
        tr.close()
        if self._newton:
            c.newton_iters += out[1].iterations
        return out


class TransportProxy(_Proxy):
    """Counts messages and their pickled size (computed here with the
    highest protocol, not read off the wire)."""

    def send(self, dst, payload):
        c = self._counts
        c.messages += 1
        tr = self._tracer
        c.bytes += len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        tr.open("runtime.send")
        try:
            return self._inner.send(dst, payload)
        finally:
            tr.close()

    def recv(self, src):
        tr = self._tracer
        tr.open("runtime.recv")
        try:
            return self._inner.recv(src)
        finally:
            tr.close()


def self_times(spans):
    """Per-name self seconds and per-name total seconds of one rank."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    own, total = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - child[i]
        total[name] += end - start
    return own, total


def level_step_seconds(spans, level):
    """Inclusive seconds and count of the problem steps on one time level."""
    seconds, count = 0.0, 0
    for name, start, end, _, tag in spans:
        if name == "problems.step" and tag == level:
            seconds += end - start
            count += 1
    return seconds, count
