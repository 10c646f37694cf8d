"""The two kinds of caller a run may be started from.

``run_spmd`` forks ranks 1..p-1 from whichever thread calls it and runs
rank 0 in that thread.  The "process" caller is the process's main
thread; the "thread" caller is a plain ``threading.Thread``, as when a
library user solves from a worker thread.  Both must give the same
results and name the same failures.
"""

import threading

CALLERS = ["process", "thread"]


def from_caller(caller, fn):
    """Return fn(), called in the main thread or in a new thread, and
    raise what it raised."""
    if caller == "process":
        return fn()
    box = {}

    def call():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=call)
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["result"]
