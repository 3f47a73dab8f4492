"""Run a call with CPython's cyclic garbage collector paused."""

from __future__ import annotations

import gc
from functools import wraps


def paused(fn):
    """Run ``fn`` with the cyclic garbage collector disabled.

    CPython starts a collector run whenever the containers allocated since
    the last run, less those freed, pass a threshold (700 by default). It
    counts allocations, not cycles: every tuple, list and dict counts. The
    solve and verify layers build such containers per edge and no reference
    cycle among them, so reference counting frees all their garbage, and
    each run would only walk every live container to find nothing to free.

    The pause is process-wide: while the call runs, the cyclic garbage of
    every thread waits until it returns. A caller that has already disabled
    the collector keeps it disabled, so decorated calls nest. This is the
    device of Mercurial's ``util.nogc``.
    """

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return wrapper
