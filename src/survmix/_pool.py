"""The pool of at most two threads that independent blocks of work run on.

numpy releases the GIL in its large loops, so two threads overlap on two
CPUs; with one usable CPU, or one item, the calling thread runs the items.
Each item runs in a copy of the caller's context, on either path: numpy's
errstate set around a call holds in the items as it does in the caller, and
numpy state an item sets does not reach the caller.
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor


def usable_cpus():
    """The number of CPUs this process may run on, read at each call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads(n_items):
    """The number of threads map runs n_items items on: at most two, one per
    usable CPU."""
    return min(2, n_items, usable_cpus())


def map(fn, items, name):
    """[fn(item) for item in items] on threads(len(items)) threads named
    `name`; with fewer than two, in order in the calling thread.

    The first item, in order, whose call raises has its error raised once the
    items before it end; the items not yet started are cancelled. Every
    thread is joined before this returns or raises.
    """
    context = contextvars.copy_context()

    def run(item):
        # a copy per item: one context cannot be entered by two threads at
        # once, and no item sees the state another item set
        return context.copy().run(fn, item)

    workers = threads(len(items))
    if workers < 2:
        return [run(item) for item in items]
    with ThreadPoolExecutor(workers, thread_name_prefix=name) as pool:
        return list(pool.map(run, items))
