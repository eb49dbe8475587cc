"""Contiguous chunks of a loop, one per CPU, each on its own thread.

The loop split here is numpy calls that release the GIL (a reduction over
a box), each writing rows of the caller's output that no other chunk
writes.  Every row is computed by the same numpy calls whatever the
number of chunks, so the bytes are too.  Only private workers run off the
main thread.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def cpu_count():
    """CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_chunks(n, worker):
    """worker(start, stop) over range(n), split into one contiguous chunk per CPU.

    There are min(cpu_count(), n) chunks, none empty, or one chunk
    worker(0, n) when that is less than 2.  One chunk runs inline.
    Otherwise each runs on a thread of a pool made for this call, under
    the caller's np.geterr(), and every chunk has finished before the
    first exception, in chunk order, is raised or this returns.
    """
    count = min(cpu_count(), n)
    if count < 2:
        worker(0, n)
        return
    err = np.geterr()

    def chunk(start, stop):
        with np.errstate(**err):
            worker(start, stop)

    bounds = [n * i // count for i in range(count + 1)]
    with ThreadPoolExecutor(count) as pool:
        futures = [pool.submit(chunk, a, b) for a, b in zip(bounds, bounds[1:])]
    for future in futures:
        future.result()
