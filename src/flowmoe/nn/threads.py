"""The one worker thread: kernels split in two fixed halves.

A kernel splits its work into two halves whose bounds depend only on the
operand shapes, never on the CPU count. With more than one usable CPU the
second half runs on a single lazily started worker thread while the first
runs inline; with one CPU both run inline, one after the other. Every
output element is computed by the same numpy call on the same operands
whichever thread runs it, so the bits do not depend on the worker.

The worker runs numpy only, in a copy of the caller's context, so it sees
the caller's `np.errstate` (a context variable since numpy 2.0).
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import os
import threading

import numpy as np

# Every dimension of a 2-D product from which `matmul` splits it. Smaller
# halves cost more in hand-off than they save.
SPLIT_MIN = 64

_UNSET = object()
_pool = _UNSET            # ThreadPoolExecutor, or None on one CPU
_lock = threading.Lock()


def _reset_after_fork():
    global _pool, _lock
    _pool, _lock = _UNSET, threading.Lock()   # the worker is not forked


os.register_at_fork(after_in_child=_reset_after_fork)


def _worker():
    global _pool
    with _lock:
        if _pool is _UNSET:
            _pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="flowmoe-worker") \
                if len(os.sched_getaffinity(0)) > 1 else None
        return _pool


def both(first, second):
    """(first(), second()): `second` on the worker, `first` inline; if the
    worker has not started `second` when `first` returns (the other CPU
    is busy), it runs inline too. Neither is running when this returns or
    raises; when `first` raises, `second` may not have run."""
    pool = _worker()
    if pool is None:
        return first(), second()
    future = pool.submit(contextvars.copy_context().run, second)
    try:
        result = first()
    except BaseException:
        if not future.cancel():
            concurrent.futures.wait([future])
        raise
    if future.cancel():
        return result, second()
    return result, future.result()


def matmul(a, b, out=None):
    """The 2-D product a @ b, into `out` when given. From `SPLIT_MIN` in
    every dimension, each half of the output rows (`m // 2`) is its own
    call; a row of a product of five or more rows is bitwise the same
    whatever the row count (tests/test_threads.py checks this BLAS)."""
    (m, k), n = a.shape, b.shape[1]
    if min(m, k, n) < SPLIT_MIN:
        return a @ b if out is None else np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    h = m // 2
    both(lambda: np.matmul(a[:h], b, out=out[:h]),
         lambda: np.matmul(a[h:], b, out=out[h:]))
    return out


def in_halves(sizes, run, works):
    """run(lo, hi, work) over the blocks lo..hi-1 of these element counts.
    From two blocks on they are cut in two runs of about equal element
    count, the first inline and the second on the worker (`both`), each
    with its own work buffers from `works`; the cut depends on `sizes`
    only."""
    if len(sizes) < 2:
        run(0, len(sizes), works[0])
        return
    half, total = sum(sizes) / 2, 0
    for cut, n in enumerate(sizes[:-1], 1):
        total += n
        if total >= half:
            break
    both(lambda: run(0, cut, works[0]),
         lambda: run(cut, len(sizes), works[1]))
