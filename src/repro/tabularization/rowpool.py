"""Row workers for batch table queries: one thread per CPU, one BLAS thread each.

Every op of a table query is row-local (the paper's "embarrassingly
parallel" rows, Sec. V-A), so the rows of one batch query can run on
several CPUs at once and give the same bits. NumPy releases the GIL inside
its kernels, so threads are enough. Each worker sets OpenBLAS to one thread
for itself only (``openblas_set_num_threads_local``). Left at its default of
one BLAS thread per CPU, OpenBLAS's own threads compete with the row
workers for the same CPUs, and two row workers were no faster than one.

The pool exists only where it can help: with more than one CPU in the
process's affinity mask and with that OpenBLAS symbol in the loaded
library. Otherwise :func:`workers` is 0 and callers run their rows in the
calling thread, as before.

The pool is built on first use. A fork hook shuts it down before every
``os.fork``, so a forked process (a sharded worker, for example) never
inherits live threads; the next call that needs the pool builds a new one.
"""

from __future__ import annotations

import ctypes
import os
import threading

__all__ = ["TASK_ROWS", "blas_thread_limiter", "run", "shutdown", "workers"]

#: Rows per task. In a sweep on a 2-vCPU x86-64 host (OpenBLAS 0.3.31),
#: perfbench's sim-ipc throughput was flat from 64 to 512 rows while its peak
#: RSS grew with the task size (231 MB at 64, 236 at 128, 248 at 256, 269 at
#: 512). The predict alone ran 128-row tasks faster than 64-row ones
#: (1.41 s against 1.65 s, median of 15 pairs), so 128 is kept.
TASK_ROWS = 128

_lock = threading.Lock()
#: ``None`` until first use, then the ``ThreadPoolExecutor`` or ``False`` (no
#: pool in this process). ``concurrent.futures`` is imported only with a pool, so
#: a process that never fans out does not load it.
_pool = None


def blas_thread_limiter():
    """``openblas_set_num_threads_local`` of the loaded OpenBLAS, or ``None``.

    The library is looked up among the shared objects already mapped into
    the process (NumPy's own OpenBLAS), never loaded anew. ``None`` on a
    host without ``/proc/self/maps``, without OpenBLAS, or with an OpenBLAS
    too old to export the per-thread setter.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 0)
    for path in sorted(paths):
        try:
            fn = ctypes.CDLL(path, mode=mode).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
        return fn
    return None


def _build():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    limit = blas_thread_limiter() if cpus > 1 else None
    if limit is None:
        return False
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cpus, thread_name_prefix="repro-rows",
                              initializer=limit, initargs=(1,))


def _get():
    """The pool, or ``False`` when the process gets none (probed once)."""
    global _pool
    if _pool is None:
        with _lock:
            if _pool is None:
                _pool = _build()
    return _pool


def workers() -> int:
    """Worker threads of the pool, or 0 when the process gets none.

    Starts no thread: the workers start with the first :func:`run`.
    """
    pool = _get()
    return pool._max_workers if pool else 0


def run(job, jobs: int) -> None:
    """Run ``job(0) … job(jobs - 1)`` on the pool and wait for all of them.

    Callers check :func:`workers` first and pass at most that many jobs.
    Once every job is done, the first failed job's exception is re-raised.
    """
    from concurrent.futures import wait

    pool = _get()
    futures = [pool.submit(job, j) for j in range(jobs)]
    wait(futures)
    for f in futures:
        f.result()


def shutdown() -> None:
    """Stop the workers; the next call that fans out starts new ones.

    Runs before every ``os.fork``, so no child inherits live worker threads.
    """
    global _pool
    pool = _pool
    if pool:
        _pool = None
        pool.shutdown(wait=True)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=shutdown)
