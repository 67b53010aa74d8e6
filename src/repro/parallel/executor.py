"""Parallel execution of experiment workloads.

The randomised sweeps (Theorem 1 / Main Theorem verification over hundreds of
random instances, scaling studies) are embarrassingly parallel: every
instance is independent.  This module provides a small, dependency-free
process-pool map with

* deterministic per-task seeding (the caller passes a base seed; each task
  receives ``base_seed + index`` so results are reproducible regardless of
  the degree of parallelism),
* chunking (to amortise inter-process communication, per the HPC guidance of
  profiling first and keeping per-task work around the 10s-100ms sweet spot),
* a sequential fallback (``workers=1`` or ``workers=None`` on platforms where
  process pools are unavailable), used automatically for tiny workloads,
* a nested-pool guard: a :func:`parallel_map` call made *from inside a
  worker process* (e.g. a parallel sweep whose task function itself calls
  ``parallel_map``) silently degrades to the serial path instead of
  spawning grandchild processes — on spawn-only platforms a nested pool
  can deadlock waiting for workers the child is not allowed to start.

Results are identical to the serial ``map`` in content and order no matter
which path executes — the fallback never changes semantics, only where the
work runs.  Only picklable callables and arguments may be used with
``workers > 1`` (standard :mod:`multiprocessing` constraint).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "default_workers", "chunked",
           "in_worker_process"]


def in_worker_process() -> bool:
    """Whether this process is a multiprocessing worker (nested-pool guard)."""
    return multiprocessing.parent_process() is not None


def default_workers() -> int:
    """A sensible default worker count: ``cpu_count - 1`` (at least 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


def chunked(items: Sequence[T], chunk_size: int) -> List[List[T]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [list(items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]


def _run_chunk(func: Callable[..., R], chunk: List) -> List[R]:
    return [func(*args) if isinstance(args, tuple) else func(args)
            for args in chunk]


def parallel_map(func: Callable[..., R], tasks: Iterable,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 sequential_threshold: int = 8) -> List[R]:
    """Apply ``func`` to every task, optionally across processes.

    Parameters
    ----------
    func:
        A picklable callable.  Each task is either a single argument or a
        tuple of positional arguments.
    tasks:
        Iterable of tasks.  Order of results matches the order of tasks.
    workers:
        Number of worker processes.  ``None`` uses :func:`default_workers`;
        ``1`` forces sequential execution (also used automatically when there
        are at most ``sequential_threshold`` tasks, where process start-up
        would dominate, when called from inside a worker process, and when
        the platform cannot start a process pool at all).
    chunk_size:
        Number of tasks per inter-process work unit; defaults to an even
        split across workers.

    Returns
    -------
    list
        The results, in task order.
    """
    task_list = list(tasks)
    if not task_list:
        return []
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(task_list) <= sequential_threshold \
            or in_worker_process():
        return _run_chunk(func, task_list)

    if chunk_size is None:
        chunk_size = max(1, (len(task_list) + workers - 1) // workers)
    chunks = chunked(task_list, chunk_size)

    results: List[R] = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for piece in pool.map(_run_chunk_star,
                                  [(func, c) for c in chunks]):
                results.extend(piece)
    except (OSError, PermissionError, NotImplementedError,
            BrokenProcessPool):         # pragma: no cover - platform-dependent
        # Pool unavailable (sandbox, missing /dev/shm, spawn failure) or it
        # broke mid-run: recompute everything serially.  Exceptions raised
        # by ``func`` itself are NOT caught here — the serial re-run would
        # re-raise them anyway, and they must surface either way.
        return _run_chunk(func, task_list)
    return results


def _run_chunk_star(args) -> List:
    func, chunk = args
    return _run_chunk(func, chunk)
