"""Parallel experiment execution (process-pool map and parameter sweeps)."""

from .executor import (
    chunked,
    default_workers,
    in_worker_process,
    parallel_map,
)
from .sweep import Sweep, run_sweep

__all__ = ["Sweep", "chunked", "default_workers", "in_worker_process",
           "parallel_map", "run_sweep"]
