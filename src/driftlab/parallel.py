"""Runner for independent sweep points and optimizer restarts.

Items run one after another in the caller's thread and results come back in
input order.  A thread pool was tried and measured slower: the sweep points
spend their time in short numpy calls on rows of a few hundred values, so
two threads mostly contend for the interpreter lock, and the pool raised
wall time, CPU time and peak memory without changing any result.
"""

from __future__ import annotations

__all__ = ["worker_count", "run_parallel"]


def worker_count() -> int:
    """Number of workers :func:`run_parallel` uses: always 1."""
    return 1


def run_parallel(fn, items):
    """Return ``[fn(x) for x in items]``, evaluated in order."""
    return [fn(x) for x in items]
