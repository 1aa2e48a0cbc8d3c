"""The part pool: every CPU the process may use, shared by the parallel stages.

run_parts(fn, count) splits range(count) into at most _PARTS contiguous
near-equal parts, one per CPU.  The caller runs the first part itself and a
shared pool of threads, started on first use, runs the rest, so a one-CPU
machine runs serially.  Two stages use it, each because it measurably
gains (timings on a 2-vCPU VM), and each gives bit-identical results for
every part count:
- net._group_correlate splits its forward rfft2 over the flattened (sample,
  input channel) rows, and its row passes over the (output channel, output
  rotation) rows: each pass forms its row's spectra, adds the products into
  its own block, inverse-transforms it and writes its own output rows.
  Every output element goes through the same operations in the same order
  whatever the split, and the FFTs transform each row on its own.  With
  the transform pooled, 9 of 10 conv rounds ran faster, 867 ms against
  902 ms serial.
- analysis.filter_bound_report splits the quadrature recipe's chunks of
  rule nodes (16,384 at the default order, 4 chunks at K = 10).  Each part
  assembles its chunks once and writes their weighted sums for every layer
  and theta sample to their own rows, and the caller adds the rows in
  chunk order once all are written: 46.1 ms a unit against 59.9 ms serial.
Basis evaluation (basis.eval_spatial_stack) stays on the caller's thread:
with its chunks split over the pool, basis validate took 91.5 ms against
78.1 ms serial at K = 10, and gained 6-9% at K = 100, which no workload
runs.

OpenBLAS runs a GEMM of at most BLAS_ONE_THREAD = 262,144 multiply-adds
(65,536 times its default GEMM_MULTITHREAD_THRESHOLD of 4) on the calling
thread, and one below twice that too, as each of its threads needs 262,144;
the OpenBLAS 0.3.31 bundled with NumPy 2.4.6 switched only above 1,000,000.
A larger GEMM wakes its own threads, which then spin on the pool's CPUs, so
net.synthesize_filters runs its filter GEMM in column blocks of at most
BLAS_ONE_THREAD, and analysis.filter_bound_report's GEMMs on a chunk of
40,960 / K points take 491,520 multiply-adds for 12 filter rows.

A part must not call run_parts itself: on 2 CPUs the pool has one thread,
and a nested call would wait on the thread it runs in.  run_parts raises
RuntimeError when a pool thread calls it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

try:
    _PARTS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _PARTS = os.cpu_count() or 1

BLAS_ONE_THREAD = 262_144

_IN_POOL = threading.local()


def _mark_pool_thread():
    _IN_POOL.active = True


# The caller of run_parts runs one part (which peaks lower in memory than
# handing every part to the pool); these threads start on the first submit.
_POOL = ThreadPoolExecutor(max(1, _PARTS - 1), thread_name_prefix="rstcnn-part", initializer=_mark_pool_thread)


def _split(count):
    """The (lo, hi) bounds of the at most _PARTS contiguous near-equal parts of range(count)."""
    k = max(1, min(_PARTS, count))
    return [(count * j // k, count * (j + 1) // k) for j in range(k)]


def run_parts(fn, count):
    """fn(lo, hi) over at most _PARTS contiguous near-equal parts of range(count).

    The caller runs the first part and the pool the others.  Every part has
    finished before this returns or raises, so none writes after its caller
    has moved on; the first exception a part raised is re-raised.  A call
    from inside a part that the pool runs raises RuntimeError.
    """
    if getattr(_IN_POOL, "active", False):
        raise RuntimeError("run_parts called from a part-pool thread: the nested parts would wait on the pool running them")
    bounds = _split(count)
    futures = [_POOL.submit(fn, lo, hi) for lo, hi in bounds[1:]]
    try:
        fn(*bounds[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()
