"""End-to-end and per-layer benchmark of the serving stack and the paper runs.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; see ``README.md``.
"""

#: Pinned in every process the benchmark starts and in its own (run.py
#: re-executes itself under them before numpy loads).  Selections are
#: identical across hash seeds and BLAS thread counts; pinning only
#: steadies the timing.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def bench_cpu() -> int:
    """The CPU every process of a run is pinned to: the highest-numbered
    one this process may use."""
    import os

    return max(os.sched_getaffinity(0))
