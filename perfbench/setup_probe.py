"""Set-up time of one workload, measured in a fresh interpreter.

Prints the seconds from before the first import (numpy and scipy included)
to the workload's inputs being ready: the problem spec for the compare
workloads, the polygon set for the audit.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main(workload: str, seed: int) -> float:
    run.import_sfvem()
    if workload in workloads.COMPARE:
        from sfvem.poly import build_benchmark_coefficients
        build_benchmark_coefficients()
    else:
        workloads.audit_polygons(seed)
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
