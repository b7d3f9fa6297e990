"""Regenerate reference.json: per-level errors of both compare workloads.

The reference pins the errors of the code the benchmark was defined on;
later commits must reproduce them within workloads.ERROR_RTOL. Rerun only
when an accepted change is meant to move the errors, and say so.

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402


def main() -> int:
    run.import_sfvem()
    from sfvem import cli

    out = {}
    for name in workloads.COMPARE:
        out[name] = {}
        for s in range(workloads.N_REFERENCE_SEEDS):
            with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
                code = cli.main(workloads.compare_argv(name, s, tmp))
                rows = workloads.read_convergence_csv(os.path.join(tmp, "convergence.csv"))
            if code != 0:
                print(f"{name} seed {s}: sfvem compare exited with {code}", file=sys.stderr)
                return 1
            out[name][str(s)] = {"rows": rows, "rates": workloads.fitted_rates(rows)}
            print(f"{name} seed {s}: {out[name][str(s)]['rates']}", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
