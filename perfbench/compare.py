"""Compare two sets of benchmark records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*-trace0.json`` records that ``run.py`` writes
to ``.perfbench_out/records/``.  For every workload and end-to-end metric
it prints both medians, their quartiles and the ratio new/base.  It
refuses (exit 2) when the two sides ran on a different number backend or
Python version, because their timings are not comparable.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def _load(directory: str) -> dict:
    """workload -> list of records (untraced runs only)."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        out.setdefault(rec["meta"]["workload"], []).append(rec)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    envs = {
        (r["meta"]["backend"], r["meta"]["python"])
        for side in (base, new) for recs in side.values() for r in recs
    }
    if len(envs) > 1:
        print(f"refusing to compare records from different environments: {sorted(envs)}",
              file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for metric in base[workload][0]["result"]["metrics"]:
            sides = []
            for recs in (base[workload], new[workload]):
                sides.append(_quartiles([r["result"]["metrics"][metric]["value"] for r in recs]))
            (b1, bm, b3), (n1, nm, n3) = sides
            ratio = nm / bm if bm else float("nan")
            print(f"  {metric:12s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  new/base {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
