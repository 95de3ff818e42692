"""Per-layer deltas between two traced benchmark results.

Save the standard output of traced runs (``--trace 1``) of the parent and of
the change, any number of workloads and seeds per file, then::

    python3 perfbench/diff.py parent.txt change.txt

Each file is read run by run: a ``# perfbench workload=...`` header names
the workload, and the run's last line is its JSON result. Several runs of
one workload are combined by the median. The table has one row per layer
metric and workload, with the parent value, the change value and the
difference; rows that read 0 on both sides are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List


def read_runs(path: str) -> Dict[str, Dict[str, float]]:
    """Median of each metric per workload over the runs in ``path``."""
    runs: Dict[str, List[Dict[str, float]]] = {}
    workload = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# perfbench "):
                fields = dict(part.split("=", 1) for part in line.split()[2:] if "=" in part)
                workload = fields.get("workload")
            elif line.startswith("{") and workload is not None:
                result = json.loads(line)
                runs.setdefault(workload, []).append(
                    {name: metric["value"] for name, metric in result["metrics"].items()}
                )
                workload = None
    return {
        name: {metric: statistics.median(run[metric] for run in results)
               for metric in results[0]}
        for name, results in runs.items()
    }


def rows(parent: Dict[str, Dict[str, float]],
         change: Dict[str, Dict[str, float]]) -> List[tuple]:
    out = []
    for workload in sorted(set(parent) & set(change)):
        before, after = parent[workload], change[workload]
        for metric in sorted(set(before) & set(after)):
            old, new = before[metric], after[metric]
            if old or new:
                out.append((metric, workload, old, new))
    return sorted(out)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="stdout of traced runs of the parent")
    parser.add_argument("change", help="stdout of traced runs of the change")
    args = parser.parse_args(argv)
    parent, change = read_runs(args.parent), read_runs(args.change)
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"only on one side, skipped: {', '.join(missing)}", file=sys.stderr)
    print(f"{'metric':36} {'workload':9} {'parent':>12} {'change':>12} "
          f"{'delta':>12} {'delta%':>8}")
    for metric, workload, old, new in rows(parent, change):
        share = f"{(new - old) / old * 100:+.1f}" if old else "new"
        print(f"{metric:36} {workload:9} {old:12.6g} {new:12.6g} "
              f"{new - old:+12.6g} {share:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
