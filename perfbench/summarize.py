"""Summarise benchmark runs: median and quartiles of every metric.

    python3 perfbench/summarize.py RUN_OUTPUT... > summary.json

Each file holds the standard output of one `perfbench/run.py` run.  Runs
are grouped by workload and trace flag.  For each metric, and for the
raw wall-clock figures of the record line (`wall.*`), the summary gives
the median, the quartiles (`statistics.quantiles(values, n=4)`), the
spread (quartile distance over the median) and the number of runs.  The
baseline in `baseline.json` was made this way, and a before/after pair
should be recorded the same way.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths: list[str]) -> dict:
    groups: dict[str, dict] = {}
    for path in paths:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        if len(lines) < 2:
            raise ValueError(f"{path}: not the output of a completed run")
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        key = f"{record['workload']} trace={record['trace']}"
        g = groups.setdefault(
            key,
            {"env": record["env"], "runs": 0, "incorrect": 0, "seeds": [], "digests": {},
             "values": defaultdict(list), "units": {}},
        )
        g["runs"] += 1
        g["incorrect"] += 0 if result["correct"] else 1
        g["seeds"].append(record["env"]["seed"])
        g["digests"][str(record["env"]["seed"])] = record["digest"]
        for name, m in result["metrics"].items():
            g["values"][name].append(m["value"])
            g["units"][name] = m["unit"]
        for name, value in record.get("wall", {}).items():
            g["values"][f"wall.{name}"].append(value)
            g["units"][f"wall.{name}"] = result["metrics"][name]["unit"]

    out = {}
    for key, g in sorted(groups.items()):
        metrics = {}
        for name, values in g["values"].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            metrics[name] = {
                "unit": g["units"][name],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "n": len(values),
            }
        out[key] = {
            "runs": g["runs"],
            "incorrect_runs": g["incorrect"],
            "seeds": g["seeds"],
            "digests": g["digests"],
            "env": g["env"],
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    print()
