"""Compare two result documents written by ``run.py --out``.

One row per (workload, end-to-end metric).  The verdict applies the bound
``BENCHMARK.json`` fixes for the metric:

``regression``  the new median is worse than the base median by more than
                the bound;
``unresolved``  it is not, but the repetitions of one side spread wider
                than the bound and not every new run beats every base run
                -- the data cannot tell unchanged from changed;
``ok``          otherwise.

Two documents are comparable only if they measured the same thing: same
kernel, same input bytes per workload, same metric set.  Anything else is
refused (exit 2) instead of compared.  Exit 1 on a regression or when a
larger share of requests failed.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles
from typing import List


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(runs: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(runs) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(runs, n=4)
    return abs((q3 - q1) / median(runs))


def _refusal(base: dict, new: dict) -> str:
    if base["stamp"]["kernel"] != new["stamp"]["kernel"]:
        return f"kernel {base['stamp']['kernel']} vs {new['stamp']['kernel']}"
    if base["stamp"]["traced"] or new["stamp"]["traced"]:
        return "traced runs carry per-layer numbers; compare untraced results"
    if set(base["workloads"]) != set(new["workloads"]):
        return "different workloads"
    for name, workload in base["workloads"].items():
        other = new["workloads"][name]
        if workload["input_digest"] != other["input_digest"]:
            return f"{name}: input digests differ (another seed, scale or generator)"
        if set(workload["metrics"]) != set(other["metrics"]):
            return f"{name}: metric sets differ"
    return ""


def compare_files(spec: dict, base_path: str, new_path: str) -> int:
    base, new = _load(base_path), _load(new_path)
    refusal = _refusal(base, new)
    if refusal:
        print(f"not comparable: {refusal}", file=sys.stderr)
        return 2
    worst = 0
    print(f"{'workload':<14} {'metric':<16} {'base':>11} {'new':>11} {'new/base':>9} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for name, workload in base["workloads"].items():
        other = new["workloads"][name]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            old, cur = workload["metrics"][key], other["metrics"][key]
            ratio = cur["value"] / old["value"]
            worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max(_spread(old["runs"]), _spread(cur["runs"]))
            if metric["better"] == "lower":
                all_better = max(cur["runs"]) < min(old["runs"])
            else:
                all_better = min(cur["runs"]) > max(old["runs"])
            if worse_by > bound:
                verdict = "regression"
                worst = 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:<14} {key:<16} {old['value']:>11.4f} {cur['value']:>11.4f} "
                  f"{ratio:>9.4f} {bound:>6.2f} {spread:>7.4f}  {verdict}")
        share_old = workload["failed"] / workload["attempted"]
        share_new = other["failed"] / other["attempted"]
        digest = "same" if workload["run_digest"] == other["run_digest"] else "DIFFERENT"
        print(f"{name:<14} failed {workload['failed']}/{workload['attempted']} -> "
              f"{other['failed']}/{other['attempted']}   stored rows: {digest} digest")
        if share_new > share_old:
            worst = 1
    print("verdict:", "REGRESSION" if worst else "no regression")
    return worst
