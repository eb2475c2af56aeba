"""Entry point of the repo benchmark: log bytes to stored rows, end to end.

    python3 benchmarks/e2e/run.py --workload rubis_offline --seed 17 \\
        --seconds 10 --trace 0        # end-to-end metrics, spans off
    python3 benchmarks/e2e/run.py --workload rubis_live --trace 1
                                      # per-layer metrics from a traced run
    python3 benchmarks/e2e/run.py --out A.json       # every workload
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every metric is printed by name with its unit; the last stdout line of each
workload is the JSON object the driver reads.  Names, units, directions and
bounds live in ``BENCHMARK.json`` at the repository root and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULT_FORMAT = "repro-e2e-bench/1"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _report(result: dict, declared: list, traced: bool) -> None:
    """Print one workload's result, the driver's JSON object last."""
    produced = result["metrics"]
    unknown = sorted(set(produced) - {metric["name"] for metric in declared})
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    print(
        f"== {result['workload']}  seed {result['seed']}  {result['lines']} lines  "
        f"{result['requests']} requests  {result['repetitions']} repetitions  "
        f"kernel {result['kernel']}  ({'traced' if traced else 'untraced'})"
    )
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        # A layer this workload never calls did no work: it reads 0.
        entry = produced.get(name, {"value": 0.0})
        entry["unit"] = unit
        metrics[name] = {"value": entry["value"], "unit": unit}
        runs = "  ".join(f"{value:.4g}" for value in entry.get("runs", ()))
        print(f"   {name:<40} {entry['value']:>14.6g} {unit:<8} {runs}")
    print(
        f"   attempted {result['attempted']}  failed {result['failed']}  "
        f"run_digest {result['run_digest'][:16]}  input sha256 {result['input_digest'][:16]}"
    )
    print("   " + "  ".join(f"{key} {value:.4g}" for key, value in result["hygiene"].items()))
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size traces: a smoke test, not a measurement")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result document (for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result documents and exit")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(spec, *args.compare)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no tracer to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.kernel import kernel_info
    from repro.store import git_describe

    from harness import measure
    from workloads import WORKLOADS

    # Resolving the kernel builds the compiled selector when a C compiler
    # is there, which is what a user's first run does; do it before any
    # timer starts and stamp what was resolved.
    stamp = {
        "kernel": kernel_info().name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "traced": bool(args.trace),
    }
    print("   ".join(f"{key}={value}" for key, value in stamp.items()))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".bench_work"
    document = {"format": RESULT_FORMAT, "stamp": stamp, "workloads": {}}
    for name in names if args.workload == "all" else [args.workload]:
        result = measure(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.quick, workdir
        )
        _report(result, declared, bool(args.trace))
        document["workloads"][name] = result
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    # Wrong outputs are reported in the JSON line, not by the exit code:
    # a result with failed > 0 is still a result.
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
