"""Open-loop load generator of the live workload: appends a log on a schedule.

Runs as its own process so the tracer's stalls cannot slow it down.  Line
``k`` of the source file is due at ``t0 + k / rate`` on ``CLOCK_MONOTONIC``
(shared with the worker); lines are appended ``batch`` at a time, each
append when its last line is due, whether or not the tracer keeps up.  The
last stdout line reports how late the appends ran, so a measurement taken
while the generator itself was starved is visible in the result.

usage: writer.py SOURCE TARGET RATE BATCH T0
"""

from __future__ import annotations

import json
import sys
import time

from stats import percentile


def main(argv) -> int:
    source, target = argv[1], argv[2]
    rate, batch, t0 = float(argv[3]), int(argv[4]), float(argv[5])
    with open(source, "rb") as handle:
        lines = handle.readlines()
    late = []
    with open(target, "ab", buffering=0) as out:
        for first in range(0, len(lines), batch):
            chunk = lines[first : first + batch]
            due = t0 + (first + len(chunk) - 1) / rate
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            late.append(time.monotonic() - due)
            out.write(b"".join(chunk))
        done = time.monotonic()
    print(
        json.dumps(
            {
                "appends": len(late),
                "late_p50_ms": percentile(late, 50) * 1e3,
                "late_p99_ms": percentile(late, 99) * 1e3,
                "late_max_ms": max(late) * 1e3,
                "done": done,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
