"""Self-check of the benchmark: a few requests per workload, in both modes.

Run from the repository root:

    python3 perfbench/selfcheck.py

For each workload, declared in BENCHMARK.json or not, it runs ``run.py``
with ``--seconds 0``: one measured request untraced, and one plain plus one
traced request with ``--trace 1``.  It checks that the last line is the
result document, that it names every metric BENCHMARK.json declares for
that mode with the declared unit, and that no request failed (fail_ratio 0).
Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{result['failed']} of {result['attempted']} requests failed")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got["unit"] != unit:
            problems.append(f"{name} in {got['unit']}, declared {unit}")
        print(f"  {name} = {got['value']:.6g} {got['unit']}")
    print(f"  fail_ratio = {result['failed'] / result['attempted']:g}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            print(f"{workload} --trace {trace}")
            for problem in check(workload, trace, declared):
                failures += 1
                print(f"  FAIL {problem}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
