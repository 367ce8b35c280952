"""Verdict benchmark for herbrandkit.

Run from the repository root:

    python3 perfbench/run.py --workload orders --seed 1 --seconds 50 --trace 0

One process serves one workload to one client in a closed loop: each
request is sent after the previous one returns, as a caller waiting on a
verdict would.  Every answer is checked against what the benchmark expects
(see workloads.py); a wrong answer, an exception or an exit code of 2
counts as a failed request and never stops the run.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, whose times are scaled to a nominal machine speed (see speed.py);
with ``--trace 1`` it holds the per-layer metrics of a traced run (see
tracing.py), measured after an untraced run of the same requests that
gives the tracing overhead.  Earlier lines give the metrics in readable
form and the run's metadata, with the unscaled times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "herbrandkit"
HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "traces"

# setup is timed in the serving process and in this many fresh interpreters
SETUP_PROCESSES = 16
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t0 = time.perf_counter()\n"
    "import herbrandkit.cli\n"
    "herbrandkit.cli.build_parser()\n"
    "t = time.perf_counter() - t0\n"
    "import speed\n"
    "print(t, speed.reference_s())\n")
# a run times the reference loop of speed.py once per this many seconds
REFERENCE_EVERY_S = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list[tuple[float, float]]:
    """Seconds to import herbrandkit and build the CLI parser, each with the
    reference loop's time just after it: first in this process, which then
    serves the workload, then in fresh interpreters."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import herbrandkit.cli
    herbrandkit.cli.build_parser()
    samples = [(time.perf_counter() - t0, speed.reference_s())]
    for _ in range(SETUP_PROCESSES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True)
        t, ref = out.stdout.split()
        samples.append((float(t), float(ref)))
    return samples


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Outcome:
    def __init__(self, rss_requests: int = 0):
        self.latencies: list[float] = []
        self.failed = 0
        self.first_start = None
        self.last_end = None
        self.rss_requests = rss_requests
        self.rss_mb = None
        self.reference: list[float] = []
        # reference loop time between the first start and the last end
        self.paused = 0.0

    def time_reference(self) -> None:
        ref = speed.reference_s()
        self.reference.append(ref)
        if self.first_start is not None:
            self.paused += ref

    def record(self, start: float, end: float, ok: bool) -> None:
        if self.first_start is None:
            self.first_start = start
        self.last_end = end
        self.latencies.append(end - start)
        self.failed += not ok
        if len(self.latencies) == self.rss_requests:
            self.rss_mb = peak_rss_mb()


def serve(workload, seed, prefix, seconds, limit, outcome, call=None):
    """Closed loop: send request 0, 1, ... each after the previous returns,
    until ``seconds`` have passed or ``limit`` requests were sent."""
    next_reference = time.perf_counter()
    deadline = next_reference + seconds
    index = 0
    while index < limit and (index == 0 or time.perf_counter() < deadline):
        # one reference sample per REFERENCE_EVERY_S of the run, so that a
        # workload of long requests is sampled as often as one of short ones
        now = time.perf_counter()
        if now >= next_reference:
            for _ in range(1 + int((now - next_reference) / REFERENCE_EVERY_S)):
                outcome.time_reference()
            next_reference = now + REFERENCE_EVERY_S
        req = workload.make(seed, index, f"{prefix}{index}_")
        start = time.perf_counter()
        ok = True
        try:
            if call is None:
                req.run()
            else:
                call(index, req.run)
        except Exception as e:   # counted as a failure; the run goes on
            ok = False
            if outcome.failed < 3:
                print(f"request {index} ({req.kind}) failed: {type(e).__name__}: {e}",
                      file=sys.stderr)
                traceback.print_exc(limit=3, file=sys.stderr)
        end = time.perf_counter()
        outcome.record(start, end, ok)
        index += 1
    return index


def count_src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no herbrandkit sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup()

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # One request outside the measurement, so that first-call costs of the
    # process do not land on the first timed request; its answer is checked.
    warm = Outcome()
    serve(workload, args.seed, "w", 0, 1, warm)

    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed", "clients": 1,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": read_commit(), "src_lines": count_src_lines(),
    }

    if args.trace:
        from tracing import Tracer
        plain = Outcome()
        sent = serve(workload, args.seed, "a", args.seconds / 2, sys.maxsize,
                     plain)
        tracer = Tracer()
        tracer.install()
        traced = Outcome()
        serve(workload, args.seed, "b", float("inf"), sent, traced,
              call=tracer.request_span)
        metrics = tracer.layer_metrics(sent)
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{workload.name}-seed{args.seed}.tsv"
        tracer.write(trace_file)
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
        meta["traced_requests"] = sent
        attempted = 1 + 2 * sent
        failed = warm.failed + plain.failed + traced.failed
    else:
        run = Outcome(workload.rss_requests)
        sent = serve(workload, args.seed, "a", args.seconds, sys.maxsize, run)
        rss_requests = min(sent, workload.rss_requests)
        lat = run.latencies
        p = workload.tail_percentile
        tail = percentile(lat, p)
        busy = run.last_end - run.first_start - run.paused
        raw = {
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail,
            "throughput_rps": len(lat) / busy,
            "setup_s": statistics.median(t for t, _ in setup),
        }
        # scaled to the nominal speed of the reference loop (see speed.py)
        scale = speed.NOMINAL_S / speed.typical_s(run.reference)
        metrics = {
            "latency_p50_s": (raw["latency_p50_s"] * scale, "s"),
            "latency_tail_s": (raw["latency_tail_s"] * scale, "s"),
            "throughput_rps": (raw["throughput_rps"] / scale, "1/s"),
            "setup_s": (statistics.median(
                t * speed.NOMINAL_S / ref for t, ref in setup), "s"),
            "peak_rss_mb": (run.rss_mb or peak_rss_mb(), "MB"),
        }
        beyond = sum(1 for x in lat if x > tail)
        meta["speed_scale"] = scale
        meta["reference_samples_s"] = [round(r, 5) for r in run.reference]
        meta["unscaled"] = raw
        meta["requests"] = sent
        meta["tail"] = f"p{p:g} of {sent} requests, {beyond} beyond it"
        meta["peak_rss_after_requests"] = rss_requests
        attempted = 1 + sent
        failed = warm.failed + run.failed

    meta["setup_samples_s"] = [[round(t, 6), round(ref, 6)] for t, ref in setup]
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{workload.name}: {attempted} requests attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
