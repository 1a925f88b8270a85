"""pawclock benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload figures|verify-ladder|dense-spacetime \\
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  This script only uses the standard
library: it starts fresh worker interpreters (``bench/worker.py``), times
their set-up, collects their per-op records and prints one metric per line,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``; ``error_share`` is printed on its own line and equals
``failed / attempted`` of the last line.  With ``--trace 1`` they are the
per-layer ones, from passes that alternate with untraced ones.  See
``bench/README.md`` for the definitions.

Scratch files go to ``.bench_work/`` under the checkout and are removed,
except the spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from tracer import layer_totals

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("figures", "verify-ladder", "dense-spacetime")
# Fresh interpreters whose set-up is timed per run (the last one then runs
# the timed loop); setup_s is their median.
SETUP_SAMPLES = 11
# Whole-run guard: every worker is killed after this long.
WORKER_TIMEOUT_S = 170



def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PAW_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Worker:
    """A worker interpreter; ``setup_s`` is the time from spawn to READY."""

    def __init__(self, args, mode: str, work: Path) -> None:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mode", mode, "--work", str(work)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                     stdout=subprocess.PIPE, text=True)
        self.setup_s = None
        self.ready: dict = {}
        self.result: dict | None = None

    def collect(self) -> None:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            self._read()
        finally:
            watchdog.cancel()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("READY ") and self.setup_s is None:
                self.setup_s = time.perf_counter() - self.start
                self.ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                self.result = json.loads(line[7:])
        self.proc.wait(timeout=WORKER_TIMEOUT_S)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workers(args, work: Path) -> tuple[list[float], list[float], dict]:
    """Set-up samples, fresh-import samples and the measuring worker's result."""
    setup, imports = [], []
    for index in range(SETUP_SAMPLES):
        mode = "run" if index == SETUP_SAMPLES - 1 else "setup"
        worker = Worker(args, mode, work)
        try:
            worker.collect()
        finally:
            worker.kill()
        if worker.proc.returncode != 0 or worker.setup_s is None:
            raise RuntimeError(f"{mode} worker exited with {worker.proc.returncode}")
        setup.append(worker.setup_s)
        if worker.ready.get("import_s") is not None:
            imports.append(worker.ready["import_s"])
    if worker.result is None:
        raise RuntimeError("the measuring worker printed no result")
    return setup, imports, worker.result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(passes: list[list[float]]) -> tuple[float, str]:
    """op_tail_s and how it was taken.

    The highest percentile with at least 10 samples beyond it, that is the
    11th-largest latency.  Below 200 samples that percentile lies under p95,
    where it falls among ordinary ops when one op in a pass dominates; the
    tail is then the slowest op of a pass, as the median over passes, which
    a single stalled op does not move.
    """
    ordered = sorted(wall for walls in passes for wall in walls)
    n = len(ordered)
    if n < 200:
        return (statistics.median(max(walls) for walls in passes),
                f"slowest op per pass, median of {len(passes)} passes; n={n} < 200")
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}, 10 samples beyond, n={n}"


def passes_of(records: list[dict], traced: bool) -> list[list[dict]]:
    grouped = defaultdict(list)
    for record in records:
        if record["traced"] == traced:
            grouped[record["pass"]].append(record)
    return [grouped[key] for key in sorted(grouped)]


def end_to_end(records: list[dict], setup: list[float], result: dict) -> tuple[dict, dict]:
    passes = passes_of(records, traced=False)
    latencies = [r["wall"] for p in passes for r in p]
    tail_value, tail_note = tail([[r["wall"] for r in p] for p in passes])
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(sum(r["wall"] for r in p) for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "cpu_s": statistics.median(sum(r["cpu"] for r in p) for p in passes),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "pass_s": f"median of {len(passes)} passes of {result['ops_per_pass']} ops",
        "op_p50_s": f"n={len(latencies)}",
        "op_tail_s": tail_note,
        "cpu_s": "user+system, process and children, per pass",
        "peak_rss_mb": "largest child" if result["children_rss"] else "worker process",
    }
    return metrics, notes


def per_layer(records: list[dict], imports: list[float]) -> tuple[dict, dict]:
    traced = passes_of(records, traced=True)
    untraced = passes_of(records, traced=False)
    per_pass = []
    for records_of_pass in traced:
        totals = defaultdict(float, layer_totals([]))
        for record in records_of_pass:
            for key, value in record.get("layers", {}).items():
                if key.endswith("_peak_mb"):
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
            totals["cli.bytes_written"] += record.get("bytes_written", 0)
            totals["cli.csv_identical"] += record.get("csv_identical", 0)
        per_pass.append(totals)
    metrics = {key: statistics.median(totals[key] for totals in per_pass)
               for key in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = (
        statistics.median(sum(r["wall"] for r in p) for p in traced)
        - statistics.median(sum(r["wall"] for r in p) for p in untraced))
    notes = {"cli.import_s": f"median of {len(imports)} fresh interpreters",
             "trace.overhead_s": f"traced minus untraced pass_s, "
                                 f"{len(traced)} + {len(untraced)} passes"}
    return metrics, notes


def differing_outputs(records: list[dict]) -> list[str]:
    """Op ids whose outputs differ between passes (traced or not)."""
    digests = defaultdict(set)
    for record in records:
        if "digest" in record:
            digests[record["id"]].add(record["digest"])
    return sorted(op for op, seen in digests.items() if len(seen) > 1)


def environment(args, result: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "measured_s": round(result["measured_s"], 3),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            **result["environment"]}


def report_failures(records: list[dict]) -> None:
    seen = defaultdict(lambda: [0, set(), False])
    for record in records:
        if not record["passed"]:
            entry = seen[record["id"]]
            entry[0] += 1
            entry[1].update(record["failed"])
            entry[2] = entry[2] or record["unexpected"]
    for op, (count, checks, unexpected) in sorted(seen.items()):
        kind = "UNEXPECTED" if unexpected else "known defect"
        print(f"failed op {op} x{count}: {', '.join(sorted(checks))} ({kind})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pawclock" / "__init__.py").is_file():
        return fail(f"no pawclock sources under {ROOT / 'src'}; run from a source checkout")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, imports, result = run_workers(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    print("env " + json.dumps(environment(args, result), sort_keys=True))
    report_failures(records)
    attempted = len(records)
    failed = sum(1 for r in records if not r["passed"])
    mismatched = differing_outputs(records) if args.trace else []
    for op in mismatched:
        print(f"outputs differ between passes: {op}")
    correct = not mismatched and not any(r["unexpected"] for r in records)

    if args.trace:
        metrics, notes = per_layer(records, imports)
    else:
        metrics, notes = end_to_end(records, setup, result)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if units.keys() != metrics.keys():
        return fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
                    f"{sorted(units)}")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:34s} {value:14.6f} {units[key]}{note}")
    if not args.trace:
        print(f"{'error_share':34s} {failed / attempted:14.6f} 1"
              f"  ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
