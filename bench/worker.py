"""One fresh interpreter: set up a workload, then (in run mode) time its passes.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --mode setup|run --work DIR

Set-up imports the program (in-process workloads), generates the op list
from the seed, builds the input states and runs one untimed warm-up op, then
prints ``READY`` with a JSON payload.  In setup mode the worker exits there; ``bench/run.py`` times
several of them to get the set-up time.  In run mode it then runs whole
passes over the op list, closed loop, one op at a time (as many as take
about ``--seconds`` at the reference commit, see ``workloads.passes_for``),
and prints ``RESULT`` with the per-op records as JSON.  With ``--trace 1``
untraced and traced passes alternate, so the tracing overhead and the
identity of traced and untraced outputs are measured in one run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from tracer import Tracer, layer_totals, load_spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
FIGURE_TIMEOUT_S = 60


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PAW_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_now() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Runner:
    """Executes ops of one workload and checks each result against its oracle."""

    def __init__(self, workload: str, work: Path, trace: bool) -> None:
        self.workload = workload
        self.work = work
        self.tracer = Tracer() if trace else None
        self.references = oracles.load()
        self.states: dict[int, object] = {}
        self.import_s = None
        self.counter = 0
        self.span_log: list[dict] = []
        if workload != "figures" or trace:
            start = time.perf_counter()
            import pawclock.cli  # noqa: F401  (timed fresh import)
            self.import_s = time.perf_counter() - start

    def prepare(self, ops: list[dict]) -> None:
        """Build the workload's input states once, before the timed loop."""
        if self.workload == "dense-spacetime":
            from pawclock.pawstate import dense_family_state

            for mass in sorted({op["mass"] for op in ops}):
                self.states[mass] = dense_family_state(mass)

    # -- ops ---------------------------------------------------------------

    def run(self, op: dict, traced: bool) -> dict:
        """Run one op; returns its record (timing, outcome, digest, layer totals)."""
        in_process = op["kind"] != "figure"
        if traced and in_process:
            self.tracer.install()
            self.tracer.op_id = op["id"]
        try:
            if op["kind"] == "figure":
                record = self._figure(op, traced)
            elif op["kind"] == "verify":
                record = self._verify(op)
            else:
                record = self._marginal(op)
        finally:
            if traced and in_process:
                self.tracer.uninstall()
        if traced and in_process:
            self._log_spans(op, record, self.tracer.take())
        record.update(id=op["id"], traced=traced)
        return record

    def _log_spans(self, op: dict, record: dict, spans: list[list]) -> None:
        record["layers"] = layer_totals(spans)
        self.span_log.append({"op": op["id"], "spans": spans})

    def _figure(self, op: dict, traced: bool) -> dict:
        self.counter += 1
        out = self.work / f"op{self.counter}"
        spans_path = self.work / f"spans{self.counter}.json"
        argv = ["figure", op["name"], "--out", str(out)]
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), op["id"], *argv]
        else:
            cmd = [sys.executable, "-m", "pawclock", *argv]
        cpu = cpu_now()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=FIGURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu
        record = {"wall": wall, "cpu": cpu, "unexpected": False}
        try:
            if proc is None:
                record.update(passed=False, failed=["timeout"], unexpected=True)
                return record
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                record.update(passed=False, failed=[f"exit_code_{proc.returncode}"],
                              unexpected=True)
                return record
            summary = oracles.figure_summary(out, op["name"])
            reference = self.references["figures"][op["name"]]
            failed = oracles.check_figure(summary, reference)
            record.update(
                passed=not failed, failed=failed, unexpected=bool(failed),
                digest=summary["csv_sha256"] + hashlib.sha256(
                    (out / f"{op['name']}.json").read_bytes()).hexdigest(),
                csv_identical=int(summary["csv_sha256"] == reference["csv_sha256"]),
                bytes_written=tree_bytes(out) + len(proc.stdout))
            if traced:
                self._log_spans(op, record, load_spans(spans_path))
        finally:
            shutil.rmtree(out, ignore_errors=True)
            spans_path.unlink(missing_ok=True)
        return record

    def _verify(self, op: dict) -> dict:
        cli = sys.modules["pawclock.cli"]
        stdout, stderr = io.StringIO(), io.StringIO()
        cpu = cpu_now()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any crash is a failed op, not a crashed run
            code = None
            stderr.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu
        text = stdout.getvalue()
        try:
            report = json.loads(text) if code in (0, 1) else None
        except json.JSONDecodeError:
            report = None
        if report is None and stderr.getvalue():
            sys.stderr.write(stderr.getvalue() + "\n")
        passed, failed, unexpected = oracles.check_verify(
            op, code, report, self.references["verify"])
        return {"wall": wall, "cpu": cpu, "passed": passed, "failed": failed,
                "unexpected": unexpected, "bytes_written": len(text.encode()),
                "digest": hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()}

    def _marginal(self, op: dict) -> dict:
        # Looked up per call, so a traced pass gets the wrapped function.
        function = getattr(sys.modules["pawclock.marginals"], f"marginal_{op['call']}")
        state = self.states[op["mass"]]
        cpu = cpu_now()
        start = time.perf_counter()
        try:
            result = function(state)
        except Exception as exc:  # any crash is a failed op, not a crashed run
            wall = time.perf_counter() - start
            sys.stderr.write(f"{op['id']}: {type(exc).__name__}: {exc}\n")
            return {"wall": wall, "cpu": cpu_now() - cpu, "passed": False,
                    "failed": [type(exc).__name__], "unexpected": True}
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu
        summary = oracles.marginal_summary(op["call"], result)
        failed = oracles.check_marginal(summary, self.references["marginals"][op["id"]])
        digest = summary["sha256"] + json.dumps(summary.get("interference"), sort_keys=True)
        return {"wall": wall, "cpu": cpu, "passed": not failed, "failed": failed,
                "unexpected": bool(failed), "bytes_written": 0,
                "digest": hashlib.sha256(digest.encode()).hexdigest()}

    def warm_up(self) -> None:
        op = workloads.warmup_op(self.workload)
        if op["kind"] == "marginal":
            from pawclock import marginals
            from pawclock.pawstate import dense_family_state

            state = dense_family_state(op["mass"])
            marginals.marginal_space_time(state)
            marginals.marginal_phase_space(state)
            marginals.marginal_energy_time(state)
            return
        self.counter += 1
        if op["kind"] == "figure":
            out = self.work / f"op{self.counter}"
            proc = subprocess.run(
                [sys.executable, "-m", "pawclock", "figure", op["name"], "--out", str(out)],
                env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=FIGURE_TIMEOUT_S)
            shutil.rmtree(out, ignore_errors=True)
            code = proc.returncode
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                code = sys.modules["pawclock.cli"].main(op["argv"])
        if code != 0:
            raise RuntimeError(f"warm-up op failed with exit code {code}")


def environment() -> dict:
    import numpy
    import scipy
    from pawclock import marginals

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_threads": marginals._worker_count(),
        "paw_threads_env": os.environ.get("PAW_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    runner = Runner(args.workload, args.work, bool(args.trace))
    ops = workloads.op_list(args.workload, args.seed)
    runner.prepare(ops)
    runner.warm_up()
    print("READY " + json.dumps({"import_s": runner.import_s}), flush=True)
    if args.mode == "setup":
        return 0

    records = []
    # A traced run alternates untraced and traced passes, as many of each.
    passes = workloads.passes_for(args.workload, args.seconds) * (2 if args.trace else 1)
    start = time.perf_counter()
    for index in range(passes):
        traced = bool(args.trace) and index % 2 == 1
        for op in ops:
            records.append({**runner.run(op, traced), "pass": index})
    measured_s = time.perf_counter() - start
    if args.trace:
        traces = ROOT / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(runner.span_log, handle)
    children_rss = args.workload == "figures"
    who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
    result = {
        "children_rss": children_rss,
        "records": records,
        "passes": passes,
        "ops_per_pass": len(ops),
        "measured_s": measured_s,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "environment": environment(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
