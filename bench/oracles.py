"""Reference values for every benchmark op, and the checks against them.

The reference file ``bench/oracles.json`` is generated once from the program
and kept with the benchmark:

    PYTHONPATH=src python3 bench/oracles.py

A result fails an oracle when a number differs from its reference by more
than REL_TOL of the reference plus ABS_SHARE of the largest magnitude in the
same column or grid, or when anything else differs (shapes, headers, keys,
exit codes).  Byte identity of figure CSVs is only reported, never a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE_PATH = Path(__file__).resolve().parent / "oracles.json"

REL_TOL = 1e-9
ABS_SHARE = 1e-12
SAMPLED_ROWS = 41

# Verify checks that fail on valid states at the reference commit.  A valid
# state that fails only these counts as a failed op but is a known defect,
# not an unexpected result:
# - schrodinger_order_two: the finite-difference step sits in the rounding
#   regime at large 2J (dense M >= 40 and most large random states);
# - beta_normalized: the Gauss-Laguerre rule overflows for Fock levels above
#   a few hundred (random states with large kappa*r*2J).
KNOWN_DEFECT_CHECKS = frozenset({"schrodinger_order_two", "beta_normalized"})


def load() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def close(value: float, reference: float, scale: float = 0.0) -> bool:
    if math.isnan(reference):
        return math.isnan(value)
    if math.isinf(reference):
        return value == reference
    return abs(value - reference) <= REL_TOL * abs(reference) + ABS_SHARE * scale


def same_document(value, reference) -> bool:
    """JSON structures equal, with numbers compared at REL_TOL."""
    if isinstance(reference, bool) or reference is None or isinstance(reference, str):
        return value == reference
    if isinstance(reference, (int, float)):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and close(float(value), float(reference)))
    if isinstance(reference, list):
        return (isinstance(value, list) and len(value) == len(reference)
                and all(same_document(v, r) for v, r in zip(value, reference)))
    if isinstance(reference, dict):
        return (isinstance(value, dict) and value.keys() == reference.keys()
                and all(same_document(value[k], reference[k]) for k in reference))
    return False


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def sample_indices(rows: int) -> list[int]:
    if rows <= SAMPLED_ROWS:
        return list(range(rows))
    return sorted({round(i * (rows - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)})


def figure_summary(out_dir: Path, name: str) -> dict:
    """Header, row count, sampled rows and digest of a figure CSV, plus its sidecar."""
    data = (out_dir / f"{name}.csv").read_bytes()
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    rows = lines[1:]
    with open(out_dir / f"{name}.json", encoding="utf-8") as handle:
        sidecar = json.load(handle)
    return {
        "header": lines[0].decode() if lines else "",
        "rows": len(rows),
        "sampled": {str(i): [float(x) for x in rows[i].split(b",")]
                    for i in sample_indices(len(rows))},
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "sidecar": sidecar,
    }


def check_figure(summary: dict, reference: dict) -> list[str]:
    """Names of the failed checks of one figure op (empty when it matches)."""
    failed = []
    if summary["header"] != reference["header"]:
        failed.append("csv_header")
    if summary["rows"] != reference["rows"]:
        failed.append("csv_rows")
    elif summary["sampled"].keys() != reference["sampled"].keys() or not all(
            len(summary["sampled"][i]) == len(row)
            and all(close(v, r, s) for v, r, s in
                    zip(summary["sampled"][i], row, reference["column_scale"]))
            for i, row in reference["sampled"].items()):
        failed.append("csv_values")
    if not same_document(summary["sidecar"], reference["sidecar"]):
        failed.append("sidecar")
    return failed


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(op: dict, code: int, report: dict | None,
                 references: dict) -> tuple[bool, list[str], bool]:
    """(op passed, failed check names, result unexpected) for one verify op.

    A valid state passes when verify exits 0 with ``all_passed``; a tampered
    copy passes when verify exits 1 with ``constraint_residual_zero`` failed.
    The result is unexpected when it breaks any oracle other than a known
    defect: a failure outside KNOWN_DEFECT_CHECKS, an exit code other than
    0/1, a report for another state, or a tampered state not caught.
    """
    if report is None:
        return False, [f"exit_code_{code}"], True
    failed = [check["name"] for check in report["checks"] if not check["passed"]]
    expected_code = 0 if not failed else 1
    unexpected = code != expected_code or report["all_passed"] != (not failed)
    if op["expect"] == "tampered":
        passed = code == 1 and "constraint_residual_zero" in failed
        unexpected = unexpected or not passed
    else:
        passed = code == 0 and not failed
        unexpected = unexpected or not set(failed) <= KNOWN_DEFECT_CHECKS
    reference = references.get(op["id"])
    if reference is not None:
        if not same_document(report["state"], reference["state"]):
            failed.append("state_summary")
            passed, unexpected = False, True
    elif "state" in op and not _matches_state(report["state"], op):
        failed.append("state_summary")
        passed, unexpected = False, True
    return passed, failed, unexpected


def _matches_state(summary: dict, op: dict) -> bool:
    """A report's state summary against a generated random state."""
    from fractions import Fraction

    state = op["state"]
    ratio = Fraction(*state["kappa_r"])
    shift = 1 if op["expect"] == "tampered" else 0
    norm = sum(re * re + im * im for _, re, im in state["coefficients"])
    expected = [{"m_plus_J": k, "n": int(ratio * k - Fraction(1, 2)) + shift,
                 "weight": (re * re + im * im) / norm}
                for k, re, im in state["coefficients"]]
    return (summary["two_J"] == state["two_j"] and summary["M"] == state["mass"]
            and summary["epsilon_over_omega"] == [ratio.numerator, ratio.denominator]
            and same_document(summary["branches"], expected))


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def marginal_summary(call: str, result) -> dict:
    """Shape, totals and digest of one marginal grid (and interference report)."""
    import numpy as np

    grid, report = result if call == "space_time" else (result, None)
    values = grid.values
    flat = values.ravel()
    sampled = np.linspace(0, flat.size - 1, SAMPLED_ROWS).astype(int)
    summary = {
        "shape": list(values.shape),
        "sum": float(values.sum()),
        "max": float(values.max()),
        "mass": grid.mass(),
        "sampled": [float(flat[i]) for i in sampled],
        "sha256": hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
    }
    if report is not None:
        summary["interference"] = {key: getattr(report, key) for key in (
            "clock_suppression_factor", "oscillator_suppression_factor",
            "i1", "i2", "i_int", "ratio")}
    return summary


def check_marginal(summary: dict, reference: dict) -> list[str]:
    failed = []
    if summary["shape"] != reference["shape"]:
        return ["grid_shape"]
    scale = reference["max"]
    for key in ("sum", "max", "mass"):
        if not close(summary[key], reference[key], scale):
            failed.append(f"grid_{key}")
    if not all(close(v, r, scale) for v, r in zip(summary["sampled"], reference["sampled"])):
        failed.append("grid_values")
    if "interference" in reference and not same_document(
            summary.get("interference"), reference["interference"]):
        failed.append("interference_report")
    return failed


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _generate() -> dict:
    import contextlib
    import io
    import os
    import random

    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from pawclock import cli, marginals, pawstate

    import workloads

    env = {key: value for key, value in os.environ.items() if key != "PAW_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    scratch = ROOT / ".bench_work" / "oracles"
    figures = {}
    for name in workloads.FIGURE_NAMES:
        out = scratch / name
        subprocess.run([sys.executable, "-m", "pawclock", "figure", name, "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        summary = figure_summary(out, name)
        table = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
        summary["column_scale"] = [float(x) for x in np.abs(table).max(axis=0)]
        figures[name] = summary
    shutil.rmtree(scratch)

    verify = {}
    for op in workloads.verify_ladder_ops(random.Random(0)):
        if "state" in op:
            continue
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op["argv"])
        report = json.loads(buffer.getvalue())
        verify[op["id"]] = {
            "exit_code": code,
            "failed_checks": [c["name"] for c in report["checks"] if not c["passed"]],
            "state": report["state"],
        }

    calls = {"space_time": marginals.marginal_space_time,
             "phase_space": marginals.marginal_phase_space,
             "energy_time": marginals.marginal_energy_time}
    dense = {}
    for mass in workloads.DENSE_MARGINAL_MASSES:
        state = pawstate.dense_family_state(mass)
        for call, function in calls.items():
            dense[f"{call}:M{mass}"] = marginal_summary(call, function(state))
    return {"figures": figures, "verify": verify, "marginals": dense}


if __name__ == "__main__":
    document = _generate()
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {ORACLE_PATH}")
