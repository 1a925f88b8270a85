"""Checks of the benchmark's seeded input generator.

    PYTHONPATH=src python3 -m pytest -q bench/check_inputs.py

The same seed must give the same op list, in this process and in a fresh
one, and every generated random state must be accepted by ``build_state``,
so that each failure the benchmark counts is the program's and not the
generator's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from pawclock import ClockSpec, OscillatorSpec, build_state  # noqa: E402

SEEDS = range(25)


def test_same_seed_gives_same_op_list():
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            assert workloads.op_list(workload, seed) == workloads.op_list(workload, seed)
    assert workloads.op_list("verify-ladder", 1) != workloads.op_list("verify-ladder", 2)


def test_op_list_does_not_depend_on_the_process():
    code = ("import json, workloads; print(json.dumps([workloads.op_list(w, 7) "
            "for w in workloads.WORKLOADS]))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [workloads.op_list(w, 7) for w in workloads.WORKLOADS]


def test_every_random_state_is_accepted_by_build_state():
    checked = 0
    for seed in SEEDS:
        for op in workloads.op_list("verify-ladder", seed):
            if "state" not in op:
                continue
            state = op["state"]
            ratio = Fraction(*state["kappa_r"])
            coefficients = {k: complex(re, im) for k, re, im in state["coefficients"]}
            built = build_state(ClockSpec(two_j=state["two_j"], epsilon=float(ratio)),
                                OscillatorSpec(mass=state["mass"], omega=1.0),
                                ratio, coefficients)
            assert built.support == tuple(sorted(coefficients))
            assert 2 <= len(built.support) <= workloads.MAX_RANDOM_BRANCHES
            assert built.two_j <= workloads.MAX_TWO_J
            checked += 1
    assert checked == len(SEEDS) * (workloads.RANDOM_STATES + 1)


def test_each_pass_holds_the_whole_ladder():
    ids = [op["id"] for op in workloads.op_list("verify-ladder", 3)]
    for mass in workloads.DENSE_VERIFY_MASSES:
        assert f"verify:dense-M{mass}" in ids
    for j_value in workloads.LARGE_J_VALUES:
        assert f"verify:largeJ-J{j_value}" in ids
    assert sum(op_id.endswith(":tampered") for op_id in ids) == 5
    assert sorted(op["name"] for op in workloads.op_list("figures", 3)) == sorted(
        workloads.FIGURE_NAMES)
    dense = [op["id"] for op in workloads.op_list("dense-spacetime", 3)]
    assert len(set(dense)) == 9
    assert dense.count("space_time:M40") == 1 and dense.count("phase_space:M40") == 3
