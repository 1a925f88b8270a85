"""Seeded op lists for the three benchmark workloads.

Every op is a plain JSON-ready dict, so the op list can be compared across
runs and handed to a worker process unchanged.  The program sees only these
generated inputs; the seed stays with the benchmark.

* ``figures``: one ``pawclock figure <name>`` subprocess per op.
* ``verify-ladder``: one in-process ``pawclock verify`` call per op.
* ``dense-spacetime``: one in-process marginal call per op.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("figures", "verify-ladder", "dense-spacetime")

FIGURE_NAMES = ("chi2-j3", "chi2-largeJ", "marg-pq", "marg-et", "marg-qt",
                "orbits-pq", "orbits-et")

DENSE_VERIFY_MASSES = (10, 20, 40, 170)
LARGE_J_VALUES = (30, 120, 570)
DENSE_MARGINAL_MASSES = (10, 20, 40)

# Wall time of one pass at the reference commit on a 2-vCPU machine.  A run
# holds round(--seconds / NOMINAL_PASS_S) whole passes (at least one), so it
# lasts about --seconds there, and every commit is measured on the same
# number of ops: percentiles then compare like with like.
NOMINAL_PASS_S = {"figures": 7.5, "verify-ladder": 3.8, "dense-spacetime": 33.0}

RANDOM_STATES = 4
MAX_TWO_J = 1140
MAX_RANDOM_BRANCHES = 6
# The bounds keep kappa*r = (2*i_n+1)/(2*i_m) at most 7/2, so Fock levels stay
# within a few thousand and every random verify costs about as much as the
# small ladder states.
MAX_I_M = 40
MAX_I_N = 3


def _dense_verify(mass: int) -> dict:
    return {"id": f"verify:dense-M{mass}", "kind": "verify", "expect": "valid",
            "argv": ["verify", "--two-j", str(3 * mass), "--m", str(mass),
                     "--kappa-r", "1/2"]}


def _large_j_verify(j_value: int) -> dict:
    # eps*J = 3*omega/4: kappa*r = 3/(4J) puts equal weight on the two pairs
    # (m+J, n) = (2J/3, 0) and (2J, 1), the large_j_pair_state family.
    ratio = Fraction(3, 4 * j_value)
    return {"id": f"verify:largeJ-J{j_value}", "kind": "verify", "expect": "valid",
            "argv": ["verify", "--two-j", str(2 * j_value), "--m", "1",
                     "--kappa-r", f"{ratio.numerator}/{ratio.denominator}"]}


def random_state(rng: random.Random, stratum: int) -> dict:
    """A random admissible state: odd/even kappa*r, 2J <= 1140, complex coefficients.

    2J is drawn from the ``stratum``-th of RANDOM_STATES equal slices of
    1..1140, so every pass covers the whole range once and the cost of a
    pass, which grows with 2J, varies less from seed to seed.

    Returns the state as build_state arguments in JSON form: ``two_j``,
    ``mass``, ``kappa_r`` as [numerator, denominator] and ``coefficients``
    as [m+J, re, im] entries on 2..6 distinct allowed branches.
    """
    low = stratum * MAX_TWO_J // RANDOM_STATES + 1
    high = (stratum + 1) * MAX_TWO_J // RANDOM_STATES
    while True:
        i_m = rng.randint(1, MAX_I_M)
        i_n = rng.randint(0, MAX_I_N)
        if math.gcd(2 * i_n + 1, 2 * i_m) == 1 and 3 * i_m <= high:
            break
    two_j = rng.randint(max(low, 3 * i_m), high)
    l_max = (two_j - i_m) // (2 * i_m)
    count = rng.randint(2, min(MAX_RANDOM_BRANCHES, l_max + 1))
    labels = sorted(rng.sample(range(l_max + 1), count))
    coefficients = []
    for label in labels:
        re, im = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        if re == 0.0 and im == 0.0:
            re = 1.0
        coefficients.append([i_m * (2 * label + 1), re, im])
    return {"two_j": two_j, "mass": rng.randint(1, 200),
            "kappa_r": [2 * i_n + 1, 2 * i_m], "coefficients": coefficients}


def _state_argv(state: dict) -> list[str]:
    num, den = state["kappa_r"]
    argv = ["verify", "--two-j", str(state["two_j"]), "--m", str(state["mass"]),
            "--kappa-r", f"{num}/{den}"]
    for key, re, im in state["coefficients"]:
        argv += ["--coeff", f"{key}={complex(re, im)!r}"]
    return argv


def _tampered(op: dict) -> dict:
    return {**op, "id": op["id"] + ":tampered", "expect": "tampered",
            "argv": op["argv"] + ["--tamper-shift-n", "1"]}


def verify_ladder_ops(rng: random.Random) -> list[dict]:
    dense = [_dense_verify(mass) for mass in DENSE_VERIFY_MASSES]
    large = [_large_j_verify(j) for j in LARGE_J_VALUES]
    randoms = []
    for index in range(RANDOM_STATES):
        state = random_state(rng, index)
        randoms.append({"id": f"verify:random-{index}", "kind": "verify",
                        "expect": "valid", "argv": _state_argv(state),
                        "state": state})
    # The cheap ladder states are all tampered, so that the middle of a
    # pass's latencies, where op_p50_s falls, is mostly fixed inputs.
    tampered = [_tampered(op) for op in (dense[0], dense[1], large[0], large[1], randoms[0])]
    return dense + large + randoms + tampered


def figure_ops() -> list[dict]:
    return [{"id": f"figure:{name}", "kind": "figure", "name": name}
            for name in FIGURE_NAMES]


def _marginal(call: str, mass: int) -> dict:
    return {"id": f"{call}:M{mass}", "kind": "marginal", "call": call, "mass": mass}


def dense_spacetime_ops() -> list[dict]:
    # Each space-time call is followed by a round of the two O(N) marginals
    # on every state, its own included.  op_p50_s falls on those sub-second
    # calls; three rounds spread across the pass give each of them three
    # samples taken seconds apart, where one would swing with a single stall.
    ops = []
    for mass in DENSE_MARGINAL_MASSES:
        ops.append(_marginal("space_time", mass))
        ops += [_marginal(call, other) for other in DENSE_MARGINAL_MASSES
                for call in ("phase_space", "energy_time")]
    return ops


def op_list(workload: str, seed: int) -> list[dict]:
    """The fixed op list of one pass; the same seed gives the same list.

    Op order is fixed: it changes allocator and cache state between ops, so
    a seeded order would add run-to-run spread.  Only the random verify
    states depend on the seed; ``figures`` and ``dense-spacetime`` are fixed
    inputs.
    """
    if workload == "figures":
        return figure_ops()
    if workload == "verify-ladder":
        return verify_ladder_ops(random.Random(f"{workload}:{seed}"))
    if workload == "dense-spacetime":
        return dense_spacetime_ops()
    raise ValueError(f"unknown workload {workload!r}")


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes one run measures."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def warmup_op(workload: str) -> dict:
    """The untimed op run once in set-up; small, but on the same code paths."""
    if workload == "figures":
        return {"id": "warmup", "kind": "figure", "name": "chi2-j3"}
    if workload == "verify-ladder":
        # No state flags: verify falls back to the J = 3 reference state.
        return {"id": "warmup", "kind": "verify", "expect": "valid", "argv": ["verify"]}
    if workload == "dense-spacetime":
        return {"id": "warmup", "kind": "marginal", "call": "all", "mass": 2}
    raise ValueError(f"unknown workload {workload!r}")
