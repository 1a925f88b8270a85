"""End-to-end tests of the command line interface.

Most run the CLI as a subprocess; the verify property and memory bound call
``cli.main`` in process, where hypothesis and tracemalloc can see it.
"""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pawclock
from pawclock import cli
from pawclock.cli import build_parser
from pawclock.pawstate import spin3_pair_state, state_to_dict

BASE = [sys.executable, "-m", "pawclock"]
SPIN3 = ["--two-j", "6", "--m", "1", "--kappa-r", "3/4"]
# Each run imports the package this suite imports, installed or not.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(pawclock.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(*argv, check=False):
    """Run the CLI in a fresh interpreter and capture both streams."""
    result = subprocess.run(BASE + list(argv), capture_output=True, text=True, env=ENV)
    if check:
        assert result.returncode == 0, result.stderr or result.stdout
    return result


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_golden_table():
    """The two allowed pairs for kappa*r = 3/4 at 2J = 6, formatted exactly."""
    result = run_cli("enumerate", "--kappa-r", "3/4", "--two-j", "6", check=True)
    assert result.stdout.splitlines() == [
        "kappa*r = 3/4 = (2*1+1)/(2*2), 2J = 6",
        "   l    m+J        m        n",
        "   0      2       -1        1",
        "   1      6        3        4",
        "2 pair(s); entanglement admissible: yes",
    ]


def test_enumerate_half_integer_m_not_admissible():
    result = run_cli("enumerate", "--kappa-r", "3/4", "--two-j", "5", check=True)
    lines = result.stdout.splitlines()
    assert "   0      2     -1/2        1" in lines
    assert lines[-1] == "1 pair(s); entanglement admissible: no"


def test_enumerate_rejected_ratio_is_diagnostic_not_error():
    """A ratio with no odd/even form explains itself and still exits 0."""
    result = run_cli("enumerate", "--kappa-r", "2/3", "--two-j", "40")
    assert result.returncode == 0
    assert result.stdout.startswith("no allowed pairs:")
    assert "odd/even" in result.stdout


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_malformed_rational_exits_two():
    result = run_cli("enumerate", "--kappa-r", "abc", "--two-j", "6")
    assert result.returncode == 2


@pytest.mark.parametrize("argv", [
    ["build", "--two-j", "6", "--kappa-r", "0", "--m", "1"],
    ["build", "--two-j", "6", "--epsilon-over-omega", "0", "--m", "1"],
    ["build", "--two-j", "6", "--kappa-r", "3/-4", "--m", "1"],
    ["enumerate", "--kappa-r", "0", "--two-j", "6"],
])
def test_non_positive_ratio_exits_two(argv):
    """A ratio <= 0 is a malformed argument, refused before any state is built."""
    result = run_cli(*argv)
    assert result.returncode == 2, result.stderr
    assert "expected a ratio > 0" in result.stderr


def test_cli_import_loads_no_scipy():
    """scipy is a test oracle only: the command line never imports it."""
    probe = "import sys, pawclock.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=ENV, check=True)
    assert result.stdout.strip() == "[]"


def probe(code, **env):
    """stdout of ``code`` in a fresh interpreter; an ``env`` value of None unsets it."""
    child = {**ENV, **env}
    child = {key: value for key, value in child.items() if value is not None}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child, check=True)
    return result.stdout.split()


def test_package_import_loads_no_numpy():
    """``import pawclock`` loads no numpy and leaves the environment alone,
    so ``python -m pawclock`` can set the BLAS first."""
    code = ("import os, sys; before = dict(os.environ); import pawclock; "
            "print('numpy' in sys.modules, os.environ == before)")
    assert probe(code, OPENBLAS_NUM_THREADS=None) == ["False", "True"]


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")])
def test_command_runs_blas_on_one_thread_unless_set(given, seen):
    """The command's module sets OPENBLAS_NUM_THREADS=1 before numpy starts,
    as every product stays within marginals._BLAS_BOUND; a set value wins."""
    code = "import os, pawclock.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert probe(code, OPENBLAS_NUM_THREADS=given) == [seen]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_command_process_has_one_thread():
    """With the default setting, OpenBLAS starts no worker in the command's process."""
    code = ("import pawclock.__main__; print(*[line for line in open('/proc/self/status') "
            "if line.startswith('Threads:')])")
    assert probe(code, OPENBLAS_NUM_THREADS=None) == ["Threads:", "1"]


def test_lazy_exports_resolve_and_list():
    """Every name of __all__ imports by ``*``, is listed by dir() and is its
    module's object; an unknown name is an AttributeError."""
    code = """
from pawclock import *
import pawclock, pawclock.marginals
names = set(pawclock.__all__)
print(len(names) == len(pawclock.__all__), names <= set(dir(pawclock)),
      all(name in globals() for name in names),
      pawclock.marginal_phase_space is pawclock.marginals.marginal_phase_space)
try:
    pawclock.no_such_name
except AttributeError as exc:
    print("no_such_name" in str(exc))
"""
    assert probe(code) == ["True"] * 5


def test_out_of_memory_exits_one(monkeypatch, tmp_path, capsys):
    """A MemoryError, as numpy raises for an oversize grid, exits 1 with one
    error line and no traceback; nothing large is allocated here."""
    numpy_message = "Unable to allocate 5.97 GiB for an array with shape (801, 1000000)"
    for message in (numpy_message, ""):
        def figure(*_, message=message):
            raise MemoryError(message)

        monkeypatch.setitem(cli._FIGURES, "marg-qt", figure)
        assert cli.main(["figure", "marg-qt", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: out of memory{': ' + message if message else ''}\n"


def test_stray_state_flag_exits_two():
    result = run_cli("build", "--kappa-r", "3/4")
    assert result.returncode == 2
    assert "error:" in result.stderr


SPIN3_CONFIG = {"state": state_to_dict(spin3_pair_state())}


@pytest.mark.parametrize("argv, message", [
    (["build", "--m", "7"], "--m requires --two-j"),
    (["verify", "--m", "2", "--kappa-r", "3/4"], "--m, --kappa-r requires --two-j"),
    (["figure", "chi2-j3", "--m", "3"], "--m requires --two-j"),
    (["build", "--config", "CONFIG", "--m", "7"], "--m requires --two-j"),
    (["build", "--config", "CONFIG", "--coeff", "2=1"], "--coeff requires --two-j"),
    (["figure", "marg-et", "--config", "CONFIG", "--m", "4"], "--m requires --two-j"),
    (["figure", "chi2-largeJ", "--two-j", "6", "--kappa-r", "3/4"],
     "chi2-largeJ builds its states from --j-list alone, so it reads no --two-j, --kappa-r"),
    (["figure", "chi2-largeJ", "--config", "CONFIG", "--m", "4"],
     "chi2-largeJ builds its states from --j-list alone, so it reads no --m, "
     "config 'state'"),
], ids=["build-m", "verify-m", "chi2-j3-m", "config-m", "config-coeff", "config-marg-m",
        "largeJ-flags", "largeJ-config"])
def test_state_flag_that_no_state_reads_exits_two(argv, message, tmp_path):
    """A state flag is refused wherever it cannot reach the state: --m beside
    a config state or the fixed J = 3 example, and any state flag or config
    state on chi2-largeJ.  Each was dropped without a word, exit 0."""
    config = tmp_path / "state.json"
    config.write_text(json.dumps(SPIN3_CONFIG))
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "out")]
    result = run_cli(*argv, *out)
    assert result.returncode == 2, (result.stdout, result.stderr)
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("name", ["marg-pq", "marg-et", "marg-qt"])
def test_odd_m_on_a_balanced_figure_exits_two(name, tmp_path):
    """The marg-* fallback holds Fock levels M and M/2, so an odd --m is a
    malformed argument: exit 2 and one error line, where it exited 1."""
    result = run_cli("figure", name, "--m", "3", "--out", str(tmp_path))
    assert result.returncode == 2, (result.stdout, result.stderr)
    assert result.stderr.splitlines() == ["error: --m 3: mass must be an even integer >= 2"]
    assert not list(tmp_path.iterdir())


def test_fallback_states_read_m(tmp_path):
    """The orbit fallback is a family in M, so --m reaches it; chi2-largeJ
    still takes a config holding only grids."""
    run_cli("orbits", "--m", "3", "--samples", "4", "--out", str(tmp_path), check=True)
    assert json.loads((tmp_path / "orbits.json").read_text())["state"]["M"] == 3
    grids = tmp_path / "grids.json"
    grids.write_text(json.dumps({"grids": {"theta_count": 5}}))
    run_cli("figure", "chi2-largeJ", "--config", str(grids), "--j-list", "3",
            "--out", str(tmp_path), check=True)
    assert len((tmp_path / "chi2-largeJ.csv").read_text().splitlines()) == 6


def test_unknown_config_key_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"stat": {"two_J": 6}}))
    result = run_cli("build", "--config", str(path))
    assert result.returncode == 2
    assert "stat" in result.stderr


def test_unknown_figure_exits_three():
    result = run_cli("figure", "no-such-plot")
    assert result.returncode == 3
    assert "choose from" in result.stderr


SPIN3_ENTRIES = [{"m_plus_J": 2, "re": 1.0, "im": 0.0}, {"m_plus_J": 6, "re": 1.0, "im": 0.0}]


def spin3_document(**changes):
    """The spin3 reference state as a state document; a change to None drops the key."""
    document = {"two_J": 6, "epsilon_over_omega": [3, 4], "M": 1,
                "coefficients": SPIN3_ENTRIES}
    document.update(changes)
    return {key: value for key, value in document.items() if value is not None}


def test_inadmissible_state_exits_four(tmp_path):
    """2J = 3 leaves a single allowed pair: no entanglement is possible.

    The same state read from a config is well formed, so it also exits 4.
    """
    result = run_cli("build", "--two-j", "3", "--m", "1", "--kappa-r", "3/4")
    assert result.returncode == 4
    assert "not admissible" in result.stderr
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state": spin3_document(two_J=3)}))
    result = run_cli("build", "--config", str(path), "--out", str(tmp_path / "out"))
    assert result.returncode == 4
    assert "not admissible" in result.stderr


HUGE_RATIO = [2 * 10**400 + 1, 2]  # about 1e400: beyond the largest float


@pytest.mark.parametrize("command", ["verify", "build", "chi2"])
def test_ratio_beyond_float_exits_two(command, tmp_path):
    """eps/omega sets the float clock spacing, so a ratio too large for a
    float is refused with one error line, from the flags and from a config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state": spin3_document(epsilon_over_omega=HUGE_RATIO)}))
    for flags in (["--two-j", "6", "--m", "1", "--kappa-r", "{}/{}".format(*HUGE_RATIO)],
                  ["--epsilon-over-omega", "{}/{}".format(*HUGE_RATIO), "--two-j", "6"],
                  ["--config", str(path)]):
        result = run_cli(command, *flags)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, result.stderr
        assert errors[0].endswith("eps/omega is too large for a float (over 1.8e308)")


HUGE_MASS = 10**400  # beyond the largest float


@pytest.mark.parametrize("command", [
    ["orbits"], ["figure", "orbits-pq"], ["figure", "marg-pq"], ["figure", "marg-qt"],
    ["figure", "marg-et"], ["beta", "--theta", "1"], ["build"], ["chi2"],
    ["conditional", "--theta", "1"], ["verify"]],
    ids=["orbits", "orbits-pq", "marg-pq", "marg-qt", "marg-et", "beta", "build", "chi2",
         "conditional", "verify"])
def test_mass_beyond_float_exits_two(command, tmp_path):
    """M scales the float oscillator charts, so an M too large for a float is
    refused with one error line, from --m and from a config.  It was an
    OverflowError traceback, a zero-width e axis (marg-et), or a state that
    build, chi2, conditional and verify accepted."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state": spin3_document(M=HUGE_MASS)}))
    out = ["--out", str(tmp_path / "out")] if command[0] in {"orbits", "figure", "chi2"} else []
    for flags in (["--two-j", "3", "--epsilon-over-omega", "1/2", "--m", str(HUGE_MASS)],
                  ["--config", str(path)]):
        result = run_cli(*command, *flags, *out)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, result.stderr
        assert errors[0].endswith("mass M is too large for a float (over 1.8e308)")


# balanced M = 170 at a reading where chi^2 = e^-940.5 underflows a double
FAR_READING = ["--two-j", "510", "--m", "170", "--kappa-r", "1/2",
               "--coeff", "171=1", "--coeff", "341=1", "--theta", "0.05"]


def test_degenerate_theta_exits_one():
    """chi^2 is exactly 0 only at theta = 0; where it merely underflows, the
    conditional state is printed under chi^2 = 0 with norm 1."""
    result = run_cli("conditional", *FAR_READING[:-1], "0")
    assert result.returncode == 1
    assert "error:" in result.stderr
    result = run_cli("conditional", *FAR_READING, check=True)
    lines = result.stdout.splitlines()
    assert lines[0].endswith(", chi^2 = 0") and lines[-1] == "norm = 1.000000000000000"


MALFORMED_SETTINGS = {
    "count-string": ({"grids": {"q_count": "x"}}, []),
    "count-fraction": ({"grids": {"theta_count": 2.9}}, []),
    "tolerance-string": ({"tolerances": {"log_chi": "abc"}}, []),
    "tolerance-bool": ({"tolerances": {"log_chi": True}}, []),
    "start-null": ({"grids": {"q_start": None}}, []),
    "dphi-flag": ({}, ["--tol", "dphi=1e-6"]),
    "state-unknown-key": ({"state": spin3_document(mass=1)}, []),
    "state-missing-key": ({"state": spin3_document(M=None)}, []),
    "state-bad-entry": ({"state": spin3_document(
        coefficients=[{"m_plus_J": 2, "re": 1.0}, SPIN3_ENTRIES[1]])}, []),
    "state-re-nan": ({"state": spin3_document(
        coefficients=[{**SPIN3_ENTRIES[0], "re": math.nan}, SPIN3_ENTRIES[1]])}, []),
    "state-ratio-int": ({"state": spin3_document(epsilon_over_omega=3)}, []),
    "state-zero-denominator": ({"state": spin3_document(epsilon_over_omega=[3, 0])}, []),
    "state-re-string": ({"state": spin3_document(
        coefficients=[{**SPIN3_ENTRIES[0], "re": "x"}, SPIN3_ENTRIES[1]])}, []),
    "experiment-key": ({"experiment": "anything at all"}, []),
    "tamper-shift-below-zero": ({"tamper_shift_n": -5}, []),
    "tamper-flag-below-zero": ({}, ["--tamper-shift-n", "-5"]),
}


def test_settings_are_typed_by_one_table(tmp_path):
    """Malformed settings exit 2, and a count is read alike in any integral form.

    Each value of MALFORMED_SETTINGS exits 2 with an error line, no
    traceback and no report, so no check has run; a case with a state
    document gives no state flags, so the document is read.  A tamper shift
    that would push a Fock level of the J = 3 state below 0 is malformed
    too.  q_count as "801" or 801.0 writes the CSV of --grid q_count=801.
    """
    path = tmp_path / "config.json"
    for case, (config, flags) in MALFORMED_SETTINGS.items():
        path.write_text(json.dumps(config))
        state_flags = [] if "state" in config else SPIN3
        result = run_cli("verify", *state_flags, "--config", str(path), *flags)
        assert result.returncode == 2, (case, result.stdout, result.stderr)
        assert "error:" in result.stderr, case
        assert "Traceback" not in result.stderr, case
        assert not result.stdout, case

    args = ("figure", "marg-qt", "--m", "10", "--grid", "t_count=16")
    run_cli(*args, "--grid", "q_count=801", "--out", str(tmp_path / "flag"), check=True)
    expected = (tmp_path / "flag" / "marg-qt.csv").read_bytes()
    for name, count in (("string", "801"), ("float", 801.0)):
        path.write_text(json.dumps({"grids": {"q_count": count}}))
        run_cli(*args, "--config", str(path), "--out", str(tmp_path / name), check=True)
        assert (tmp_path / name / "marg-qt.csv").read_bytes() == expected, name


BAD_COUNTS_AND_AXES = {
    "grid theta_count=0": ["figure", "chi2-j3", "--grid", "theta_count=0"],
    "grid theta_count=-3": ["figure", "chi2-j3", "--grid", "theta_count=-3"],
    "grid q_count=1": ["figure", "marg-pq", "--grid", "q_count=1"],
    "grid t_count=1": ["figure", "marg-qt", "--m", "10", "--grid", "t_count=1"],
    "grid e_stop=-1": ["figure", "marg-et", "--grid", "e_stop=-1"],
    "grid q_stop=inf": ["figure", "marg-pq", "--grid", "q_stop=inf"],
    "chi2 --theta-count 0": ["chi2", "--theta-count", "0"],
    "figure --theta-count 0": ["figure", "chi2-largeJ", "--theta-count", "0"],
    "orbits --samples 0": ["orbits", "--m", "4", "--samples", "0"],
    "figure --samples -1": ["figure", "orbits-pq", "--m", "4", "--samples", "-1"],
    "config samples 0": ["orbits", "--m", "4", "--config", "{config}"],
    "build --m 0": ["build", "--two-j", "6", "--m", "0", "--kappa-r", "3/4"],
    "build --m -2": ["build", "--two-j", "6", "--m", "-2", "--kappa-r", "3/4"],
    "figure --m 0": ["figure", "marg-pq", "--m", "0"],
    "orbits --m 0": ["orbits", "--m", "0"],
    "enumerate --two-j 0": ["enumerate", "--two-j", "0", "--kappa-r", "3/4"],
    "schrodinger --halvings 0": ["schrodinger", "--halvings", "0"],
    "schrodinger --halvings 1": ["schrodinger", "--halvings", "1"],
    "conditional --theta 4": ["conditional", "--theta", "4"],
    "conditional --theta -1": ["conditional", "--theta", "-1"],
    "schrodinger --theta 4": ["schrodinger", "--theta", "4"],
    "conditional --phi nan": ["conditional", "--theta", "1", "--phi", "nan"],
    "beta --phi -0.5": ["beta", "--theta", "1", "--phi", "-0.5"],
    "beta --big-q nan": ["beta", "--theta", "1", "--big-q", "nan"],
    "schrodinger --dphi 0": ["schrodinger", "--dphi", "0"],
    "schrodinger --dphi nan": ["schrodinger", "--dphi", "nan"],
    "figure --j-list 4": ["figure", "chi2-largeJ", "--j-list", "4"],
    "build --coeff 2=nan": ["build", *SPIN3, "--coeff", "2=nan", "--coeff", "6=1"],
    "build --coeff 2=inf": ["build", *SPIN3, "--coeff", "2=inf", "--coeff", "6=1"],
}
# Subcommands that take --out; the others are run without it.
WRITERS = {"build", "chi2", "figure", "orbits"}


def test_counts_and_axes_are_validated(tmp_path):
    """Every count is at least 1 and every axis has two samples and finite start < stop.

    So are the sizes, angles, steps, spins and amplitudes of the flags: M and
    2J at least 1, at least two halvings, theta in [0, pi], finite phi (and
    non-negative for beta, whose clock point needs phi >= 0), Q and P, a
    finite positive dphi, spins that are positive multiples of 3 and
    finite coefficients.
    Each case of BAD_COUNTS_AND_AXES exits 2 with an error line, no traceback
    and no output file; a count of 1 where one sample is meaningful is accepted.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grids": {"samples": 0}}))
    for case, argv in BAD_COUNTS_AND_AXES.items():
        out = tmp_path / case.replace(" ", "_")
        argv = [arg.format(config=config) for arg in argv]
        result = run_cli(*argv, *(["--out", str(out)] if argv[0] in WRITERS else []))
        assert result.returncode == 2, (case, result.stdout, result.stderr)
        assert "error:" in result.stderr, case
        assert "Traceback" not in result.stderr, case
        assert "unrecognized arguments" not in result.stderr, case
        assert not out.exists() or not list(out.iterdir()), case

    run_cli("chi2", "--theta-count", "1", "--out", str(tmp_path / "one"), check=True)
    rows = (tmp_path / "one" / "chi2.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,"), rows


@pytest.mark.parametrize("axis, argv", [
    ("Q", ["figure", "marg-pq", "--m", "4", "--grid", "q_start=-1e308",
           "--grid", "q_stop=1e308", "--grid", "q_count=5"]),
    ("e", ["figure", "marg-et", "--grid", "e_start=-1e308", "--grid", "e_stop=1e308"]),
], ids=["marg-pq", "marg-et"])
def test_axis_wider_than_a_float_exits_two(axis, argv, tmp_path):
    """An axis whose width stop - start overflows is refused before any
    sample is taken: exit 2, one error line and nothing else on stderr, no
    file."""
    result = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert result.returncode == 2, (result.stdout, result.stderr)
    assert result.stderr.splitlines() == [
        f"error: axis {axis} needs start < stop a finite width apart, got -1e+308 and 1e+308"]
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_phase_space_where_u_overflows_is_zero(tmp_path):
    """Cells whose U = M(Q^2 + P^2)/2 overflows a float hold density 0: exit 0,
    nothing on stderr (no numpy warning), every value finite."""
    result = run_cli("figure", "marg-pq", "--grid", "q_start=-1e200", "--grid", "q_stop=1e200",
                     "--grid", "q_count=5", "--grid", "p_count=5", "--out", str(tmp_path))
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    table = np.loadtxt(tmp_path / "marg-pq.csv", delimiter=",", skiprows=1)
    assert np.isfinite(table).all()
    assert (table[np.abs(table[:, 0]) >= 5e199, 2] == 0.0).all()
    assert (table[table[:, 0] == 0.0, 2] > 0.0).any()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_output_pipe_ends_quietly():
    """A reader that closes the pipe before the output comes ends the command
    by SIGPIPE, with nothing on stderr, as it ends cat."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.Popen(BASE + ["conditional", "--two-j", "510", "--m", "170",
                                         "--kappa-r", "1/2", "--theta", "1"],
                                 stdout=write_end, stderr=subprocess.PIPE, env=ENV)
    finally:
        os.close(write_end)
    _, stderr = child.communicate(timeout=120)
    assert (child.returncode, stderr) == (-signal.SIGPIPE, b"")


def test_axis_with_a_subnormal_step_exits_two(tmp_path):
    """Three samples from -1e-320 to 1e-320 are 1e-320 apart, below the smallest
    normal float, where linspace misses the exact nodes: refused, no file."""
    result = run_cli("figure", "marg-qt", "--m", "2", "--grid", "q_start=-1e-320",
                     "--grid", "q_stop=1e-320", "--grid", "q_count=3",
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2, (result.stdout, result.stderr)
    assert result.stderr.splitlines() == [
        "error: axis Q needs a step of at least the smallest normal float, "
        "2.2250738585072014e-308, got -1e-320 to 1e-320 in 3 samples"]
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_marg_qt_where_q_squared_overflows_is_silent(tmp_path):
    """At |Q| >= 5e199 the square of the Hermite argument overflows a float;
    the Gaussian factor is 0 there, so the density is 0, and numpy warns of
    nothing.  It printed a RuntimeWarning on stderr."""
    result = run_cli("figure", "marg-qt", "--grid", "q_start=-1e200", "--grid", "q_stop=1e200",
                     "--grid", "q_count=5", "--grid", "t_count=4", "--out", str(tmp_path))
    assert result.returncode == 0 and result.stderr == "", result.stderr
    q, _, value = np.loadtxt(tmp_path / "marg-qt.csv", delimiter=",", skiprows=1).T
    assert np.all(value[q != 0.0] == 0.0) and np.all(value[q == 0.0] > 0.0)


@pytest.mark.parametrize("command", [
    ["build"], ["chi2"], ["conditional", "--theta", "1"], ["schrodinger"],
    ["beta", "--theta", "1"], ["figure", "marg-pq"], ["orbits"], ["verify"]])
def test_every_state_command_parses_coeff(command):
    args = build_parser().parse_args([*command, "--coeff", "2=1"])
    assert args.coeff == [(2, (1 + 0j))]


# ---------------------------------------------------------------------------
# build and serialization
# ---------------------------------------------------------------------------

def test_build_summary_and_state_file(tmp_path):
    result = run_cli("build", *SPIN3, "--out", str(tmp_path), check=True)
    # the summary JSON is followed by a "wrote ..." status line
    summary = json.loads(result.stdout[:result.stdout.rfind("}") + 1])
    assert summary["two_J"] == 6
    assert summary["M"] == 1
    assert summary["epsilon_over_omega"] == [3, 4]
    assert summary["kappa"] == [9, 4]
    assert summary["constraint_residual"] == 0.0
    assert [b["m_plus_J"] for b in summary["branches"]] == [2, 6]
    assert [b["n"] for b in summary["branches"]] == [1, 4]
    for branch in summary["branches"]:
        assert abs(branch["weight"] - 0.5) < 1e-15

    document = json.loads((tmp_path / "state.json").read_text())
    assert set(document) == {"two_J", "epsilon_over_omega", "M", "coefficients"}
    assert document["epsilon_over_omega"] == [3, 4]
    coeff = {entry["m_plus_J"]: complex(entry["re"], entry["im"])
             for entry in document["coefficients"]}
    assert set(coeff) == {2, 6}
    assert abs(abs(coeff[2]) ** 2 - 0.5) < 1e-15
    assert coeff[2].imag == 0.0


def test_build_reads_back_its_own_state_file(tmp_path):
    run_cli("build", *SPIN3, "--out", str(tmp_path), check=True)
    document = json.loads((tmp_path / "state.json").read_text())
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"state": document}))
    result = run_cli("build", "--config", str(config), "--out",
                     str(tmp_path / "again"), check=True)
    summary = json.loads(result.stdout[:result.stdout.rfind("}") + 1])
    assert summary["two_J"] == 6
    assert (tmp_path / "again" / "state.json").exists()


def indented(value):
    return json.dumps(value, indent=2, sort_keys=True)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.floats().map(np.float64), st.text())


@st.composite
def record_lists(draw, children):
    """Lists of dicts with one key set, each key's values of one drawn kind:
    exact ints, finite floats, any scalar, or any document."""
    keys = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    kinds = [st.integers(), st.floats(allow_nan=False, allow_infinity=False),
             SCALARS, children]
    row = st.fixed_dictionaries({key: draw(st.sampled_from(kinds)) for key in keys})
    return draw(st.lists(row, min_size=1, max_size=6))


DOCUMENTS = st.recursive(
    SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(), children, max_size=4),
        record_lists(children)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=DOCUMENTS)
@example(doc={"x": np.float64(0.1), "rows": [{"w": np.float64(1.5)}, {"w": np.float64(-0.0)}]})
@example(doc=[{"flag": True, "n": 1}, {"flag": 1, "n": False}])
@example(doc=[{"v": math.nan}, {"v": math.inf}, {"v": -math.inf}, {"v": -0.0}])
@example(doc=[math.nan, math.inf, -math.inf, -0.0, {"v": -0.0}])
@example(doc=[{"%s": "%d", "a%%b": 1.5}, {"%s": "%", "a%%b": 2.5}])
@example(doc={"é\n\x00": [" \x1f\"\\", "ü"], "rows": [{"\x7f": "ñ"}]})
@example(doc=[{"a": [], "b": {}}, {"a": [], "b": {}}])
@example(doc=[{}, {}, []])
def test_json_text_is_json_dumps(doc):
    """The CLI's writer returns json.dumps(doc, indent=2, sort_keys=True) exactly."""
    assert cli._json_text(doc) == indented(doc)


@pytest.mark.parametrize("doc", [{1, 2}, {1: "one"}, [{"a": {1}}, {"a": {2}}], [object()]],
                         ids=["set", "int-key", "set-in-records", "object"])
def test_json_text_refuses_what_it_cannot_write(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


DENSE_170 = ["--two-j", "510", "--m", "170", "--kappa-r", "1/2"]


@pytest.mark.parametrize("argv, code", [
    (["build", *SPIN3], 0),
    (["schrodinger"], 0),
    (["schrodinger", *DENSE_170], 0),
    (["beta", "--theta", "1", "--big-q", "0.5", "--big-p", "-0.25"], 0),
    (["beta", "--theta", "0"], 0),
    (["verify", *DENSE_170], 0),
    (["verify", *DENSE_170, "--tamper-shift-n", "1"], 1),
], ids=["build", "schrodinger-2J6", "schrodinger-M170", "beta", "beta-theta0",
        "verify", "verify-tampered"])
def test_json_stdout_is_canonical(argv, code, tmp_path):
    """Every JSON report the CLI prints is json.dumps(..., indent=2,
    sort_keys=True) of itself; build's is followed by its "wrote" line."""
    if argv[0] == "build":
        argv = [*argv, "--out", str(tmp_path)]
    exit_code, stdout = main_in_process(argv)
    text = stdout.split("wrote ")[0]
    assert exit_code == code
    assert text == indented(json.loads(text)) + "\n"


@pytest.mark.parametrize("argv", [
    ["chi2-j3", "--theta-count", "5"],
    ["chi2-largeJ", "--theta-count", "5"],
    ["marg-pq", "--grid", "q_count=5", "--grid", "p_count=4"],
    ["marg-et", "--grid", "e_count=5"],
    ["marg-qt", "--grid", "q_count=5", "--grid", "t_count=4"],
    ["orbits-pq", "--m", "8", "--samples", "4"],
    ["orbits-et", "--samples", "4"],
], ids=lambda argv: argv[0])
def test_figure_sidecar_is_canonical(argv, tmp_path):
    assert main_in_process(["figure", *argv, "--out", str(tmp_path)])[0] == 0
    text = (tmp_path / f"{argv[0]}.json").read_text()
    assert text == indented(json.loads(text)) + "\n"


# ---------------------------------------------------------------------------
# conditional and verify
# ---------------------------------------------------------------------------

def test_conditional_golden_amplitudes():
    result = run_cli("conditional", *SPIN3, "--theta", str(math.pi / 2),
                     "--phi", "0", check=True)
    lines = result.stdout.splitlines()
    assert lines[-1] == "norm = 1.000000000000000"
    rows = {int(line.split()[0]): float(line.split()[3])
            for line in lines if line.lstrip()[0].isdigit()}
    assert abs(rows[1] - 15.0 / 16.0) < 1e-14
    assert abs(rows[4] - 1.0 / 16.0) < 1e-14


# The two exact checks of verify, in report order.
VERIFY_CHECKS = ["constraint_residual_zero", "pair_enumeration_matches_search"]


def assert_checks_are_numeric(report):
    """Every check carries a numeric value and tolerance that decide it."""
    for check in report["checks"]:
        for key in ("value", "tolerance"):
            assert isinstance(check[key], (int, float)), (check["name"], key)
        assert check["passed"] == (check["value"] <= check["tolerance"]), check["name"]


def test_verify_passes_on_valid_state():
    result = run_cli("verify", *SPIN3)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["all_passed"] is True
    assert_checks_are_numeric(report)
    checks = {c["name"]: c for c in report["checks"]}
    assert "i*eps*d/dphi psi = H psi" in checks["constraint_residual_zero"]["detail"]
    assert list(checks) == VERIFY_CHECKS


def test_verify_detects_tampered_levels():
    """Every Fock level moved by a shift of 1 or 2 puts each branch off the
    constraint, and so off the Schroedinger equation, by exactly shift*omega."""
    for shift in (1, 2):
        result = run_cli("verify", *SPIN3, "--tamper-shift-n", str(shift))
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["all_passed"] is False
        checks = {c["name"]: c for c in report["checks"]}
        failed = {name for name, check in checks.items() if not check["passed"]}
        assert "constraint_residual_zero" in failed
        assert "pair_enumeration_matches_search" in failed
        assert checks["constraint_residual_zero"]["value"] == shift * 1.0
        assert_checks_are_numeric(report)


def test_tamper_flag_overrides_config(tmp_path):
    """An explicit --tamper-shift-n wins over the config's tamper_shift_n, 0 included."""
    config = tmp_path / "tamper.json"
    config.write_text(json.dumps({"tamper_shift_n": 1}))
    assert run_cli("verify", *SPIN3, "--config", str(config)).returncode == 1
    result = run_cli("verify", *SPIN3, "--config", str(config),
                     "--tamper-shift-n", "0")
    assert result.returncode == 0, result.stdout
    assert json.loads(result.stdout)["all_passed"] is True


def test_verify_has_no_skip_beta_flag():
    """The |beta|^2 normalization costs no quadrature, so there is nothing to skip."""
    result = run_cli("verify", *SPIN3, "--skip-beta")
    assert result.returncode == 2
    assert "unrecognized arguments: --skip-beta" in result.stderr


def test_verify_takes_no_clock_phase():
    """No verify check depends on phi, so verify has no --phi flag."""
    result = run_cli("verify", *SPIN3, "--phi", "1")
    assert result.returncode == 2
    assert "unrecognized arguments: --phi 1" in result.stderr


@pytest.mark.parametrize("theta", ["0", "1"])
def test_verify_takes_no_theta(theta):
    """No verify check reads the clock angle, so --theta is an unrecognized
    argument; at theta = 0 the valid J = 3 state used to fail verify."""
    result = run_cli("verify", *SPIN3, "--theta", theta)
    assert result.returncode == 2
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert errors == [f"pawclock: error: unrecognized arguments: --theta {theta}"]


@pytest.mark.parametrize("command", [["conditional", "--theta", "1"],
                                     ["beta", "--theta", "1"], ["schrodinger"]])
def test_clock_phase_beyond_a_float_exits_one(command):
    """At phi = 1e308 the phase k_max*phi = 6e308 of the J = 3 state overflows:
    the command exits 1 with one error line naming it, and prints no NaN."""
    result = run_cli(*command, "--phi", "1e308")
    assert result.returncode == 1, result.stdout
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        "error: the clock phase k_max*phi = 6*1e+308 overflows a float"]
    assert "nan" not in result.stdout.lower()


def main_in_process(argv):
    """(exit code, stdout) of one ``pawclock`` run in this interpreter."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


@pytest.mark.parametrize("argv", [
    ["--big-q", "1e200"],
    ["--big-p", "2e154"],
    ["--m", "4", "--two-j", "6", "--kappa-r", "3/4", "--big-q", "1e308"],
    ["--m", "9", "--two-j", "6", "--kappa-r", "3/4", "--big-q", "1.7e308",
     "--big-p", "1.7e308"],
], ids=["Q-1e200", "P-2e154", "M4-Q-1e308", "M9-sqrtM-alpha-inf"])
def test_beta_where_m_alpha_squared_overflows_is_zero(argv):
    """Where M|alpha|^2 overflows a float, e^{-M|alpha|^2/2} underflows every
    branch: beta reads log|beta| = -inf and |beta|^2 = 0, as at theta = 0.
    It was an OverflowError traceback from root ** 2, or NaN where
    sqrt(M)|alpha| itself is inf."""
    result = run_cli("beta", "--theta", "1", *argv)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    payload = json.loads(result.stdout)
    assert payload["log_magnitude"] == -math.inf
    assert payload["magnitude_squared"] == 0.0 and payload["phase"] == 0.0


def test_beta_where_ln_factorial_overflows_is_finite():
    """At n = 1e307, 3e307 and 5e307 both n*ln(Q/sqrt(2)) and ln(n!) overflow,
    yet log|<alpha|n>| = -7.9e307 at n = 1e307 is a float, and it sets
    log|beta|.  It was inf - inf: NaN and a RuntimeWarning, exit 0."""
    ratio = f"{2 * 10**307 + 1}/2"
    result = run_cli("beta", "--two-j", "6", "--m", "1", "--kappa-r", ratio,
                     "--theta", "1", "--big-q", "1e150")
    assert result.returncode == 0 and result.stderr == "", result.stderr
    payload = json.loads(result.stdout)
    with mpmath.workdps(40):
        n, root = mpmath.mpf(10) ** 307, mpmath.mpf(1e150) / mpmath.sqrt(2)
        exact = float(n * mpmath.log(root) - root ** 2 / 2 - mpmath.loggamma(n + 1) / 2)
    assert payload["log_magnitude"] == pytest.approx(exact, rel=1e-13)
    assert payload["magnitude_squared"] == 0.0 and payload["phase"] == 0.0


@pytest.mark.parametrize("command, flag, value", [
    (["conditional", "--theta", "1"], "--phi", "-1e-3"),
    (["schrodinger"], "--phi", "-1e-3"),
    (["beta", "--theta", "1"], "--big-q", "-1e0"),
    (["beta", "--theta", "1"], "--big-p", "-2.5E-1"),
])
def test_negative_number_in_exponent_form_is_a_value(command, flag, value):
    """``--phi -1e-3`` prints what ``--phi=-1e-3`` prints: every parser reads
    a token starting "-digit" as a value, as Python 3.13's argparse does."""
    two_tokens = main_in_process([*command, flag, value])
    assert two_tokens == main_in_process([*command, f"{flag}={value}"])
    assert two_tokens[0] == 0 and two_tokens[1]


def verify_in_process(argv):
    """(exit code, report) of one ``pawclock verify`` run in this interpreter."""
    code, stdout = main_in_process(argv)
    return code, json.loads(stdout)


@st.composite
def state_arguments(draw):
    """assemble_state arguments: 2J <= 1140, 2-6 branches, |c| over 100 decades."""
    i_m = draw(st.integers(1, 3))
    i_n = draw(st.integers(0, 3).filter(lambda i: math.gcd(2 * i + 1, 2 * i_m) == 1))
    two_j = draw(st.integers(3 * i_m, 1140))
    l_max = (two_j - i_m) // (2 * i_m)
    labels = draw(st.lists(st.integers(0, l_max), min_size=2, max_size=6, unique=True))
    coefficients = {}
    for label in labels:
        magnitude = 10.0 ** -draw(st.floats(0.0, 100.0))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        coefficients[i_m * (2 * label + 1)] = magnitude * complex(math.cos(phase),
                                                                  math.sin(phase))
    return two_j, draw(st.integers(1, 200)), f"{2 * i_n + 1}/{2 * i_m}", coefficients


@settings(max_examples=100, deadline=None, derandomize=True)
@given(args=state_arguments())
def test_verify_passes_valid_and_catches_tampered_states(args):
    """A valid state passes both checks.  Its copy with every Fock level
    shifted by one fails the constraint check.
    """
    two_j, mass, ratio, coefficients = args
    argv = ["verify", "--two-j", str(two_j), "--m", str(mass), "--kappa-r", ratio]
    for key, value in coefficients.items():
        argv += ["--coeff", f"{key}={value!r}"]
    code, report = verify_in_process(argv)
    assert code == 0 and report["all_passed"], report["checks"]
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
    code, report = verify_in_process(argv + ["--tamper-shift-n", "1"])
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert code == 1 and "constraint_residual_zero" in failed, failed


# Valid states at the edges of double range: every branch near a pole, where
# chi^2(pi/2) is e^-745, e^-13837 and e^-41559, and coefficients whose squares, or
# whose modulus, under- or overflow a double.
EDGE_STATES = {
    "pole-2J-1103": ["--two-j", "1103", "--m", "34", "--kappa-r", "3/2",
                     "--coeff", "3=1", "--coeff", "1=1e-84"],
    "pole-2J-20000": ["--two-j", "20000", "--m", "34", "--kappa-r", "3/2",
                      "--coeff", "1=2", "--coeff", "3=1"],
    "pole-2J-60000": ["--two-j", "60000", "--m", "34", "--kappa-r", "3/2",
                      "--coeff", "1=2", "--coeff", "3=1"],
    "squares-underflow": ["--two-j", "30", "--m", "10", "--kappa-r", "1/2",
                          "--coeff", "1=1e-170", "--coeff", "5=1e-170"],
    "squares-overflow": ["--two-j", "30", "--m", "10", "--kappa-r", "1/2",
                         "--coeff", "1=1e200", "--coeff", "5=1e200"],
    "subnormal": ["--two-j", "30", "--m", "10", "--kappa-r", "1/2",
                  "--coeff", "1=5e-324", "--coeff", "5=1e-320"],
    "modulus-overflow": ["--two-j", "30", "--m", "10", "--kappa-r", "1/2",
                         "--coeff", "1=1.5e308+1.5e308j", "--coeff", "5=1e308"],
}


@pytest.mark.parametrize("case", EDGE_STATES)
def test_verify_passes_at_the_edges_of_double_range(case):
    result = run_cli("verify", *EDGE_STATES[case])
    assert result.returncode == 0, result.stderr or result.stdout
    assert json.loads(result.stdout)["all_passed"] is True


def test_verify_memory_does_not_grow_with_spin():
    """At 2J = 9000 (large_j_pair_state(4500)) verify allocates at most 8 MiB."""
    tracemalloc.start()
    try:
        code, report = verify_in_process(["verify", "--two-j", "9000", "--m", "1",
                                          "--kappa-r", "1/6000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["all_passed"], report["checks"]
    assert peak <= 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_verify_holds_the_pair_family_once():
    """On the pole state at 2J = 60,000 (30,000 pairs) verify allocates at most
    10 MiB: the family as (m+J, n) tuples and the scan, with no Fraction per pair."""
    tracemalloc.start()
    try:
        code, report = verify_in_process(["verify", *EDGE_STATES["pole-2J-60000"]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["all_passed"], report["checks"]
    assert peak <= 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# kappa_r = (2*10^307 + 1)/2 at 2J = 6: Fock levels 10^307, 3*10^307 + 1, 5*10^307 + 2
HUGE_FOCK = ["--two-j", "6", "--m", "1", "--kappa-r", f"{2 * 10 ** 307 + 1}/2"]


def test_verify_passes_at_huge_fock_levels():
    """verify passes on Fock levels near 1e307, and there the finite-difference
    residuals of the schrodinger study are finite, so its order reads 2 and
    numpy warns of no overflow."""
    result = run_cli("verify", *HUGE_FOCK)
    assert result.returncode == 0, result.stderr or result.stdout
    assert result.stderr == ""
    assert json.loads(result.stdout)["all_passed"] is True
    result = run_cli("schrodinger", *HUGE_FOCK, check=True)
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    assert all(math.isfinite(r) and r > 0 for r in payload["residuals"])
    assert abs(payload["order"] - 2.0) <= 0.1


@pytest.mark.parametrize("command", ["verify", "build", "schrodinger"])
def test_fock_level_energy_beyond_float_exits_one(command):
    """At 2J = 30 the top level n = 29 * 10^307 + 14 has an energy beyond the
    largest float: the state is refused with one error line naming it."""
    result = run_cli(command, "--two-j", "30", *HUGE_FOCK[2:])
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        "error: the Fock level of m+J = 29 has an energy omega*(n + 1/2) too large "
        "for a float (over 1.8e308)"]


@pytest.mark.parametrize("halvings", ["1020", "1030"])
def test_schrodinger_halvings_below_a_normal_step_exits_one(halvings):
    """The default step of the 2J = 6 example, 1/600, falls below the smallest
    normal float after 1013 halvings.  At 1020 the subnormal step overflowed
    the complex division, so the command printed NaN residuals and an order
    of NaN, which is not JSON; at 1030, 2 ** i overflowed a float with a
    traceback.  Both are refused with one error line and no output."""
    result = run_cli("schrodinger", "--halvings", halvings)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: --halvings {halvings} takes dphi = 0.0016666666666666668 below the "
        "smallest normal float (2.2250738585072014e-308)"]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figure_chi2_header_and_shape(tmp_path):
    run_cli("figure", "chi2-j3", "--out", str(tmp_path), check=True)
    lines = (tmp_path / "chi2-j3.csv").read_text().splitlines()
    assert lines[0] == "theta,term_k2,term_k6,chi2"
    assert len(lines) == 1001
    sidecar = json.loads((tmp_path / "chi2-j3.json").read_text())
    assert sidecar["figure"] == "chi2-j3"


def test_figure_orbits_radii_ladder(tmp_path):
    run_cli("figure", "orbits-pq", "--m", "8", "--samples", "16",
            "--out", str(tmp_path), check=True)
    assert (tmp_path / "orbits-pq.csv").read_text().splitlines()[0] == "E,t,q,p,Q,P"
    sidecar = json.loads((tmp_path / "orbits-pq.json").read_text())
    # dense family at M = 8: levels n = 0..11, radii sqrt(2n/M)
    assert sidecar["radii"] == [math.sqrt(2.0 * n / 8.0) for n in range(12)]


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def test_config_drives_chi2_run(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"state": spin3_document(), "grids": {"theta_count": 64},
                                "out_dir": str(tmp_path)}))
    result = run_cli("chi2", "--config", str(path), check=True)
    assert "integral of chi^2 over the sphere measure: 1.000000" in result.stdout
    lines = (tmp_path / "chi2.csv").read_text().splitlines()
    assert len(lines) == 65


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    for name in ("enumerate", "build", "chi2", "conditional", "schrodinger",
                 "beta", "figure", "orbits", "verify"):
        assert name in result.stdout
