"""End-to-end tests of the command line interface.

Most run the CLI as a subprocess; the verify property and memory bound call
``cli.main`` in process, where hypothesis and tracemalloc can see it.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pawclock
from pawclock import cli
from pawclock.cli import build_parser

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
    for name in ("chi_squared_normalized", "beta_normalized"):
        assert "resolution" in checks[name]["detail"], name
    assert checks["chi_squared_normalized"]["value"] == checks["beta_normalized"]["value"]
    names = {check["name"] for check in report["checks"]}
    assert names == {"constraint_residual_zero", "pair_enumeration_matches_search",
                     "chi_squared_normalized", "conditional_norm_unit",
                     "schrodinger_order_two", "beta_normalized"}


def test_verify_detects_tampered_levels():
    result = run_cli("verify", *SPIN3, "--tamper-shift-n", "1")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["all_passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "constraint_residual_zero" in failed
    assert "pair_enumeration_matches_search" in failed
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


def verify_in_process(argv):
    """(exit code, report) of one ``pawclock verify`` run in this interpreter."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, json.loads(buffer.getvalue())


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
    """A valid state passes every check.  Its copy with every Fock level shifted
    by one fails the constraint check and passes the checks that do not read
    the levels: both normalizations and the conditional norm.
    """
    two_j, mass, ratio, coefficients = args
    argv = ["verify", "--two-j", str(two_j), "--m", str(mass), "--kappa-r", ratio]
    for key, value in coefficients.items():
        argv += ["--coeff", f"{key}={value!r}"]
    code, report = verify_in_process(argv)
    assert code == 0 and report["all_passed"], report["checks"]
    code, report = verify_in_process(argv + ["--tamper-shift-n", "1"])
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert code == 1 and "constraint_residual_zero" in failed, failed
    assert not failed & {"chi_squared_normalized", "beta_normalized",
                         "conditional_norm_unit"}, failed


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
    """The finite-difference residuals of phases near 1e307 are finite, so the
    order study reads 2 and numpy warns of no overflow."""
    result = run_cli("verify", *HUGE_FOCK)
    assert result.returncode == 0, result.stderr or result.stdout
    assert result.stderr == ""
    assert json.loads(result.stdout)["all_passed"] is True
    result = run_cli("schrodinger", *HUGE_FOCK, check=True)
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    assert all(math.isfinite(r) and r > 0 for r in payload["residuals"])
    assert abs(payload["order"] - 2.0) <= 0.1


def test_verify_at_degenerate_theta_still_reports():
    """At theta = 0 chi^2 vanishes: both clock-angle checks fail, the rest run."""
    result = run_cli("verify", *SPIN3, "--theta", "0")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["all_passed"] is False
    failed = {c["name"]: c["value"] for c in report["checks"] if not c["passed"]}
    assert failed == {"conditional_norm_unit": 1.0, "schrodinger_order_two": 2.0}
    names = {check["name"] for check in report["checks"]}
    assert names == {"constraint_residual_zero", "pair_enumeration_matches_search",
                     "chi_squared_normalized", "conditional_norm_unit",
                     "schrodinger_order_two", "beta_normalized"}
    assert_checks_are_numeric(report)


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
