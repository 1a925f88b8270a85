"""Command-line interface for the Page-Wootters clock/oscillator toolkit.

Subcommands
-----------
enumerate    list the allowed (m+J, n) pairs for a coupling ratio
build        assemble a state from flags or a config file and summarize it
chi2         tabulate the clock-angle distribution chi^2(theta)
conditional  print the conditional oscillator state at a clock angle
schrodinger  finite-difference order study, its step derived from the state
beta         evaluate the joint overlap amplitude at one phase-space point
figure       reproduce a named data set (CSV plus a JSON sidecar)
orbits       sample the classical orbit family onto a CSV table
verify       run the internal consistency checks and emit a JSON report

verify makes two exact checks, in integers: the stationarity constraint,
which is the emergent Schroedinger equation read branch by branch, and the
pair family against a direct search.  It takes no quadrature, step, theta or
phi, and costs O(N + 2J).

Exit codes: 0 success, 1 runtime failure (failed verification, no memory),
2 malformed arguments or config, 3 unknown figure name, 4 state that is not
entanglement-admissible (or otherwise cannot be assembled).  A reader that
closes the output pipe early ends the ``pawclock`` command by SIGPIPE where
the platform has it (status 141 in a POSIX shell), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .classical import beta_amplitude, orbit_table, surviving_configurations, write_orbit_csv
from .constraints import (
    NoOddOverEvenForm,
    OscillatorSpec,
    brute_force_pairs,
    enumerate_pairs,
    reduce_ratio,
)
from .marginals import (
    ConfigError,
    GridAxis,
    default_energy_axis,
    default_phase_space_axes,
    default_time_axis,
    marginal_energy_time,
    marginal_phase_space,
    marginal_space_time,
)
from .pawstate import (
    NotAdmissible,
    PawState,
    UnsupportedIndex,
    ZeroState,
    assemble_state,
    balanced_two_level_state,
    chi_squared_integral,
    chi_squared_terms,
    conditional_state,
    default_dphi,
    dense_family_state,
    large_j_pair_state,
    paw_constraint_residual,
    ratio_to_float,
    schrodinger_order_study,
    shift_fock_levels,
    spin3_pair_state,
    state_from_dict,
    state_to_dict,
)
from .coherent import SphereCoordinate
from .table import write_table

# Every setting of the config's 'grids' section, with the type of its value.
_SETTINGS = {
    "q_start": float, "q_stop": float, "q_count": int,
    "p_start": float, "p_stop": float, "p_count": int,
    "e_start": float, "e_stop": float, "e_count": int,
    "t_count": int, "theta_count": int, "samples": int,
}


def _setting(key: str, value):
    """``value`` as the type of grid setting ``key``, else ConfigError.

    A string is parsed; a number is taken if the type holds it exactly (801.0
    is the count 801, 2.9 is no count).  Every integer setting is a count and
    must be at least 1.
    """
    if key not in _SETTINGS:
        raise ConfigError(f"unknown key {key!r} in 'grids' "
                          f"(expected one of {sorted(_SETTINGS)})")
    kind = _SETTINGS[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        exact = isinstance(value, str) or number and kind(value) == value
        result = kind(value) if exact else None
    except (ValueError, OverflowError):
        result = None
    if result is None:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"grids setting {key}={value!r} is not {expected}")
    if kind is int and result < 1:
        raise ConfigError(f"grids setting {key}={value!r} is not a positive count")
    return result


@dataclass
class ScenarioConfig:
    """Declarative description of a run: state, grids, output, tamper shift."""

    state: dict | None = None
    grids: dict = field(default_factory=dict)
    out_dir: str = "."
    tamper_shift_n: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        grids = doc.get("grids", {})
        if not isinstance(grids, dict):
            raise ConfigError("'grids' must be an object")
        grids = {key: _setting(key, value) for key, value in grids.items()}
        state = doc.get("state")
        if state is not None and not isinstance(state, dict):
            raise ConfigError("'state' must be an object")
        out_dir = doc.get("out_dir", ".")
        if not isinstance(out_dir, str):
            raise ConfigError("'out_dir' must be a string")
        tamper = doc.get("tamper_shift_n", 0)
        if not isinstance(tamper, int) or isinstance(tamper, bool):
            raise ConfigError("'tamper_shift_n' must be an integer")
        return cls(state=state, grids=grids, out_dir=out_dir, tamper_shift_n=tamper)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


def parse_rational(text: str) -> Fraction:
    """Parse 'N/D' or 'N' into a positive Fraction; argparse maps failures to exit 2."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            ratio = Fraction(int(num.strip()), int(den.strip()))
        else:
            ratio = Fraction(int(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if ratio <= 0:
        raise argparse.ArgumentTypeError(f"expected a ratio > 0, got {text!r}")
    return ratio


def parse_state_ratio(text: str) -> Fraction:
    """parse_rational for a state's eps/omega, which must also be finite as a float."""
    ratio = parse_rational(text)
    try:
        ratio_to_float(ratio)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return ratio


def _checked(kind, accept, expected: str):
    """An argparse type: ``kind(text)``, which must satisfy ``accept``, else exit 2."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            value = kind(text)
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_COUNT = _checked(int, lambda value: value >= 1, "an integer >= 1")
_HALVINGS = _checked(int, lambda value: value >= 2, "an integer >= 2")
_STEP = _checked(float, lambda value: math.isfinite(value) and value > 0.0,
                 "a finite number > 0")
_ANGLE = _checked(float, lambda value: 0.0 <= value <= math.pi, "an angle in [0, pi]")
_FINITE = _checked(float, math.isfinite, "a finite number")
_PHASE = _checked(float, lambda value: math.isfinite(value) and value >= 0.0,
                  "a finite number >= 0")
_SPINS = _checked(lambda text: tuple(int(part) for part in text.split(",") if part.strip()),
                  lambda spins: spins and all(j > 0 and j % 3 == 0 for j in spins),
                  "comma-separated positive multiples of 3")


def parse_state_mass(text: str) -> int:
    """_COUNT for a state's M, which must also be at most the largest float."""
    try:
        return OscillatorSpec(mass=_COUNT(text), omega=1.0).mass
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def parse_coefficient(text: str) -> tuple[int, complex]:
    """Parse 'K=RE' or 'K=RE+IMj' into an (m+J, finite amplitude) pair."""
    try:
        key, _, value = text.partition("=")
        index, amplitude = int(key.strip()), complex(value.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected K=COMPLEX, got {text!r}") from exc
    if not cmath.isfinite(amplitude):
        raise argparse.ArgumentTypeError(f"amplitude is not finite: {text!r}")
    return index, amplitude


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    """The --config file with the --grid and --tamper-shift-n flags folded in."""
    path = getattr(args, "config", None)
    config = ScenarioConfig() if path is None else ScenarioConfig.load(path)
    config.grids.update(getattr(args, "grids", None) or ())
    tamper = getattr(args, "tamper_shift_n", None)
    if tamper is not None:
        config.tamper_shift_n = tamper
    return config


def _out_dir(args: argparse.Namespace, config: ScenarioConfig) -> Path:
    out = getattr(args, "out", None) or config.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _given(args: argparse.Namespace, *names: str) -> list[str]:
    """The state flags among ``names`` (their dests) given on the command line."""
    return [f"--{name.replace('_', '-')}" for name in names if getattr(args, name, None)]


def _resolve_state(args: argparse.Namespace, config: ScenarioConfig,
                   family=None) -> PawState:
    """State precedence: explicit flags, then config file, then the fallback:
    ``family(M)`` at --m (default 170), or without ``family`` the J = 3 example.
    A state flag that the chosen state does not read is refused."""
    if getattr(args, "two_j", None) is not None:
        return _state_from_flags(args)
    stray = _given(args, "epsilon_over_omega", "kappa_r", "coeff")
    if family is None or config.state is not None:  # no fallback reads M
        stray = _given(args, "m") + stray
    if stray:
        raise ConfigError(f"{', '.join(stray)} requires --two-j")
    if config.state is not None:
        try:
            return state_from_dict(config.state)
        except (NotAdmissible, ZeroState):
            raise
        except ValueError as exc:
            raise ConfigError(f"malformed 'state' in config: {exc}") from exc
    if family is None:
        return spin3_pair_state()
    try:
        return family(args.m or 170)
    except ValueError as exc:  # an M the family does not take, as an odd one for marg-*
        raise ConfigError(f"--m {args.m}: {exc}") from exc


def _state_from_flags(args: argparse.Namespace) -> PawState:
    ratio = getattr(args, "epsilon_over_omega", None)
    if ratio is None:
        ratio = getattr(args, "kappa_r", None)
    if ratio is None:
        raise ConfigError("--epsilon-over-omega (or --kappa-r) is required with --two-j")
    mass = getattr(args, "m", None) or 1
    coeffs = getattr(args, "coeff", None)
    if coeffs:
        coefficients = dict(coeffs)
    else:
        # Default: equal weight on every allowed pair.
        family = enumerate_pairs(reduce_ratio(ratio), args.two_j)
        if not family.pairs:
            raise NotAdmissible(
                f"no allowed pairs for kappa*r = {ratio} at 2J = {args.two_j}")
        amp = 1.0 / math.sqrt(len(family.pairs))
        coefficients = {k: amp for k, _ in family.pairs}
    return assemble_state(two_j=args.two_j, mass=mass, eps_over_omega=ratio,
                          coefficients=coefficients)


def _grid_axis(grids: dict, prefix: str, default: GridAxis) -> GridAxis:
    return GridAxis(default.name, grids.get(f"{prefix}_start", default.start),
                    grids.get(f"{prefix}_stop", default.stop),
                    grids.get(f"{prefix}_count", default.count))


def _record_rows(items, indent: str) -> list[str] | None:
    """The items of a list of scalar-valued dicts with one key set, each
    column formatted by one map and each row by one template; else None."""
    keys = isinstance(items[0], dict) and items[0].keys()
    if not keys or not all(isinstance(row, dict) and row.keys() == keys for row in items):
        return None
    names, columns = sorted(keys), []
    for name in names:
        column = [row[name] for row in items]
        kinds = set(map(type, column))
        if not all(issubclass(kind, (str, int, float, type(None))) for kind in kinds):
            return None
        exact = kinds == {float} and all(map(math.isfinite, column))
        form = float.__repr__ if exact else int.__repr__ if kinds == {int} else _json_text
        columns.append(map(form, column))
    inner = indent + "  "
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name in names) + indent + "}"
    return list(map(template.__mod__, zip(*columns)))


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte for str
    keys, by json.encoder's rules in its order but one join per level, not a
    generator per item; ``indent`` opens each line of ``value``'s level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = value and (_record_rows(value, inner) or [_json_text(v, inner) for v in value])
        return "[" + inner + ("," + inner).join(items) + indent + "]" if value else "[]"
    if isinstance(value, dict):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)) + indent + "}" if value else "{}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_table(path: Path, names: list[str], columns) -> None:
    write_table(path, names, columns)
    print(f"wrote {path}")


def _state_summary(state: PawState) -> dict:
    return {
        "two_J": state.two_j,
        "M": state.mass,
        "epsilon_over_omega": [state.ratios.kappa_r.numerator,
                               state.ratios.kappa_r.denominator],
        "kappa": [state.ratios.kappa.numerator, state.ratios.kappa.denominator],
        "branches": [
            {"m_plus_J": key, "n": n, "weight": abs(value) ** 2}
            for key, n, value in zip(state.support, state.n_values,
                                     state.amplitudes.tolist())
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        ratio = reduce_ratio(args.kappa_r)
    except NoOddOverEvenForm as exc:
        print(f"no allowed pairs: {exc}")
        return 0
    family = enumerate_pairs(ratio, args.two_j)
    if not family.pairs:
        print(f"no allowed pairs for kappa*r = {args.kappa_r} at 2J = {args.two_j}")
        return 0
    print(f"kappa*r = {args.kappa_r} = (2*{ratio.i_n}+1)/(2*{ratio.i_m}), 2J = {args.two_j}")
    print(f"{'l':>4} {'m+J':>6} {'m':>8} {'n':>8}")
    for l, (k, n) in enumerate(family.pairs):
        print(f"{l:>4} {k:>6} {str(family.m_fraction(k)):>8} {n:>8}")
    print(f"{len(family)} pair(s); entanglement admissible: "
          f"{'yes' if len(family) >= 2 else 'no'}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state = _resolve_state(args, config)
    summary = _state_summary(state)
    summary["constraint_residual"] = paw_constraint_residual(state)
    print(_json_text(summary))
    out = _out_dir(args, config)
    _write_json(out / "state.json", state_to_dict(state))
    return 0


def _write_chi2(args, config, path: Path) -> tuple[PawState, list[str], int]:
    """Tabulate theta, the per-branch terms of chi^2 and their sum into path."""
    state = _resolve_state(args, config)
    count = config.grids.get("theta_count", 1000)
    thetas = np.linspace(0.0, math.pi, count)
    terms = chi_squared_terms(state, thetas)
    columns = ["theta"] + [f"term_k{key}" for key in state.support] + ["chi2"]
    _write_table(path, columns, [thetas, *terms.T, terms.sum(axis=1)])
    return state, columns, count


def _write_orbits(args, config, path: Path) -> tuple[PawState, int]:
    """Sample the orbit family of the state (dense M = 170 by default) into path."""
    state = _resolve_state(args, config, family=dense_family_state)
    samples = config.grids.get("samples", 256)
    write_orbit_csv(orbit_table(state, samples=samples), path)
    print(f"wrote {path}")
    return state, samples


def cmd_chi2(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    state, _, _ = _write_chi2(args, config, out / "chi2.csv")
    total = chi_squared_integral(state)
    print(f"integral of chi^2 over the sphere measure: {total:.12f}")
    return 0


def cmd_conditional(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state = _resolve_state(args, config)
    cond = conditional_state(state, args.theta, args.phi)
    print(f"theta = {args.theta:.12g}, phi = {args.phi:.12g}, "
          f"chi^2 = {cond.norm_chi2:.12g}")
    print(f"{'n':>6} {'re':>24} {'im':>24} {'prob':>22}")
    for level, amp in zip(cond.n_values, cond.vector.tolist()):
        print(f"{level:>6} {amp.real:>24.16e} {amp.imag:>24.16e} "
              f"{abs(amp) ** 2:>22.16e}")
    print(f"norm = {cond.norm():.15f}")
    return 0


def cmd_schrodinger(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state = _resolve_state(args, config)
    base = args.dphi if args.dphi is not None else default_dphi(state)
    # refused before the steps are built: ldexp neither overflows nor raises
    if math.ldexp(base, 1 - args.halvings) < sys.float_info.min:
        raise ValueError(f"--halvings {args.halvings} takes dphi = {base!r} below the "
                         f"smallest normal float ({sys.float_info.min!r})")
    steps = tuple(math.ldexp(base, -i) for i in range(args.halvings))
    study = schrodinger_order_study(state, args.theta, args.phi, steps=steps)
    payload = {
        "theta": args.theta,
        "phi": args.phi,
        "steps": list(study.steps),
        "residuals": list(study.residuals),
        "order": study.order,
    }
    print(_json_text(payload))
    return 0


def cmd_beta(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state = _resolve_state(args, config)
    point = SphereCoordinate(args.theta, args.phi)
    alpha = (args.big_q + 1j * args.big_p) / math.sqrt(2.0)
    amp = beta_amplitude(state, point, alpha)
    payload = {
        "theta": args.theta,
        "phi": args.phi,
        "Q": args.big_q,
        "P": args.big_p,
        "log_magnitude": amp.log_magnitude,
        "phase": amp.phase,
        "magnitude_squared": amp.magnitude_squared,
    }
    print(_json_text(payload))
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    state, samples = _write_orbits(args, config, out / "orbits.csv")
    levels = surviving_configurations(state)
    payload = {
        "samples": samples,
        "levels": [{"n": lv.n, "energy": lv.energy,
                    "energy_classical": lv.energy_classical,
                    "radius_q": lv.radius_q} for lv in levels],
        "state": _state_summary(state),
    }
    _write_json(out / "orbits.json", payload)
    return 0


def _check(name: str, value: float, tolerance: float, detail: str) -> dict:
    """One verify check: it passes when the measured deviation is within tolerance."""
    return {"name": name, "passed": value <= tolerance, "value": value,
            "tolerance": tolerance, "detail": detail}


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state = _resolve_state(args, config)
    if config.tamper_shift_n:
        try:
            state = shift_fock_levels(state, config.tamper_shift_n)
        except ValueError as exc:
            raise ConfigError(f"tamper_shift_n = {config.tamper_shift_n}: {exc}") from exc

    residual = paw_constraint_residual(state)
    kr = state.ratios.kappa_r
    n_max = -(-kr.numerator * state.two_j // kr.denominator) + 1  # ceil(kr*2J) + 1
    brute = brute_force_pairs(kr, state.two_j, n_max)
    enumerated = state.family.pairs
    mismatched = (sum(a != b for a, b in zip(brute, enumerated))
                  + abs(len(brute) - len(enumerated)))
    checks = [
        _check("constraint_residual_zero", residual, 0.0,
               f"max |kappa*r*(m+J) - (n+1/2)|*omega = {residual:.6g}: branch m+J turns "
               f"as exp(-i(m+J)phi), so i*eps*d/dphi psi = H psi reads "
               f"eps*(m+J) = omega*(n+1/2)"),
        _check("pair_enumeration_matches_search", mismatched, 0,
               f"{len(enumerated)} pair(s) from the closed form, "
               f"{len(brute)} from direct search"),
    ]
    all_passed = all(check["passed"] for check in checks)
    report = {"checks": checks, "all_passed": all_passed,
              "state": _state_summary(state)}
    print(_json_text(report))
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _sidecar_base(name: str, state: PawState | None) -> dict:
    payload: dict = {"figure": name}
    if state is not None:
        payload["state"] = state_to_dict(state)
    return payload


def _figure_chi2_j3(args, config, out: Path) -> int:
    state, columns, count = _write_chi2(args, config, out / "chi2-j3.csv")
    payload = _sidecar_base("chi2-j3", state)
    payload["columns"] = columns
    payload["theta_count"] = count
    _write_json(out / "chi2-j3.json", payload)
    return 0


def _figure_chi2_largej(args, config, out: Path) -> int:
    stray = _given(args, "two_j", "m", "epsilon_over_omega", "kappa_r", "coeff")
    if config.state is not None:
        stray.append("config 'state'")
    if stray:
        raise ConfigError(f"chi2-largeJ builds its states from --j-list alone, "
                          f"so it reads no {', '.join(stray)}")
    j_list = args.j_list or (30, 120, 570)
    count = config.grids.get("theta_count", 2001)
    thetas = np.linspace(0.0, math.pi, count)
    columns = ["theta"] + [f"chi2_j{j}" for j in j_list]
    data = [thetas]
    for j in j_list:
        data.append(chi_squared_terms(large_j_pair_state(j), thetas).sum(axis=1))
    _write_table(out / "chi2-largeJ.csv", columns, data)
    payload = _sidecar_base("chi2-largeJ", None)
    payload["columns"] = columns
    payload["j_list"] = list(j_list)
    payload["theta_count"] = count
    _write_json(out / "chi2-largeJ.json", payload)
    return 0


def _write_marginal(out: Path, name: str, state: PawState, grid, extra: dict) -> int:
    """The grid as name.csv, and a sidecar with its state, axes and ``extra``."""
    grid.write_csv(out / f"{name}.csv")
    print(f"wrote {out / f'{name}.csv'}")
    payload = _sidecar_base(name, state)
    payload["axes"] = grid.metadata()
    payload.update(extra)
    _write_json(out / f"{name}.json", payload)
    return 0


def _figure_marg_pq(args, config, out: Path) -> int:
    state = _resolve_state(args, config, family=balanced_two_level_state)
    q_default, p_default = default_phase_space_axes()
    q_axis = _grid_axis(config.grids, "q", q_default)
    p_axis = _grid_axis(config.grids, "p", p_default)
    grid = marginal_phase_space(state, q_axis, p_axis)
    return _write_marginal(out, "marg-pq", state, grid, {"mass": grid.mass()})


def _figure_marg_et(args, config, out: Path) -> int:
    state = _resolve_state(args, config, family=balanced_two_level_state)
    e_axis = _grid_axis(config.grids, "e", default_energy_axis(state))
    grid = marginal_energy_time(state, e_axis)
    return _write_marginal(out, "marg-et", state, grid, {"mass": grid.mass()})


def _figure_marg_qt(args, config, out: Path) -> int:
    state = _resolve_state(args, config, family=balanced_two_level_state)
    q_default, _ = default_phase_space_axes()
    q_axis = _grid_axis(config.grids, "q", q_default)
    t_axis = _grid_axis(config.grids, "t", default_time_axis(state))
    grid, report = marginal_space_time(state, q_axis, t_axis)
    return _write_marginal(out, "marg-qt", state, grid,
                           {"interference": dataclasses.asdict(report)})


def _figure_orbits(args, config, out: Path) -> int:
    name = args.name
    state, samples = _write_orbits(args, config, out / f"{name}.csv")
    levels = surviving_configurations(state)
    payload = _sidecar_base(name, state if state.two_j <= 60 else None)
    payload["samples"] = samples
    payload["radii"] = [lv.radius_q for lv in levels]
    payload["energies"] = [lv.energy for lv in levels]
    _write_json(out / f"{name}.json", payload)
    return 0


# Figure name -> the function that writes its CSV and JSON sidecar.
_FIGURES = {
    "chi2-j3": _figure_chi2_j3,
    "chi2-largeJ": _figure_chi2_largej,
    "marg-pq": _figure_marg_pq,
    "marg-et": _figure_marg_et,
    "marg-qt": _figure_marg_qt,
    "orbits-pq": _figure_orbits,
    "orbits-et": _figure_orbits,
}
FIGURE_NAMES = tuple(_FIGURES)


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in _FIGURES:
        print(f"unknown figure {args.name!r}; choose from {', '.join(FIGURE_NAMES)}",
              file=sys.stderr)
        return 3
    config = _load_config(args)
    out = _out_dir(args, config)
    return _FIGURES[args.name](args, config, out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_state_flags(parser: argparse.ArgumentParser, coeff_help: str | None = None) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON scenario config (unknown keys are rejected)")
    parser.add_argument("--two-j", dest="two_j", type=_COUNT, default=None,
                        help="total spin as the integer 2J")
    parser.add_argument("--m", dest="m", type=parse_state_mass, default=None,
                        help="oscillator mass M (integer)")
    parser.add_argument("--epsilon-over-omega", dest="epsilon_over_omega",
                        type=parse_state_ratio, default=None, metavar="N/D",
                        help="clock level spacing over oscillator frequency")
    parser.add_argument("--kappa-r", dest="kappa_r", type=parse_state_ratio,
                        default=None, metavar="N/D",
                        help="synonym for --epsilon-over-omega (kappa*r = eps/omega)")
    parser.add_argument("--coeff", action="append", type=parse_coefficient,
                        metavar="K=COMPLEX", help=coeff_help)


def _add_settings_flag(parser: argparse.ArgumentParser, flag: str,
                       key: str | None = None, help: str | None = None) -> None:
    """The repeatable KEY=VALUE flag that overrides grid settings.

    With ``key`` the flag takes a bare VALUE for that one setting, so
    ``--theta-count 64`` is ``--grid theta_count=64``; the last one given wins.
    """
    def parse(text: str) -> tuple[str, float | int]:
        name, _, value = (key, "=", text) if key else text.partition("=")
        try:
            return name.strip(), _setting(name.strip(), value)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    parser.add_argument(flag, dest="grids", action="append", type=parse,
                        metavar=key.upper() if key else "KEY=VALUE", help=help)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any token starting "-digit" or "-.digit",
    such as -1e-3, as a value, not a flag: the negative-number pattern of
    Python 3.13's argparse, whose older one matches plain decimals only.
    Subparsers are built with the class of their parent."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it
    unchanged, and building its ~100 arguments costs more than a small verify."""
    parser = _Parser(
        prog="pawclock",
        description="Page-Wootters magnetic-clock / oscillator simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list allowed (m+J, n) pairs")
    p_enum.add_argument("--kappa-r", dest="kappa_r", type=parse_rational,
                        required=True, metavar="N/D")
    p_enum.add_argument("--two-j", dest="two_j", type=_COUNT, required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_build = sub.add_parser("build", help="assemble and summarize a state")
    _add_state_flags(p_build, coeff_help="amplitude on branch m+J=K (repeatable); "
                                          "default is equal weight on every allowed pair")
    p_build.add_argument("--out", metavar="DIR", help="directory for state.json")
    p_build.set_defaults(func=cmd_build)

    p_chi2 = sub.add_parser("chi2", help="tabulate chi^2(theta)")
    _add_state_flags(p_chi2)
    _add_settings_flag(p_chi2, "--theta-count", key="theta_count")
    _add_settings_flag(p_chi2, "--grid")
    p_chi2.add_argument("--out", metavar="DIR")
    p_chi2.set_defaults(func=cmd_chi2)

    p_cond = sub.add_parser("conditional", help="conditional oscillator state")
    _add_state_flags(p_cond)
    p_cond.add_argument("--theta", type=_ANGLE, required=True)
    p_cond.add_argument("--phi", type=_FINITE, default=0.0)
    p_cond.set_defaults(func=cmd_conditional)

    p_schro = sub.add_parser("schrodinger",
                             help="finite-difference order study of the evolution")
    _add_state_flags(p_schro)
    p_schro.add_argument("--theta", type=_ANGLE, default=math.pi / 2)
    p_schro.add_argument("--phi", type=_FINITE, default=0.7)
    p_schro.add_argument("--dphi", type=_STEP, default=None,
                         help="largest finite-difference step (default scales "
                              "with the fastest branch phase)")
    p_schro.add_argument("--halvings", type=_HALVINGS, default=4,
                         help="number of step halvings in the study")
    p_schro.set_defaults(func=cmd_schrodinger)

    p_beta = sub.add_parser("beta", help="joint overlap amplitude at one point")
    _add_state_flags(p_beta)
    p_beta.add_argument("--theta", type=_ANGLE, required=True)
    p_beta.add_argument("--phi", type=_PHASE, default=0.0)
    p_beta.add_argument("--big-q", dest="big_q", type=_FINITE, default=0.0,
                        metavar="Q", help="dimensionless position sqrt(M omega) q")
    p_beta.add_argument("--big-p", dest="big_p", type=_FINITE, default=0.0,
                        metavar="P", help="dimensionless momentum p / sqrt(M omega)")
    p_beta.set_defaults(func=cmd_beta)

    p_fig = sub.add_parser("figure", help="reproduce a named data set")
    p_fig.add_argument("name", help=f"one of: {', '.join(FIGURE_NAMES)}")
    _add_state_flags(p_fig)
    p_fig.add_argument("--j-list", dest="j_list", type=_SPINS,
                       default=None, metavar="J1,J2,...",
                       help="spin values for chi2-largeJ (default 30,120,570)")
    _add_settings_flag(p_fig, "--theta-count", key="theta_count")
    _add_settings_flag(p_fig, "--samples", key="samples",
                       help="time samples per orbit for orbits-* figures")
    _add_settings_flag(p_fig, "--grid",
                       help="override one grid parameter, e.g. q_count=801")
    p_fig.add_argument("--out", metavar="DIR")
    p_fig.set_defaults(func=cmd_figure)

    p_orb = sub.add_parser("orbits", help="sample the classical orbit family")
    _add_state_flags(p_orb)
    _add_settings_flag(p_orb, "--samples", key="samples")
    _add_settings_flag(p_orb, "--grid")
    p_orb.add_argument("--out", metavar="DIR")
    p_orb.set_defaults(func=cmd_orbits)

    p_verify = sub.add_parser("verify", help="internal consistency checks")
    _add_state_flags(p_verify)
    p_verify.add_argument("--tamper-shift-n", dest="tamper_shift_n", type=int,
                          default=None,
                          help="shift every Fock index by this amount before "
                               "checking (diagnostic; breaks the constraint)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAdmissible as exc:
        print(f"error: state is not admissible: {exc}", file=sys.stderr)
        return 4
    except (UnsupportedIndex, ZeroState, NoOddOverEvenForm) as exc:
        print(f"error: state cannot be assembled: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
