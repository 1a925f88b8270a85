"""Unit tests for coherent-state overlaps, log-space amplitudes, and measures."""

import ast
import cmath
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import comb, roots_laguerre
from scipy.stats import poisson

from pawclock import coherent
from pawclock.classical import beta_amplitude
from pawclock.coherent import (
    LogAmplitude,
    SphereCoordinate,
    _libm_log,
    _log_fock_density,
    hcs_log_magnitude,
    ln_binomial,
    ln_factorial,
    logsumexp,
    scs_log_magnitude,
    xlogy,
)
from pawclock.pawstate import spin3_pair_state
from reference_beta import sphere_quadrature


def direct_scs_overlap(theta, phi, two_j, k):
    """<Omega|J, m> evaluated naively: sqrt(binom) cos^{2J-k} sin^k e^{-i k phi}."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (math.sqrt(comb(two_j, k, exact=True)) * c ** (two_j - k) * s ** k
            * cmath.exp(-1j * k * phi))


def test_log_amplitude_round_trip():
    """A complex number survives the (log magnitude, phase) form beta returns."""
    z = 0.3 - 0.7j
    amp = LogAmplitude(math.log(abs(z)), cmath.phase(z))
    assert cmath.rect(math.exp(amp.log_magnitude), amp.phase) == pytest.approx(z)
    assert amp.magnitude_squared == pytest.approx(abs(z) ** 2)
    assert LogAmplitude(-math.inf, 0.0).magnitude_squared == 0.0


def test_ln_factorial_and_binomial():
    assert ln_factorial(0) == pytest.approx(0.0)
    assert ln_factorial(5) == pytest.approx(math.log(120))
    assert ln_binomial(6, 2) == pytest.approx(math.log(15))
    # half-integer second argument goes through the Gamma function
    expected = (math.lgamma(7) - math.lgamma(5) - math.lgamma(3))
    assert ln_binomial(6, 4) == pytest.approx(expected)


def test_sphere_coordinate_validation():
    SphereCoordinate(0.0, 0.0)
    SphereCoordinate(math.pi, 12.0)
    with pytest.raises(ValueError):
        SphereCoordinate(-0.1, 0.0)
    with pytest.raises(ValueError):
        SphereCoordinate(math.pi + 0.1, 0.0)


def test_scs_overlap_matches_direct_formula():
    """|<Omega|J, m>| = exp(scs_log_magnitude), the phase being -k*phi, k = m+J."""
    two_j = 3
    k = np.arange(two_j + 1)
    for theta in (0.3, 1.2, 2.0, 3.0):
        for phi in (0.0, 0.4, 2.9):
            overlap = np.exp(scs_log_magnitude(theta, two_j, k) - 1j * k * phi)
            direct = [direct_scs_overlap(theta, phi, two_j, level) for level in k]
            assert overlap == pytest.approx(direct, abs=1e-14)


def test_scs_levels_resolve_unity_pointwise():
    """sum_k |<Omega|J,m>|^2 = 1 for every Omega (binomial theorem)."""
    for two_j in (1, 3, 6, 41, 1140):
        for theta in (0.0, 0.7, 1.9, math.pi):
            total = sum(math.exp(2.0 * float(scs_log_magnitude(theta, two_j, k)))
                        for k in range(0, two_j + 1, max(1, two_j // 20)))
            # subsampled ladders are only a lower bound; use the full sum when cheap
            if two_j <= 10:
                total = sum(math.exp(2.0 * float(scs_log_magnitude(theta, two_j, k)))
                            for k in range(two_j + 1))
                assert total == pytest.approx(1.0, abs=1e-12)
            else:
                assert total <= 1.0 + 1e-12


def test_scs_log_magnitude_survives_extreme_spin():
    # binom(1140, 570) overflows floats by ~340 orders of magnitude; the log
    # form must stay finite and recombine to the exact normalized value
    value = 2.0 * float(scs_log_magnitude(math.pi / 2.0, 1140, 570))
    direct = ln_binomial(1140, 570) + 1140 * math.log(0.5)
    assert math.isfinite(value)
    assert value == pytest.approx(direct, rel=1e-12)


EPS = np.finfo(float).eps


def mp_ln_binomial(n, k):
    return mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)


@st.composite
def spin_readings(draw):
    two_j = draw(st.integers(1, 1140))
    return two_j, draw(st.integers(0, two_j)), draw(st.floats(1e-6, math.pi - 1e-6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=spin_readings())
@example(case=(1140, 570, math.pi / 2.0))
@example(case=(1140, 0, math.pi - 1e-6))  # cos(theta/2) ~ 5e-7 to the 1140th power
@example(case=(1140, 1140, 1e-6))
@example(case=(1139, 3, 0.1))
def test_scs_log_magnitude_matches_mpmath(case):
    """ln binom(2J,k)/2 + (2J-k) ln cos(theta/2) + k ln sin(theta/2) against a
    50-digit oracle at the same float theta, within 4 ulps of the summed term
    magnitudes (ln binom is a difference of log-Gammas up to ln (2J+1)!)."""
    two_j, k, theta = case
    with mpmath.workdps(50):
        half = mpmath.mpf(theta) / 2
        log_cos, log_sin = mpmath.log(mpmath.cos(half)), mpmath.log(mpmath.sin(half))
        exact = mp_ln_binomial(two_j, k) / 2 + (two_j - k) * log_cos + k * log_sin
        scale = (mpmath.loggamma(two_j + 2) + (two_j - k) * abs(log_cos)
                 + k * abs(log_sin))
    error = abs(float(scs_log_magnitude(theta, two_j, k)) - float(exact))
    assert error <= 4.0 * EPS * float(scale)


@st.composite
def fock_readings(draw):
    n = draw(st.integers(0, 4000))
    near_peak = st.floats(0.8, 1.2).map(lambda r: r * max(n, 1))
    return n, draw(st.floats(1e-3, 8000.0) | near_peak)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=fock_readings())
@example(case=(4000, 4000.0))
@example(case=(4000, 1e-3))
@example(case=(0, 8000.0))
def test_log_fock_density_matches_mpmath(case):
    """Half the log Fock density, log |<alpha|n>| = (n ln u - u - ln n!)/2,
    against a 50-digit oracle, within 4 ulps of the summed term magnitudes."""
    n, u = case
    with mpmath.workdps(50):
        log_u, log_factorial = mpmath.log(mpmath.mpf(u)), mpmath.loggamma(n + 1)
        exact = (n * log_u - u - log_factorial) / 2
        scale = n * abs(log_u) + u + log_factorial
    error = abs(0.5 * float(_log_fock_density(u, math.log(u), n)) - float(exact))
    assert error <= 4.0 * EPS * float(scale)


def test_log_fock_density_is_minus_inf_where_u_overflows():
    """At u = +inf, e^{-u} underflows every u^n: -inf at every level, where
    inf - inf would give NaN, and no numpy warning; finite u keep their bits."""
    u = np.array([math.inf, 2.0, 0.0])
    n = np.array([[0.0], [3.0], [4000.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _log_fock_density(u, _libm_log(u), n)
        assert _log_fock_density(math.inf, math.inf, 3.0) == -math.inf
    assert (out[:, 0] == -math.inf).all()
    finite = _log_fock_density(u[1:], _libm_log(u[1:]), n)
    assert out[:, 1:].tobytes() == finite.tobytes()


def test_sphere_quadrature_integrates_each_level_to_one():
    """integral dmu(Omega) |<Omega|J,m>|^2 = 1: resolution of identity, diagonal."""
    for two_j in (1, 6, 60):
        thetas, weights = sphere_quadrature(two_j)
        for k in (0, two_j // 2, two_j):
            total = np.sum(weights * np.exp(2.0 * scs_log_magnitude(thetas, two_j, k)))
            assert total == pytest.approx(1.0, abs=1e-10), (two_j, k)


def test_sphere_measure_weight_total():
    """The measure (2J+1)/(4pi) sin(theta) integrates to 2J+1 over the sphere."""
    two_j = 6
    thetas, weights = sphere_quadrature(two_j)
    assert np.sum(weights) == pytest.approx(two_j + 1, rel=1e-12)


def test_hcs_overlap_matches_poisson():
    """|<alpha|n>|^2 is the Poisson pmf in u = M |alpha|^2."""
    mass = 170
    alpha = cmath.rect(math.sqrt(1.0 / mass), 0.3)
    u = mass * abs(alpha) ** 2
    levels = np.array([0, 3, 170])
    density = np.exp(2.0 * hcs_log_magnitude(alpha, mass, levels))
    assert density == pytest.approx(poisson.pmf(levels, u), rel=1e-12)
    # the reference point |alpha| = 1, n = M, where u = M
    dense = math.exp(2.0 * hcs_log_magnitude(complex(1.0, 0.0), 170, 170))
    assert dense == pytest.approx(poisson.pmf(170, 170.0), rel=1e-12)
    assert dense == pytest.approx(0.030582, abs=1e-6)


@pytest.mark.parametrize("root", [1e-300, 1.0, 1e154])
def test_hcs_log_magnitude_where_ln_factorial_overflows(root):
    """Past n = 2.6e305, where ln(n!) overflows a float, log |<alpha|n>| still
    matches a 40-digit oracle, or is -inf where the oracle is below -1.8e308.
    Between n = 2.6e305 and 5e305 it read -inf where finite, above that NaN."""
    levels = [3e305, 1e306, 1e307]
    with mpmath.workdps(40):
        r = mpmath.mpf(root)
        exact = [float(n * mpmath.log(r) - r ** 2 / 2 - mpmath.loggamma(n + 1) / 2)
                 for n in map(mpmath.mpf, levels)]
    assert hcs_log_magnitude(complex(root, 0.0), 1, levels) == pytest.approx(exact, rel=1e-13)


def test_hcs_overlap_phase_convention():
    """<alpha|n> carries phase -n*arg(alpha), as beta_amplitude assembles it.

    At theta = pi the J = 3 state keeps only its (m+J, n) = (6, 4) branch
    (the other is cos(pi/2)^4 ~ 1e-65 of it), so beta is c <Omega|J, 3><alpha|4>
    with <Omega|J, 3> = e^{-6i phi}.
    """
    alpha = cmath.rect(0.8, 0.9)
    direct = (math.exp(-abs(alpha) ** 2 / 2.0) * alpha ** 4 / math.sqrt(24.0)).conjugate()
    assert math.exp(hcs_log_magnitude(alpha, 1, 4)) == pytest.approx(abs(direct), rel=1e-14)
    amp = beta_amplitude(spin3_pair_state(), SphereCoordinate(math.pi, 0.3), alpha)
    expected = direct * cmath.exp(-6j * 0.3) / math.sqrt(2.0)
    assert cmath.rect(math.exp(amp.log_magnitude), amp.phase) == pytest.approx(
        expected, abs=1e-14)


def test_hcs_levels_resolve_unity_pointwise():
    """sum_n |<alpha|n>|^2 = 1 (the Poisson distribution sums to one)."""
    levels = np.arange(1000.0)
    for u in (0.3, 4.0, 170.0):
        total = np.sum(np.exp(_log_fock_density(u, math.log(u), levels)))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_plane_measure_integrates_each_level_to_one():
    """(M/2pi) integral dQ dP |<alpha|n>|^2 = 1, via Gauss-Laguerre in u."""
    nodes, weights = roots_laguerre(120)
    for n in (0, 2, 17):
        # (M/2pi) dQ dP = du dtheta/(2pi) with u = M(Q^2+P^2)/2; the angular
        # integral is trivial, leaving integral du e^{-u} u^n / n! = 1
        total = np.sum(weights * np.exp(_log_fock_density(nodes, _libm_log(nodes), n)
                                        + nodes))
        assert total == pytest.approx(1.0, rel=1e-9), n


@st.composite
def logsumexp_inputs(draw):
    """Arrays of up to 64 x 8 terms at scales up to 1e3.

    They hold ties (repeated values), NaN, +-inf, and whole rows and columns
    at -inf.
    """
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-3, 1.0, 40.0, 1e3]))
    unit = st.floats(-1.0, 1.0) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    a = draw(hnp.arrays(float, (rows, cols), elements=unit)) * scale
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for cell, value in draw(st.lists(st.tuples(cells, st.sampled_from(
            [-np.inf, np.inf, np.nan])), max_size=3)):
        a[cell] = value
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        a[row] = -np.inf
    for col in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        a[:, col] = -np.inf
    return a


@settings(max_examples=400, deadline=None, derandomize=True)
@given(a=logsumexp_inputs(), axis=st.sampled_from([None, 0, 1, -1]))
def test_logsumexp_is_bitwise_scipy(a, axis):
    ours = logsumexp(a, axis=axis)
    theirs = scipy.special.logsumexp(a, axis=axis)
    assert type(ours) is type(theirs)
    assert np.shape(ours) == np.shape(theirs)
    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()


def _same_bits(ours, theirs):
    """Equal shape and bytes, where a NaN equals a NaN of any payload."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    nan = np.isnan(ours) & np.isnan(theirs)
    return (ours.shape == theirs.shape
            and np.where(nan, 0.0, ours).tobytes() == np.where(nan, 0.0, theirs).tobytes())


def test_ln_gamma_table_is_within_two_ulp_of_mpmath():
    """Every table entry log Gamma(h/2 + 1), h < 65,536, is within 2 ulp of
    its 40-digit value.  Cephes lgam meets only 2.81 ulp on this table and
    bare math.lgamma 14.7 (at h = 1), so the bound holds only with the
    correctly rounded entries h <= 11."""
    x = np.arange(coherent._TABLE_LIMIT) / 2.0
    ours = ln_factorial(x).tolist()
    assert coherent._ln_gamma_halves.size == x.size
    assert type(ln_factorial(3)) is np.float64
    with mpmath.workdps(40):
        ulps = []
        for h, value in enumerate(ours):
            exact = mpmath.loggamma(mpmath.mpf(h) / 2 + 1)
            ulps.append(float(abs(value - exact)) / math.ulp(float(exact)))
    assert max(ulps) <= 2.0, (int(np.argmax(ulps)), max(ulps))


def test_lgam_is_inf_at_the_poles_and_beyond_a_float():
    """math.lgamma raises where log Gamma is infinite; _lgam gives +inf there."""
    for x in (-0.0, 0.0, -1.0, -34.0, 2.6e305, -math.inf, math.inf):
        assert coherent._lgam(x) == math.inf, x
    assert math.isnan(coherent._lgam(math.nan))
    assert coherent._lgam(2.5e305) < math.inf


# the tiny-argument log (|x| < 1e-20), the Lanczos sum, the reflection (x < 0),
# the correctly rounded table entries, the poles and every non-finite value
LGAM_ARGUMENTS = (st.floats(-50.0, 14.0) | st.floats(0.0, 2e3) | st.floats(0.0, 1e9)
                  | st.floats(allow_nan=True, allow_infinity=True)
                  | st.integers(-60, 20).map(float)
                  | st.integers(-24_000, 24_000).map(lambda h: h / 2.0))


def _ln_gamma_successor_by_element(x):
    """log Gamma(x + 1) one float at a time, as the table defines it: the
    correctly rounded entry at x = 0, 1/2, ..., 11/2 and _lgam(x + 1) elsewhere."""
    def one(v):
        h = 2.0 * v
        if 0.0 <= h < len(coherent._LN_GAMMA_SMALL) and h == int(h):
            return coherent._LN_GAMMA_SMALL[int(h)]
        return coherent._lgam(v + 1.0)
    x = np.asarray(x, dtype=float)
    return np.reshape([one(v) for v in x.ravel().tolist()], x.shape)


def _lgamma_tolerance(x):
    """A bound on |math.lgamma(x) - scipy gammaln(x)| at finite x.

    Each evaluates log Gamma(x) as a sum of a few rounded terms: the main
    term (x - 1/2) log(x + c) - x, at most (1 + |x|)(1 + |log|x||); a
    rational or Lanczos factor and constants, within 8; and for x < 0 the
    reflection terms log pi, log|x| and log|sin(pi x)|, the last at most
    log pi + |log Gamma(x)| + |log Gamma(1 - x)|, where |log Gamma(1 - x)| is
    within the main term's size.  With S(x) the sum of those sizes and each
    term within 2 eps, each side is within 2 eps S(x) of log Gamma(x), so the
    two differ by at most 4 eps S(x).  On 0.94 million arguments, over the
    ranges of LGAM_ARGUMENTS and log-uniform in 1e-304 <= |x| <= 1e304, the
    largest difference was 1.12 eps S(x), at x = -57 + 8.8e-10.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):  # inf at 0 and near 1e308
        size = (8.0 + (1.0 + np.abs(x)) * (1.0 + np.abs(np.log(np.abs(x))))
                + np.abs(scipy.special.gammaln(x)))
    return 4.0 * np.finfo(float).eps * size


def _assert_near_gammaln(ours, first, *rest):
    """ours is gammaln(first) - sum(gammaln(rest)) within the sum of their
    _lgamma_tolerance, or equal to it, wherever every argument is finite."""
    arguments = np.broadcast_arrays(first, *rest)
    gammaln = scipy.special.gammaln
    bound = sum(_lgamma_tolerance(a) for a in arguments)
    finite = np.all([np.isfinite(a) for a in arguments], axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf at the poles
        theirs = gammaln(arguments[0]) - sum(gammaln(a) for a in arguments[1:])
        near = ((ours == theirs) | (np.isnan(ours) & np.isnan(theirs))
                | (np.abs(ours - theirs) <= bound))
    assert near[finite].all(), (ours, theirs, bound)


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(x=LGAM_ARGUMENTS)
@example(x=-0.0)
@example(x=5e-324)
@example(x=2.556348e305)
@example(x=-34.5)
def test_lgam_is_near_gammaln(x):
    """_lgam is scipy's gammaln within _lgamma_tolerance at finite x, +inf
    at both infinities and NaN at NaN."""
    ours = coherent._lgam(x)
    assert type(ours) is float
    if math.isfinite(x):
        _assert_near_gammaln(ours, x)
    else:
        assert _same_bits(ours, abs(x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=hnp.arrays(float, st.integers(0, 12), elements=LGAM_ARGUMENTS),
       k=LGAM_ARGUMENTS)
def test_ln_factorial_and_ln_binomial_are_bitwise_the_scalar_path(n, k):
    """Table hits and the scalar fallback mix freely inside one array."""
    lgs = _ln_gamma_successor_by_element
    assert _same_bits(ln_factorial(n), lgs(n))
    _assert_near_gammaln(ln_factorial(n), n + 1.0)
    with np.errstate(invalid="ignore"):  # inf - inf at the poles, on both sides
        assert _same_bits(ln_binomial(n, k), lgs(n) - lgs(k) - lgs(n - k))
        _assert_near_gammaln(ln_binomial(n, k), n + 1.0, k + 1.0, n - k + 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(0, 3000).map(float) | LGAM_ARGUMENTS,
       k=hnp.arrays(float, st.integers(0, 12),
                    elements=st.integers(-2, 6002).map(lambda h: h / 2.0) | LGAM_ARGUMENTS))
def test_ln_binomial_of_one_n_is_bitwise_the_scalar_path(n, k):
    """A scalar n, as every caller passes (a 2J), against integer and
    half-integer k: table gathers, mixed with the scalar fallback."""
    lgs = _ln_gamma_successor_by_element
    with np.errstate(invalid="ignore"):
        assert _same_bits(ln_binomial(n, k), lgs(n) - lgs(k) - lgs(n - k))
        _assert_near_gammaln(ln_binomial(n, k), n + 1.0, k + 1.0, n - k + 1.0)


XLOGY_Y = (st.floats(0.0, 1e3) | st.floats(0.0, 1e-300, allow_subnormal=True)
           | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
           | st.sampled_from([0.0, -0.0, 5e-324, 1.0, math.nan, math.inf]))
XLOGY_N = st.integers(0, 4000).map(float) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(n=XLOGY_N | st.just(0.0), y=XLOGY_Y)
def test_xlogy_is_bitwise_scipy(n, y):
    ours = xlogy(n, y)
    theirs = scipy.special.xlogy(n, y)
    assert type(ours) is type(theirs)
    assert _same_bits(ours, theirs)
    assert _same_bits(xlogy(n, y, _libm_log(y)), theirs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=hnp.arrays(float, st.integers(1, 6), elements=XLOGY_N),
       y=hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(1)), elements=XLOGY_Y))
def test_xlogy_broadcasts_one_log_per_y_bitwise(n, y):
    assert _same_bits(xlogy(n, y), scipy.special.xlogy(n, y))


def _module_trees():
    for path in sorted((Path(__file__).parents[1] / "src" / "pawclock").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_logsumexp_lives_only_in_coherent():
    """coherent.logsumexp is the one log-sum-exp in the package.

    No other module defines one, imports one from elsewhere, or reaches one
    through a module attribute.
    """
    definitions = []
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "logsumexp":
                definitions.append(name)
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name == "logsumexp" for alias in node.names):
                assert (node.level, node.module) == (1, "coherent"), \
                    f"{name} imports logsumexp from {node.module}"
            elif isinstance(node, ast.Attribute):
                assert node.attr != "logsumexp", f"{name} calls {ast.unparse(node)}"
    assert definitions == ["coherent.py"]


def test_fock_algebra_lives_only_in_coherent():
    """log n! and the log Fock density are computed in coherent.py and nowhere else."""
    log_gammas = {"gammaln", "loggamma", "lgamma"}
    fock_kernels = set()
    for module, tree in _module_trees():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and "fock_density" in node.name:
                fock_kernels.add((module, node.name))
        if module != "coherent.py":
            assert not names & log_gammas, f"{module} computes a log-Gamma itself"
    assert fock_kernels == {("coherent.py", "_log_fock_density")}


def test_no_module_imports_scipy():
    """scipy is a test oracle only: nothing under src/ imports it."""
    for path in sorted((Path(__file__).parents[1] / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(module.partition(".")[0] == "scipy" for module in modules), \
                f"{path.name} imports {ast.unparse(node)}"


# Exported paper checks that no program code calls yet; each gets its caller
# from the ROADMAP item named beside it.
UNCALLED_EXPORTS = {
    "classical_limit_section",  # item 6
    "space_time_diagonal",  # item 6
    "stationary_residual",  # item 7
    "theta_of_energy",  # item 7
    "energy_time_coordinate",  # item 7
    "EnergyTimeCoordinate",  # item 7: what energy_time_coordinate returns
}

# Public methods and properties of exported classes that no program code reads.
UNCALLED_MEMBERS: set[str] = set()


def _names_read(tree, skip: str, modules=(), bare=True) -> set[str]:
    """Names and attributes ``tree`` reads outside the definition of ``skip``.

    A string "module.name" with ``module`` in ``modules`` counts as a read of
    name: the benchmark tracer names its spans so.  With ``bare`` false only
    attribute reads count, as for a method or property.
    """
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, name = node.value.rpartition(".")
            if module in modules:
                found.add(name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_members(tree, classes: set[str]) -> set[str]:
    """"Class.member" for each public method or property ``classes`` define in ``tree``."""
    return {f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def test_every_export_has_a_caller_in_the_program():
    """Each name of the ``_EXPORTS`` table in pawclock/__init__.py is read by
    another module of the package or by bench/, not only by tests;
    UNCALLED_EXPORTS are the exceptions.

    So is each public method or property of an exported class, as an
    attribute read outside its own definition; UNCALLED_MEMBERS are the
    exceptions.  Attributes are matched by name, so ``state.mass`` counts as
    a read of ``DistributionGrid.mass``: the check finds the members that no
    code reads under any owner, not every member without a caller.
    """
    root = Path(__file__).parents[1]
    trees = dict(_module_trees())
    table = next(node.value for node in trees.pop("__init__.py").body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS")
    exported = set().union(*ast.literal_eval(table).values())
    assert exported, "pawclock/__init__.py exports no names"
    modules = {name.removesuffix(".py") for name in trees}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "bench").glob("*.py"))]

    def read(name: str, bare=True) -> bool:
        return (any(name in _names_read(tree, name, bare=bare) for tree in trees.values())
                or any(name in _names_read(tree, name, modules, bare) for tree in bench))

    uncalled = {name for name in exported if not read(name)}
    assert uncalled <= UNCALLED_EXPORTS, sorted(uncalled - UNCALLED_EXPORTS)
    members = set().union(*(_public_members(tree, exported) for tree in trees.values()))
    unread = {member for member in members if not read(member.partition(".")[2], bare=False)}
    assert unread <= UNCALLED_MEMBERS, sorted(unread - UNCALLED_MEMBERS)
