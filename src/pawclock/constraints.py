"""Exact solution of the clock-oscillator stationarity constraint.

A spin-J magnetic clock (level spacing ``epsilon``, offset gauge-fixed so the
lowest level sits at zero) is entangled with a harmonic oscillator
(frequency ``omega``, normalization ``M``).  Demanding that the global state
be annihilated by the total Hamiltonian forces, on every populated pair of
quantum numbers (m, n),

    n + 1/2 = kappa * r * (m + J),        kappa = eps*J/(omega*M),  r = M/J.

This is a Diophantine condition: it has solutions only when kappa*r reduces
to an odd numerator over an even denominator, and then the solutions form a
one-parameter family indexed by an integer l.  Everything in this module runs
in exact integer / Fraction arithmetic; floating point never decides
admissibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class NoOddOverEvenForm(ValueError):
    """kappa*r does not reduce to odd/even, so no (m+J, n) pair exists for any J."""


# ---------------------------------------------------------------------------
# physical parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockSpec:
    """Spin-J magnetic clock with Hamiltonian eps*J*j0 + F.

    ``two_j`` stores the integer 2J so that half-integer spins need no
    fractional bookkeeping.  The offset F is gauge fixed to eps*J, which puts
    the bottom level m = -J at zero energy.
    """

    two_j: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.two_j < 1:
            raise ValueError("two_j must be a positive integer")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class OscillatorSpec:
    """Harmonic oscillator with integer normalization ``mass`` and frequency ``omega``."""

    mass: int
    omega: float

    def __post_init__(self) -> None:
        if self.mass < 1:
            raise ValueError("mass must be a positive integer")
        if not self.omega > 0:
            raise ValueError("omega must be positive")

    def level_energy(self, n: int) -> float:
        """Energy omega*(n + 1/2) of Fock level n."""
        return self.omega * (n + 0.5)


@dataclass(frozen=True)
class CouplingRatios:
    """The dimensionless ratios controlling admissibility, kept as exact rationals.

    kappa   = eps*J/(omega*M)
    r       = M/J
    kappa_r = kappa*r = eps/omega
    """

    kappa: Fraction
    r: Fraction
    kappa_r: Fraction

    def __post_init__(self) -> None:
        if self.kappa <= 0 or self.r <= 0 or self.kappa_r <= 0:
            raise ValueError("all coupling ratios must be positive")
        if self.kappa * self.r != self.kappa_r:
            raise ValueError("kappa_r must equal kappa*r")

    @classmethod
    def from_parameters(cls, eps_over_omega: Fraction | int | str,
                        two_j: int, mass: int) -> "CouplingRatios":
        """Build the ratio set from the exact ratio eps/omega and the sizes 2J, M."""
        kappa_r = Fraction(eps_over_omega)
        r = Fraction(2 * mass, two_j)
        return cls(kappa=kappa_r / r, r=r, kappa_r=kappa_r)


# ---------------------------------------------------------------------------
# constraint arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedRatio:
    """kappa*r written as (2*i_n + 1)/(2*i_m) in lowest terms."""

    i_n: int
    i_m: int

    def __post_init__(self) -> None:
        if self.i_n < 0:
            raise ValueError("i_n must be non-negative")
        if self.i_m < 1:
            raise ValueError("i_m must be a positive integer")
        if gcd(2 * self.i_n + 1, 2 * self.i_m) != 1:
            raise ValueError("(2*i_n+1)/(2*i_m) must be in lowest terms")


@dataclass(frozen=True)
class PairFamily:
    """All allowed pairs for a reduced ratio at a given 2J, as integer tuples
    (m+J, n) ascending in the label l, which is a pair's index."""

    ratio: ReducedRatio
    two_j: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def m_fraction(self, m_plus_j: int) -> Fraction:
        """The half-integer m of ladder index m+J, as an exact Fraction."""
        return Fraction(2 * m_plus_j - self.two_j, 2)


def reduce_ratio(kappa_r: Fraction | int | str | tuple) -> ReducedRatio:
    """Reduce kappa*r to the odd/even normal form (2*i_n+1)/(2*i_m).

    Raises NoOddOverEvenForm when the reduced fraction has an even numerator
    or an odd denominator; in that case the constraint has no solutions for
    any J, by parity of n + 1/2 = kappa*r*(m+J).
    """
    kr = Fraction(*kappa_r) if isinstance(kappa_r, tuple) else Fraction(kappa_r)
    if kr <= 0:
        raise ValueError("kappa*r must be positive")
    num, den = kr.numerator, kr.denominator  # Fraction keeps lowest terms
    if num % 2 == 0 or den % 2 == 1:
        raise NoOddOverEvenForm(
            f"{kr} has no odd/even form: the constraint n + 1/2 = {kr}*(m+J) "
            f"has no integer solutions for any J"
        )
    return ReducedRatio(i_n=(num - 1) // 2, i_m=den // 2)


def enumerate_pairs(ratio: ReducedRatio, two_j: int) -> PairFamily:
    """Enumerate every allowed (m+J, n) pair at spin 2J for a reduced ratio.

    The closed form is m + J = i_m*(2l+1), n = i_n*(2l+1) + l with
    l = 0 .. floor(J/i_m - 1/2).  An empty family is a legitimate result
    (the spin is too small), not an error.
    """
    if two_j < 1:
        raise ValueError("two_j must be a positive integer")
    # floor(J/i_m - 1/2) in integer arithmetic; negative when two_j < i_m
    l_max = (two_j - ratio.i_m) // (2 * ratio.i_m)
    pairs = tuple((ratio.i_m * (2 * l + 1), ratio.i_n * (2 * l + 1) + l)
                  for l in range(l_max + 1))
    return PairFamily(ratio=ratio, two_j=two_j, pairs=pairs)


def brute_force_pairs(kappa_r: Fraction | int | str, two_j: int,
                      n_max: int) -> list[tuple[int, int]]:
    """Independent oracle: scan every ladder index and solve for n exactly.

    Returns all (m+J, n) with 0 <= m+J <= 2J and 0 <= n <= n_max satisfying
    n + 1/2 = kappa_r*(m+J).  With kappa_r = p/q in lowest terms, index k = m+J
    admits an integer n exactly when q divides 2*p*k with an odd quotient
    2n + 1, an integer divisibility test.  Shares no logic with
    :func:`enumerate_pairs`.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    kr = Fraction(kappa_r)
    p, q = kr.numerator, kr.denominator
    top = 2 * n_max + 1
    found = []
    for m_plus_j in range(two_j + 1):
        odd, rest = divmod(2 * p * m_plus_j, q)
        if rest == 0 and odd % 2 == 1 and 0 < odd <= top:
            found.append((m_plus_j, odd // 2))
    return found
