"""Iterated-logarithm growth formulas.  Every logarithm here is base 2.

The module evaluates the growth profile f(t) = t * 2^(-sqrt(log2 log2
log2 t)/2), inverts it over the integers, and exposes the progression
bound n/(log2 log2 n)^(2^(-2^(k+9))) - 1 together with the guaranteed
progression length it implies.  At desk scale the guaranteed lengths are
all vacuous (<= 1); the point of the table is to make that visible, not
to hide it.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, MonotonicityError

# The largest l of profile_inverse: m_l ~ 1.73 l then stays below 2^51, where
# doubles still separate f(m) from f(m + 1) (sampled; above 2^52 they do not).
MAX_PROFILE_L = 2**49


def growth_profile(t) -> float:
    """f(t) = t * 2^(-sqrt(log2 log2 log2 t)/2), defined for t >= 4."""
    if t < 4:
        raise DomainError("growth profile needs t >= 4")
    lll = math.log2(math.log2(math.log2(t)))
    return t * 2.0 ** (-math.sqrt(lll) / 2.0)


def profile_inverse(l) -> int:
    """Largest integer m with growth_profile(m) <= l, for 4 <= l <= MAX_PROFILE_L.

    Bisection is sound because f increases strictly on the integers from 4:
    f(4) = 4 < f(5) ~ 4.16, and from t = 5 on d(ln f)/dt = (1 - 1/P)/t with
    P = 4 (ln 2)^2 log2 t log2 log2 t sqrt(log2 log2 log2 t), which is 2.88
    at t = 5 and increases with t.  Brackets by doubling from max(16, 4*l^2),
    bisects, then re-checks the bracket f(m) <= l < f(m+1), which raises
    MonotonicityError if rounding ever breaks it.  m is the double-precision
    value; from about l = 2^40 on it can differ by one from the real one.
    """
    if l < 4:
        raise DomainError("profile inverse is defined for l >= 4")
    if l > MAX_PROFILE_L:
        raise DomainError(f"profile inverse needs l <= 2^49 = {MAX_PROFILE_L}")
    hi = int(max(16, 4 * l * l))
    while growth_profile(hi) <= l:
        hi *= 2
    lo = 4
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if growth_profile(mid) <= l:
            lo = mid
        else:
            hi = mid
    if not (growth_profile(lo) <= l < growth_profile(lo + 1)):
        raise MonotonicityError("bracket failed to re-verify after bisection")
    return lo


def gowers_bound(n, k: int) -> float:
    """n/(log2 log2 n)^(2^(-2^(k+9))) - 1, evaluated in the log2 domain.

    The log-domain form keeps the inner exponent from overflowing.  Note
    that 2^(-2^(k+9)) underflows to exactly 0.0 in double precision for
    every k >= 2, so at representable n the value returned is n - 1; the
    bound only separates from n - 1 far beyond floating-point range.
    """
    if n < 16:
        raise DomainError("bound needs n >= 16")
    if k < 2:
        raise DomainError("progression length must be >= 2")
    shrink = 2.0 ** -(2 ** (k + 9))
    ll = math.log2(math.log2(n))
    return 2.0 ** (math.log2(n) - shrink * math.log2(ll)) - 1.0


def guaranteed_ap_length(l3) -> int:
    """floor(log2 log2 sqrt(L3) - 9) for L3 = log2 log2 log2 n.

    Takes the already-iterated logarithm so that inputs with a
    non-vacuous answer stay representable; arbitrarily large Python
    integers are accepted (math.log2 handles them exactly enough).
    """
    if l3 <= 0:
        raise DomainError("l3 must be positive")
    half_log = math.log2(l3) / 2.0  # log2 of sqrt(l3)
    if half_log <= 0:
        raise DomainError("guaranteed length undefined for l3 <= 1")
    return math.floor(math.log2(half_log) - 9.0)


def is_vacuous_length(k: int) -> bool:
    """Lengths <= 1 promise nothing a single point does not already give."""
    return k <= 1


def power_identity_residual(l3: float) -> float:
    """Relative gap |(2^L3)^(1/sqrt L3) - 2^(sqrt L3)| / 2^(sqrt L3).

    Mathematically zero; evaluated as ordinary float powers on purpose so
    the residual measures accumulated rounding, not algebra.
    """
    if l3 <= 0:
        raise DomainError("l3 must be positive")
    if l3 > 1024:
        raise DomainError("direct evaluation overflows past l3 = 1024")
    base = 2.0 ** l3
    root = math.sqrt(l3)
    lhs = base ** (1.0 / root)
    rhs = 2.0 ** root
    return abs(lhs - rhs) / rhs


@dataclass(frozen=True)
class GowersRow:
    """One row of the quantitative table.

    bound_r3 and k_of_n are None when m_l is too small for the formulas
    (m_l < 16 resp. m_l <= 16); such rows are vacuous by definition.
    """

    l: int
    m_l: int
    f_at_m_l: float
    bound_r3: float | None
    k_of_n: int | None
    vacuous: bool


def gowers_row(l: int) -> GowersRow:
    m = profile_inverse(l)
    bound = gowers_bound(float(m), 3) if m >= 16 else None
    guaranteed = None
    if m > 16:
        guaranteed = guaranteed_ap_length(math.log2(math.log2(math.log2(m))))
    vacuous = guaranteed is None or is_vacuous_length(guaranteed)
    return GowersRow(l, m, growth_profile(m), bound, guaranteed, vacuous)


def gowers_table(l_values) -> list[GowersRow]:
    return [gowers_row(l) for l in l_values]
