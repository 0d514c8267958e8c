"""Exact sequence-space kernel: sparse rational vectors and shift algebra.

A vector is finitely supported: integer numerators (index -> nonzero int)
over one shared positive denominator, the layout of FLINT's fmpq_poly.
The canonical form divides out gcd(denominator, every numerator), so equal
vectors have equal fields and equality is exact.  Arithmetic works on the
integers and reduces once per new vector; a coefficient is brought to
lowest terms only when it is read.  The backward shift maps e_n to
w_n * e_(n-1) (weights are indexed by the source basis index, so the
weight list is 1-indexed), and the forward shift is its exact right
inverse e_n -> e_(n+1)/w_(n+1).  On the unilateral side the backward
shift annihilates e_0 and negative indices are rejected.  k steps of a
shift are one pass, with the weight product over them in closed form.

Norm decisions are exact over the rationals: the l2 case compares
squares, and open balls use strict inequality, against the radius shrunk
by the ball's slack.  `walk` gives lambda_t T^t x at the requested times
along one orbit.  Float mode is data here: scalars wrapped in
`DoubleScalars` and balls with a slack; nothing takes a mode.  Instances
here are immutable, so values can be shared freely across threads or
processes.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isqrt
from typing import Mapping, Union

from .errors import InvalidArgumentError, ModeMismatchError

UNILATERAL = "unilateral"
BILATERAL = "bilateral"
INF = math.inf

def _coeff(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidArgumentError(
            "float coefficients are not allowed; convert explicitly via Fraction"
        )
    return Fraction(value)


def _vector(num: dict, den: int, reduced: bool = False) -> "FiniteVector":
    """num[i]/den for nonzero int numerators and den > 0, in canonical form.

    `reduced` says the caller has shown that gcd(den, *num) is already 1.
    """
    if not reduced:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {idx: n // g for idx, n in num.items()}
            den //= g
    out = FiniteVector.__new__(FiniteVector)
    out._num = num
    out._den = den
    return out


def _times(num: dict, den: int, p: int, q: int) -> "FiniteVector":
    """(num[i]/den) * (p/q), for canonical num/den and p/q in lowest terms with q > 0.

    The only common factors left are gcd(den, p) and gcd(q, *num), so the
    product is reduced without a gcd over the (large) products themselves.
    """
    g, h = math.gcd(den, p), math.gcd(q, *num.values())
    p //= g
    if p != 1 or h != 1:
        num = {idx: n // h * p for idx, n in num.items()}
    return _vector(num, den // g * (q // h), reduced=True)


class FiniteVector:
    """Immutable sparse vector over the rationals, indexed by integers."""

    __slots__ = ("_num", "_den")

    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        data: dict[int, Fraction] = {}
        for idx, value in items:
            if not isinstance(idx, int):
                raise InvalidArgumentError("indices must be integers")
            c = data.get(idx, Fraction(0)) + _coeff(value)
            if c == 0:
                data.pop(idx, None)
            else:
                data[idx] = c
        # over the lcm of lowest-terms denominators the form is canonical
        den = math.lcm(*(c.denominator for c in data.values()))
        self._num = {idx: c.numerator * (den // c.denominator) for idx, c in data.items()}
        self._den = den

    @classmethod
    def basis(cls, index: int, coefficient=1) -> "FiniteVector":
        return cls({index: coefficient})

    @classmethod
    def from_triples(cls, terms: list) -> "FiniteVector":
        """The inverse of `triples`: distinct indices, nonzero numerators, denominators > 0."""
        den = math.lcm(*(d for _, _, d in terms))
        return _vector({idx: n * (den // d) for idx, n, d in terms}, den)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        den = self._den
        return tuple((idx, Fraction(self._num[idx], den)) for idx in sorted(self._num))

    def triples(self) -> list[tuple[int, int, int]]:
        """(index, numerator, denominator) in index order, each coefficient in lowest terms."""
        den = self._den
        out = []
        for idx in sorted(self._num):
            n = self._num[idx]
            g = math.gcd(n, den)
            out.append((idx, n // g, den // g))
        return out

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._num))

    def coefficient(self, index: int) -> Fraction:
        return Fraction(self._num.get(index, 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def max_support(self) -> int | None:
        return max(self._num) if self._num else None

    def min_support(self) -> int | None:
        return min(self._num) if self._num else None

    def _plus(self, other: "FiniteVector", sign: int) -> tuple[dict, int]:
        """self + sign * other as numerators over lcm of the denominators, not reduced."""
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        num = {idx: n * a for idx, n in self._num.items()}
        for idx, n in other._num.items():
            s = num.get(idx, 0) + n * b
            if s:
                num[idx] = s
            else:
                num.pop(idx, None)
        return num, den

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        return _vector(*self._plus(other, 1))

    def __sub__(self, other: "FiniteVector") -> "FiniteVector":
        return _vector(*self._plus(other, -1))

    def scale(self, scalar) -> "FiniteVector":
        s = _coeff(scalar)
        if s == 0:
            return FiniteVector()
        return _times(self._num, self._den, s.numerator, s.denominator)

    def shift_support(self, offset: int) -> "FiniteVector":
        return _vector({idx + offset: n for idx, n in self._num.items()}, self._den, reduced=True)

    def l1(self) -> Fraction:
        return norm_key(self, 1)

    def l2_squared(self) -> Fraction:
        return norm_key(self, 2)

    def sup(self) -> Fraction:
        return norm_key(self, INF)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "FiniteVector(0)"
        body = " + ".join(f"({c})e_{idx}" for idx, c in self.items())
        return f"FiniteVector({body})"


def _norm_ratio(nums, den: int, p) -> tuple[int, int]:
    """||x||_p of x = nums/den as (numerator, denominator), squared when p = 2, not reduced."""
    if p == 1:
        return sum(map(abs, nums)), den
    if p == 2:
        return sum(n * n for n in nums), den * den
    return max(map(abs, nums), default=0), den


ZERO = FiniteVector()


@dataclass(frozen=True)
class SpaceSpec:
    """Ambient sequence space: p in {1, 2, inf} and a laterality."""

    p: object
    laterality: str = UNILATERAL

    def __post_init__(self) -> None:
        if self.p not in (1, 2, INF):
            raise InvalidArgumentError("p must be 1, 2, or inf")
        if self.laterality not in (UNILATERAL, BILATERAL):
            raise InvalidArgumentError("laterality must be unilateral or bilateral")


def norm_key(x: FiniteVector, p) -> Fraction:
    """||x||_p, squared when p = 2, so that it stays an exact rational."""
    return Fraction(*_norm_ratio(x._num.values(), x._den, p))


def _check_laterality(x: FiniteVector, space: SpaceSpec, role: str) -> None:
    if space.laterality == UNILATERAL:
        m = x.min_support()
        if m is not None and m < 0:
            raise InvalidArgumentError(
                f"{role} has negative support in a unilateral space"
            )


@dataclass(frozen=True)
class Ball:
    """Open ball; membership is strict inequality, decided exactly.

    A slack s in [0, 1) decides membership against radius*(1 - s): a ball
    tested with approximate coefficients then admits nothing the exact
    boundary would reject.  The radius itself is kept as given.
    """

    center: FiniteVector
    radius: Fraction
    space: SpaceSpec
    slack: Fraction = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", Fraction(self.radius))
        object.__setattr__(self, "slack", Fraction(self.slack))
        if self.radius <= 0:
            raise InvalidArgumentError("radius must be positive")
        if not 0 <= self.slack < 1:
            raise InvalidArgumentError("slack must lie in [0, 1)")
        _check_laterality(self.center, self.space, "ball center")


def below_radius(n: int, d: int, ball: Ball) -> bool:
    """The open-ball rule for a distance n/d to the center (d > 0, squared when p = 2).

    Strict inequality against the radius, shrunk by the ball's slack.
    """
    radius = ball.radius * (1 - ball.slack) if ball.slack else ball.radius
    b, c = radius.numerator, radius.denominator
    if ball.space.p == 2:
        b, c = b * b, c * c
    return n * c < b * d


def in_ball(x: FiniteVector, ball: Ball) -> bool:
    """Strict membership ||x - center||_p < radius, by the rule of `below_radius`."""
    _check_laterality(x, ball.space, "vector")
    # x - center over the lcm of the two denominators; the comparison needs no reduction
    num, den = x._plus(ball.center, -1)
    return below_radius(*_norm_ratio(num.values(), den, ball.space.p), ball)


class WeightSpec:
    """Positive weight sequence w_1, w_2, ... for a weighted shift."""

    def weight(self, n: int) -> Fraction:
        return Fraction(*self.weight_product(n - 1, 1))

    def weight_product(self, start: int, steps: int) -> tuple[int, int]:
        """w_(start+1) ... w_(start+steps) for steps >= 0, as integers (p, q) in lowest terms."""
        raise NotImplementedError

    def lift_factor(self, start: int, steps: int) -> Fraction:
        """prod_{l=start+1..start+steps} 1/w_l; from start 0, the size of the basis lift."""
        if steps < 0:
            raise InvalidArgumentError("steps must be non-negative")
        p, q = self.weight_product(start, steps)
        return Fraction(q, p)


@dataclass(frozen=True)
class ConstantWeights(WeightSpec):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise InvalidArgumentError("weights must be positive")

    def weight_product(self, start: int, steps: int) -> tuple[int, int]:
        return self.value.numerator**steps, self.value.denominator**steps


@dataclass(frozen=True)
class UnitWeights(WeightSpec):
    def weight_product(self, start: int, steps: int) -> tuple[int, int]:
        return 1, 1


@dataclass(frozen=True)
class ExplicitWeights(WeightSpec):
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidArgumentError("weight list must be non-empty")
        if any(v <= 0 for v in vals):
            raise InvalidArgumentError("weights must be positive")

    def weight(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise InvalidArgumentError(
                f"weight index {n} outside the accessible range 1..{len(self.values)}"
            )
        return self.values[n - 1]

    def weight_product(self, start: int, steps: int) -> tuple[int, int]:
        # no closed form: one lookup per index, so a short list names the first index missing
        out = Fraction(1)
        for l in range(start + 1, start + steps + 1):
            out *= self.weight(l)
        return out.numerator, out.denominator


#: valley levels held in the profile table.  Levels 13 and deeper raise the
#: profile only from 16! - 12 (about 2.1e13) on, far beyond any orbit walk;
#: indices that far out fall back to the formula, so the table stays under
#: 2 000 entries whatever the depth.
_VALLEY_TABLE_LEVELS = 12


def _valley_profile(depth: int, n: int) -> int:
    """The valley profile g(n) for levels 1..depth, straight from its definition."""
    g = 0
    for level in range(1, depth + 1):
        step = factorial(level + 3)
        for j in range(1, level + 1):
            lo = j * step
            if n < lo:
                d = lo - n
            elif n > lo + level:
                d = n - (lo + level)
            else:
                d = 0
            if d < level:
                g = max(g, level - d)
    return g


@functools.cache
def _valley_table(levels: int) -> dict[int, int]:
    """index -> g(index) for every index where levels 1..levels give g > 0.

    A level-l block [lo, lo + l] raises g only within distance l - 1 of
    itself, so those windows hold every nonzero value.  The dict is shared
    by every instance of that depth and never mutated.
    """
    table = {}
    for level in range(1, levels + 1):
        step = factorial(level + 3)
        for j in range(1, level + 1):
            lo = j * step
            for n in range(lo - level + 1, lo + 2 * level):
                table[n] = _valley_profile(levels, n)
    return table


@dataclass(frozen=True)
class ValleyWeights(WeightSpec):
    """Graded valley family: basis sizes dip to 2^-m on rare blocks.

    With q_m = (m+3)!, the profile g takes the value m - dist(n, block)
    near each block [j*q_m, j*q_m + m] for 1 <= j <= m <= depth, and 0
    far away; basis sizes are a_n = 2^-g(n) and the weights
    w_n = a_(n-1)/a_n move by factors of at most 2.  Outside the blocks
    a_n returns to 1, which is what keeps this family from mixing.
    """

    depth: int
    _table: dict = field(init=False, repr=False, compare=False)
    _table_end: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvalidArgumentError("depth must be >= 1")
        levels = min(self.depth, _VALLEY_TABLE_LEVELS)
        object.__setattr__(self, "_table", _valley_table(levels))
        end = INF
        if self.depth > levels:
            # the first index a level beyond the table can raise
            end = factorial(levels + 4) - levels
        object.__setattr__(self, "_table_end", end)

    def block_step(self, level: int) -> int:
        if not 1 <= level <= self.depth:
            raise InvalidArgumentError("level outside the graded range")
        return factorial(level + 3)

    def profile(self, n: int) -> int:
        if n < self._table_end:
            return self._table.get(n, 0)
        return _valley_profile(self.depth, n)

    def weight_product(self, start: int, steps: int) -> tuple[int, int]:
        # w_n = a_(n-1)/a_n = 2^(g(n) - g(n-1)), so the product telescopes
        e = self.profile(start + steps) - self.profile(start)
        return (1 << e, 1) if e >= 0 else (1, 1 << -e)


@dataclass(frozen=True)
class BackwardShift:
    """e_n -> w_n * e_(n-1); annihilates e_0 on the unilateral side."""

    weights: WeightSpec
    space: SpaceSpec


@dataclass(frozen=True)
class ForwardShift:
    """Exact right inverse of the matching backward shift: e_n -> e_(n+1)/w_(n+1)."""

    weights: WeightSpec
    space: SpaceSpec


@dataclass(frozen=True)
class Scaled:
    scalar: Fraction
    inner: "Operator"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", Fraction(self.scalar))
        if self.scalar == 0:
            raise InvalidArgumentError("scaling by zero is not an operator here")


@dataclass(frozen=True)
class Power:
    exponent: int
    inner: "Operator"

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise InvalidArgumentError("exponent must be >= 1")


@dataclass(frozen=True)
class DirectSum:
    """Components act on interleaved index blocks (index = r*n + i)."""

    parts: tuple["Operator", ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise InvalidArgumentError("direct sum needs at least one part")
        spaces = {operator_space(p) for p in parts}
        if len(spaces) != 1:
            raise InvalidArgumentError("direct-sum parts must share one space")


Operator = Union[BackwardShift, ForwardShift, Scaled, Power, DirectSum]


def operator_space(op: Operator) -> SpaceSpec:
    if isinstance(op, (BackwardShift, ForwardShift)):
        return op.space
    if isinstance(op, (Scaled, Power)):
        return operator_space(op.inner)
    if isinstance(op, DirectSum):
        return operator_space(op.parts[0])
    raise InvalidArgumentError(f"not an operator: {op!r}")


def _shift(op: Union[BackwardShift, ForwardShift], x: FiniteVector, k: int) -> FiniteVector:
    """k steps of a weighted shift in one pass over x, in stored order.

    Each coefficient moves k places, times (backward) or over (forward) the
    weight product of the indices passed.  Explicit weights have no closed
    form and step one at a time, so a range error names the first index met.
    """
    weights = op.weights
    if k > 1 and isinstance(weights, ExplicitWeights):
        for _ in range(k):
            x = _shift(op, x, 1)
        return x
    uni = op.space.laterality == UNILATERAL
    back = isinstance(op, BackwardShift)
    step = -k if back else k
    if isinstance(weights, (UnitWeights, ConstantWeights)):
        # one product for every index: one integer factor each side of the fraction bar
        moved = {}
        for n, c in x._num.items():
            if uni and n < 0:
                raise InvalidArgumentError("negative support in a unilateral space")
            if not (back and uni and n < k):
                moved[n + step] = c
        # annihilating e_0 .. e_(k-1) can leave a common factor
        v = _vector(moved, x._den, reduced=len(moved) == len(x._num))
        p, q = weights.weight_product(0, k)
        return _times(v._num, v._den, *((p, q) if back else (q, p)))
    terms = []
    for n, c in x._num.items():
        if uni and n < 0:
            raise InvalidArgumentError("negative support in a unilateral space")
        if not (back and uni and n < k):
            p, q = weights.weight_product(n - k if back else n, k)
            terms.append((n + step, c * p, q) if back else (n + step, c * q, p))
    den = math.lcm(*(d for _, _, d in terms))
    return _vector({n: c * (den // d) for n, c, d in terms}, x._den * den)


def apply(op: Operator, x: FiniteVector, k: int = 1) -> FiniteVector:
    """T^k x for k >= 0, exactly, with one pass per shift.

    A shift jumps its k steps at once, a scaled operator takes s^k and a
    power T^e takes e*k steps of T.  A direct sum steps as a whole, k
    times, so errors keep their stepwise order.  A shift maps distinct
    indices to distinct indices times positive weights, so no coefficient
    collides or vanishes; each image is reduced once.
    """
    if k < 0:
        raise InvalidArgumentError("iteration count must be non-negative")
    if isinstance(op, (BackwardShift, ForwardShift)):
        return _shift(op, x, k)
    if isinstance(op, Scaled):
        return apply(op.inner, x, k).scale(op.scalar**k)
    if isinstance(op, Power):
        return apply(op.inner, x, op.exponent * k)
    if isinstance(op, DirectSum):
        r = len(op.parts)
        for _ in range(k):
            split: list[dict[int, int]] = [dict() for _ in range(r)]
            for g, c in x._num.items():
                split[g % r][g // r] = c
            images = [apply(part, _vector(split[i], x._den)) for i, part in enumerate(op.parts)]
            den = math.lcm(*(image._den for image in images))
            merged: dict[int, int] = {}
            for i, image in enumerate(images):
                f = den // image._den
                for n, c in image._num.items():
                    merged[n * r + i] = c * f
            # over the lcm of canonical denominators the form stays canonical
            x = _vector(merged, den, reduced=True)
        return x
    raise InvalidArgumentError(f"not an operator: {op!r}")


def invert(op: Operator) -> Operator:
    """Exact inverse; only bilateral shifts (and compositions) qualify."""
    if isinstance(op, (BackwardShift, ForwardShift)):
        if op.space.laterality != BILATERAL:
            raise InvalidArgumentError("unilateral shifts are not invertible")
        if isinstance(op, BackwardShift):
            return ForwardShift(op.weights, op.space)
        return BackwardShift(op.weights, op.space)
    if isinstance(op, Scaled):
        return Scaled(Fraction(1) / op.scalar, invert(op.inner))
    if isinstance(op, Power):
        return Power(op.exponent, invert(op.inner))
    if isinstance(op, DirectSum):
        return DirectSum(tuple(invert(p) for p in op.parts))
    raise InvalidArgumentError(f"not an operator: {op!r}")


class ScalarSeq:
    """Scalar sequence lambda_n with the convention lambda_0 = 1."""

    def value(self, n: int) -> Fraction:
        raise NotImplementedError

    def value_float(self, n: int) -> float:
        return float(self.value(n))


@dataclass(frozen=True)
class OneScalars(ScalarSeq):
    def value(self, n: int) -> Fraction:
        if n < 0:
            raise InvalidArgumentError("scalar index must be non-negative")
        return Fraction(1)


@dataclass(frozen=True)
class DyadicSqrtScalars(ScalarSeq):
    """lambda_n = 2^ceil(sqrt(n)), exact dyadic growth."""

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise InvalidArgumentError("scalar index must be non-negative")
        c = isqrt(n)
        if c * c < n:
            c += 1
        return Fraction(2) ** c


@dataclass(frozen=True)
class ExpSqrtScalars(ScalarSeq):
    """lambda_n = e^sqrt(n); float-only, exact mode must refuse it."""

    def value(self, n: int) -> Fraction:
        raise ModeMismatchError("e^sqrt(n) scalars have no exact representation")

    def value_float(self, n: int) -> float:
        if n < 0:
            raise InvalidArgumentError("scalar index must be non-negative")
        return math.exp(math.sqrt(n))


@dataclass(frozen=True)
class ExplicitScalars(ScalarSeq):
    """Explicit lambda_1, lambda_2, ...; lambda_0 is fixed to 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v == 0 for v in vals):
            raise InvalidArgumentError("scalars must be nonzero")

    def value(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(1)
        if not 1 <= n <= len(self.values):
            raise InvalidArgumentError(
                f"scalar index {n} outside the accessible range 0..{len(self.values)}"
            )
        return self.values[n - 1]


@dataclass(frozen=True)
class DoubleScalars(ScalarSeq):
    """The doubles nearest the inner sequence's values, embedded exactly: float mode's scalars."""

    inner: ScalarSeq

    def value(self, n: int) -> Fraction:
        return Fraction(self.inner.value_float(n))


def walk(op: Operator, x: FiniteVector, times, scalars: ScalarSeq | None = None):
    """Yield lambda_t T^t x (plain T^t x without scalars) for each t in times, in the order given.

    One forward walk from x serves ascending times, jumping to each in one
    `apply`; a time below the walk's position restarts it from x.  The
    scalar is applied to a copy at each time and never carried along the
    walk.  Lazy, so a caller that stops early pays only for the times it
    consumed.
    """
    pos, v = 0, x
    for t in times:
        if t < 0:
            raise InvalidArgumentError("iteration count must be non-negative")
        if t < pos:
            pos, v = 0, x
        if t > pos:
            v = apply(op, v, t - pos)
            pos = t
        if scalars is None:
            yield v
        else:
            lam = scalars.value(t)
            yield v if lam == 1 else v.scale(lam)
