"""Exact sequence-space kernel: sparse rational vectors and shift algebra.

Vectors are finitely supported with Fraction coefficients; zero
coefficients are never stored and equality is exact.  The backward shift
maps e_n to w_n * e_(n-1) (weights are indexed by the source basis index,
so the weight list is 1-indexed), and the forward shift is its exact
right inverse e_n -> e_(n+1)/w_(n+1).  On the unilateral side the
backward shift annihilates e_0 and negative indices are rejected.

Norm decisions are exact over the rationals: the l2 case compares
squares, and open balls use strict inequality.  Instances here are
immutable, so values can be shared freely across threads or processes.
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

#: relative slack applied to membership decisions in float mode; the
#: effective radius shrinks by this factor so float verdicts stay on the
#: conservative side of the exact boundary.
FLOAT_MEMBERSHIP_TOL = Fraction(1, 10**9)


def _coeff(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidArgumentError(
            "float coefficients are not allowed; convert explicitly via Fraction"
        )
    return Fraction(value)


def _trusted(entries: dict) -> "FiniteVector":
    """Wrap a dict of distinct indices and nonzero Fractions without re-checking it."""
    out = FiniteVector.__new__(FiniteVector)
    out._entries = entries
    return out


class FiniteVector:
    """Immutable sparse vector over the rationals, indexed by integers."""

    __slots__ = ("_entries",)

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
        self._entries = data

    @classmethod
    def basis(cls, index: int, coefficient=1) -> "FiniteVector":
        return cls({index: coefficient})

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._entries.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def coefficient(self, index: int) -> Fraction:
        return self._entries.get(index, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def max_support(self) -> int | None:
        return max(self._entries) if self._entries else None

    def min_support(self) -> int | None:
        return min(self._entries) if self._entries else None

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        data = dict(self._entries)
        for idx, c in other._entries.items():
            s = data.get(idx, Fraction(0)) + c
            if s == 0:
                data.pop(idx, None)
            else:
                data[idx] = s
        return _trusted(data)

    def __sub__(self, other: "FiniteVector") -> "FiniteVector":
        return self + other.scale(-1)

    def scale(self, scalar) -> "FiniteVector":
        s = _coeff(scalar)
        if s == 0:
            return FiniteVector()
        return _trusted({idx: c * s for idx, c in self._entries.items()})

    def shift_support(self, offset: int) -> "FiniteVector":
        return _trusted({idx + offset: c for idx, c in self._entries.items()})

    def l1(self) -> Fraction:
        return sum((abs(c) for c in self._entries.values()), Fraction(0))

    def l2_squared(self) -> Fraction:
        return sum((c * c for c in self._entries.values()), Fraction(0))

    def sup(self) -> Fraction:
        return max((abs(c) for c in self._entries.values()), default=Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "FiniteVector(0)"
        body = " + ".join(f"({c})e_{idx}" for idx, c in self.items())
        return f"FiniteVector({body})"


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
    if p == 1:
        return x.l1()
    if p == 2:
        return x.l2_squared()
    return x.sup()


def norm_lt(x: FiniteVector, bound: Fraction, p) -> bool:
    """Exact test of ||x||_p < bound."""
    if bound <= 0:
        return False
    return norm_key(x, p) < (bound * bound if p == 2 else bound)


def norm_le(x: FiniteVector, bound: Fraction, p) -> bool:
    """Exact test of ||x||_p <= bound."""
    if bound < 0:
        return False
    return norm_key(x, p) <= (bound * bound if p == 2 else bound)


def _check_laterality(x: FiniteVector, space: SpaceSpec, role: str) -> None:
    if space.laterality == UNILATERAL:
        m = x.min_support()
        if m is not None and m < 0:
            raise InvalidArgumentError(
                f"{role} has negative support in a unilateral space"
            )


@dataclass(frozen=True)
class Ball:
    """Open ball; membership is strict inequality, decided exactly."""

    center: FiniteVector
    radius: Fraction
    space: SpaceSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise InvalidArgumentError("radius must be positive")
        _check_laterality(self.center, self.space, "ball center")


def in_ball(x: FiniteVector, ball: Ball, rel_tolerance: Fraction | None = None) -> bool:
    """Strict membership ||x - center||_p < radius.

    With rel_tolerance (float mode) the effective radius shrinks to
    radius*(1 - rel_tolerance), so approximate coefficients never produce
    a membership claim the exact boundary would reject.
    """
    _check_laterality(x, ball.space, "vector")
    radius = ball.radius
    if rel_tolerance is not None:
        radius = radius * (1 - rel_tolerance)
    return norm_lt(x - ball.center, radius, ball.space.p)


class WeightSpec:
    """Positive weight sequence w_1, w_2, ... for a weighted shift."""

    def weight(self, n: int) -> Fraction:
        raise NotImplementedError

    def sup_bound(self) -> Fraction:
        """Declared upper bound for the weights (shift continuity)."""
        raise NotImplementedError

    def lift_factor(self, start: int, steps: int) -> Fraction:
        """prod_{l=start+1..start+steps} 1/w_l; from start 0, the size of the basis lift."""
        if steps < 0:
            raise InvalidArgumentError("steps must be non-negative")
        out = Fraction(1)
        for l in range(start + 1, start + steps + 1):
            out /= self.weight(l)
        return out


@dataclass(frozen=True)
class ConstantWeights(WeightSpec):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise InvalidArgumentError("weights must be positive")

    def weight(self, n: int) -> Fraction:
        return self.value

    def sup_bound(self) -> Fraction:
        return self.value

    def lift_factor(self, start: int, steps: int) -> Fraction:
        if steps < 0:
            raise InvalidArgumentError("steps must be non-negative")
        return self.value ** -steps


@dataclass(frozen=True)
class UnitWeights(WeightSpec):
    def weight(self, n: int) -> Fraction:
        return Fraction(1)

    def sup_bound(self) -> Fraction:
        return Fraction(1)

    def lift_factor(self, start: int, steps: int) -> Fraction:
        if steps < 0:
            raise InvalidArgumentError("steps must be non-negative")
        return Fraction(1)


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

    def sup_bound(self) -> Fraction:
        return max(self.values)


#: valley levels held in the profile table.  Levels 13 and deeper raise the
#: profile only from 16! - 12 (about 2.1e13) on, far beyond any orbit walk;
#: indices that far out fall back to the formula, so the table stays under
#: 2 000 entries whatever the depth.
_VALLEY_TABLE_LEVELS = 12

# w_n = a_(n-1)/a_n = 2^(g(n) - g(n-1)), and the profile g moves by at
# most 1 per index (it is a maximum of 1-Lipschitz distances)
_VALLEY_WEIGHTS = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(2)}


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

    def basis_size(self, n: int) -> Fraction:
        return Fraction(1, 2 ** self.profile(n))

    def weight(self, n: int) -> Fraction:
        return _VALLEY_WEIGHTS[self.profile(n) - self.profile(n - 1)]

    def sup_bound(self) -> Fraction:
        return Fraction(2)

    def lift_factor(self, start: int, steps: int) -> Fraction:
        # the weight products telescope to a ratio of basis sizes
        if steps < 0:
            raise InvalidArgumentError("steps must be non-negative")
        return self.basis_size(start + steps) / self.basis_size(start)


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


def apply(op: Operator, x: FiniteVector) -> FiniteVector:
    """One exact application of the operator to a finitely supported vector.

    Every image is built without re-normalising: a shift moves distinct
    indices to distinct indices and multiplies by a positive weight, so no
    coefficient collides or vanishes.
    """
    if isinstance(op, BackwardShift):
        uni = op.space.laterality == UNILATERAL
        weight = op.weights.weight
        out: dict[int, Fraction] = {}
        for n, c in x._entries.items():
            if uni and n < 0:
                raise InvalidArgumentError("negative support in a unilateral space")
            if uni and n == 0:
                continue
            out[n - 1] = c * weight(n)
        return _trusted(out)
    if isinstance(op, ForwardShift):
        uni = op.space.laterality == UNILATERAL
        weight = op.weights.weight
        out = {}
        for n, c in x._entries.items():
            if uni and n < 0:
                raise InvalidArgumentError("negative support in a unilateral space")
            out[n + 1] = c / weight(n + 1)
        return _trusted(out)
    if isinstance(op, Scaled):
        return apply(op.inner, x).scale(op.scalar)
    if isinstance(op, Power):
        v = x
        for _ in range(op.exponent):
            v = apply(op.inner, v)
        return v
    if isinstance(op, DirectSum):
        r = len(op.parts)
        split: list[dict[int, Fraction]] = [dict() for _ in range(r)]
        for g, c in x._entries.items():
            split[g % r][g // r] = c
        merged: dict[int, Fraction] = {}
        for i, part in enumerate(op.parts):
            image = apply(part, _trusted(split[i]))
            for n, c in image._entries.items():
                merged[n * r + i] = c
        return _trusted(merged)
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
class Iterates:
    """The map sequence n -> T^n."""

    operator: Operator


@dataclass(frozen=True)
class ScaledIterates:
    """The map sequence n -> lambda_n * T^n."""

    scalars: ScalarSeq
    operator: Operator


MapSequence = Union[Iterates, ScaledIterates]


def scalar_value(scalars: ScalarSeq, n: int, mode: str) -> Fraction:
    """lambda_n; in float mode the double approximation, embedded exactly."""
    if mode == "exact":
        return scalars.value(n)
    if mode == "float":
        return Fraction(scalars.value_float(n))
    raise InvalidArgumentError("mode must be 'exact' or 'float'")


def walk(seq: MapSequence, x: FiniteVector, times, mode: str = "exact"):
    """Yield lambda_t T^t x (or plain T^t x) for each t in times, in the order given.

    One forward walk from x serves ascending times; a time below the
    walk's position restarts it from x.  The scalar is applied to a copy
    at each time and never carried along the walk.  Lazy, so a caller that
    stops early pays only for the times it consumed.  In float mode the
    scalar is the double approximation embedded exactly into the
    rationals; callers deciding memberships must pair this with the
    tolerant ball test.
    """
    op = seq.operator
    scalars = seq.scalars if isinstance(seq, ScaledIterates) else None
    pos, v = 0, x
    for t in times:
        if t < 0:
            raise InvalidArgumentError("iteration count must be non-negative")
        if t < pos:
            pos, v = 0, x
        while pos < t:
            v = apply(op, v)
            pos += 1
        if scalars is None:
            yield v
        else:
            lam = scalar_value(scalars, t, mode)
            yield v if lam == 1 else v.scale(lam)


def iterate(seq: MapSequence, x: FiniteVector, n: int, mode: str = "exact") -> FiniteVector:
    """lambda_n * T^n x (or plain T^n x), computed exactly."""
    return next(walk(seq, x, (n,), mode))


def orbit(seq: MapSequence, x: FiniteVector, horizon: int, mode: str = "exact"):
    """Yield (n, lambda_n * T^n x) for n = 0..horizon, along one walk."""
    if horizon < 0:
        raise InvalidArgumentError("horizon must be non-negative")
    times = range(horizon + 1)
    yield from zip(times, walk(seq, x, times, mode))
