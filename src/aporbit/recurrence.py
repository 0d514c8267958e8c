"""Return sets and constructive recurrence searches for weighted shifts.

Every return time is checked on one lazy walk along the orbit of x
(`spaces.walk`): it jumps from each requested time to the next in one exact
application of a power of the operator, ascending times share the walk, and
the scalar lambda_t is applied afresh at each time t.

The lift-sum searches decide candidates by linearity.  With q beyond the
span of y, the layers of x = y + L_q y + ... + L_mq y sit on disjoint
supports and B^(iq) L_(jq) y = L_((j-i)q) y, so on the unilateral side
(where B^(sq) y = 0) each B^(iq) x - y is a sub-sum of x - y: a candidate
in the ball at time 0 is in it at every later return.  A search therefore
rejects a step q from the norm of x - y, computed from y's coefficients and
the lift factors without building x, and builds and walks only the step
that passes.  That one walk from x is the witness's certificate: it decides
every membership and gives the distances, and it trusts nothing of the
closed form (on the bilateral side it can still miss, and the search goes
on).  A `None` / raised stage failure is *inconclusive* — it never refutes
the corresponding unbounded statement.

Distances are `spaces.gap`, the one distance that also decides each
membership, reported as exact rationals; in the l2 case the squared
distance is reported so no irrational square root is ever taken.  The
searches take their side (unilateral or bilateral) from their balls.
Nothing here takes a mode: float mode arrives as `DoubleScalars` and balls
with a slack, which every membership decision honours.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidArgumentError, PreconditionError, StageFailureError, WorkbenchError
from .families import HitSet
from .spaces import (
    INF,
    UNILATERAL,
    BackwardShift,
    Ball,
    ExplicitWeights,
    FiniteVector,
    Operator,
    ScalarSeq,
    SpaceSpec,
    UnitWeights,
    WeightSpec,
    below_radius,
    gap,
    in_ball,
    invert,
    norm_key,
    walk,
)


def _return_gaps(
    op: Operator, x: FiniteVector, ball: Ball, times
) -> tuple[Fraction, ...] | None:
    """Each iterate's distance to the ball's center, or None at the first miss (one walk)."""
    gaps = []
    for v in walk(op, x, times):
        n, d = gap(v, ball)
        if not below_radius(n, d, ball):
            return None
        gaps.append(Fraction(n, d))
    return tuple(gaps)


def verify_return_times(
    op: Operator,
    x: FiniteVector,
    ball: Ball,
    times,
    scalars: ScalarSeq | None = None,
) -> tuple[bool, ...]:
    """Check each requested return time: one bool per time, in the order given.

    The iterates come from one walk along the orbit of x (ascending times
    share it, a smaller time restarts it from x); nothing from the search
    that produced x or the times is reused, so a passing tuple is a sound
    certificate on its own.
    """
    return tuple(in_ball(v, ball) for v in walk(op, x, times, scalars))


def return_set(
    op: Operator,
    x: FiniteVector,
    ball: Ball,
    horizon: int,
    scalars: ScalarSeq | None = None,
) -> HitSet:
    """{ n <= horizon : (lambda_n) T^n x lands in the ball }, exactly."""
    if horizon < 0:
        raise InvalidArgumentError("horizon must be non-negative")
    times = range(horizon + 1)
    hits = [n for n, v in zip(times, walk(op, x, times, scalars)) if in_ball(v, ball)]
    return HitSet(tuple(hits), horizon)


# ---------------------------------------------------------------------------
# AP criterion for weighted backward shifts


def shift_ap_criterion(
    weights: WeightSpec,
    epsilon: Fraction,
    p_max: int,
    m_max: int,
    q_max: int,
) -> dict[tuple[int, int], int | None]:
    """The grid (offset p, length m) -> smallest uniform step q <= q_max, or None.

    A cell (p, m) is certified by q when every index jq + p' with
    1 <= j <= m and 0 <= p' <= p has basis-lift size <= epsilon, so one
    q serves all smaller offsets at once.  The comparison is
    boundary-inclusive: a graded family whose deepest basis size equals
    epsilon exactly still certifies the cell.  A fully populated grid is
    finite evidence for the decay condition, never a proof of the limit
    statement; a None cell is exhausted, and so inconclusive.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    if p_max < 0 or m_max < 1 or q_max < 1:
        raise InvalidArgumentError("grid bounds must be positive (p_max >= 0)")

    sizes: dict[int, bool] = {}

    def small(n: int) -> bool:
        # the lift size 1/(w_1 ... w_n) = b/a against epsilon, in integers
        if n not in sizes:
            a, b = weights.weight_product(0, n)
            sizes[n] = b * eps.denominator <= eps.numerator * a
        return sizes[n]

    grid: dict[tuple[int, int], int | None] = {}
    for p in range(p_max + 1):
        for m in range(1, m_max + 1):
            # a q that certifies (p, m) certifies (p - 1, m) and (p, m - 1),
            # so the scan starts where the larger of those stopped
            smaller = [grid[c] for c in ((p - 1, m), (p, m - 1)) if c in grid]
            found = None
            if None not in smaller:
                for q in range(max(smaller, default=1), q_max + 1):
                    if all(
                        small(j * q + off) for j in range(1, m + 1) for off in range(p + 1)
                    ):
                        found = q
                        break
            grid[(p, m)] = found
    return grid


# ---------------------------------------------------------------------------
# Lifted multiple-recurrence candidates


def lift_vector(weights: WeightSpec, y: FiniteVector, q: int) -> FiniteVector:
    """The weighted forward lift L_q: the exact right inverse of q backward steps.

    Coefficient y_n becomes y_n / (w_(n+1) ... w_(n+q)) at index n + q, so
    applying the weighted backward shift q times returns y exactly.
    """
    if q < 0:
        raise InvalidArgumentError("lift step must be non-negative")
    terms = []
    for n, c, d in y.triples():
        w, v = weights.weight_product(n, q)
        terms.append((n + q, c * v, d * w))
    return FiniteVector.from_triples(terms)


def multirec_candidate(
    weights: WeightSpec, y: FiniteVector, q: int, m: int
) -> FiniteVector:
    """y + L_q(y) + L_q^2(y) + ... + L_q^m(y), the lift-sum candidate."""
    if q < 1:
        raise InvalidArgumentError("step must be positive")
    if m < 0:
        raise InvalidArgumentError("m must be non-negative")
    x = y
    for j in range(1, m + 1):
        x = x + lift_vector(weights, y, j * q)
    return x


def _lift_sum_test(weights: WeightSpec, ball: Ball, m: int):
    """The test q -> whether multirec_candidate(weights, ball.center, q, m) lies in the ball.

    Only for q beyond the span of the center, where the layers L_(jq) y sit
    on disjoint supports, so ||x - y||_p adds up layer by layer from |y_n|
    and the lift factors, with no vector built.  The factors are taken in
    multirec_candidate's order, so a weight list that runs out raises at
    the same index.
    """
    p = ball.space.p
    sizes = [(n, abs(c), d) for n, c, d in ball.center.triples()]

    def inside(q: int) -> bool:
        # the norm as an unreduced ratio num/den: below_radius needs no reduction
        num, den = 0, 1
        for j in range(1, m + 1):
            for n, c, d in sizes:
                w, v = weights.weight_product(n, j * q)  # the layer's coefficient is c*v/(d*w)
                a, b = c * v, d * w
                if p == 2:
                    a, b = a * a, b * b
                if p == INF:
                    if a * den > num * b:
                        num, den = a, b
                else:
                    num, den = num * b + a * den, den * b
        return below_radius(num, den, ball)

    return inside


@dataclass(frozen=True)
class RecurrenceWitness:
    """A verified common step: iterate j*q keeps x in the target ball for j <= m."""

    q: int
    x: FiniteVector
    m: int
    verified_memberships: tuple[bool, ...]
    distances: tuple[Fraction, ...] = field(default=(), compare=False)

    @property
    def verified(self) -> bool:
        return len(self.verified_memberships) == self.m + 1 and all(
            self.verified_memberships
        )


def multirec_witness(
    weights: WeightSpec,
    ball: Ball,
    m: int,
    q_max: int,
) -> RecurrenceWitness | None:
    """Search steps q <= q_max for a lift-sum witness with m+1 verified returns.

    Candidates use steps beyond the center's support, so the backward
    shift, on the ball's side, strips the lifted layers one at a time and the final iterate
    reproduces the center exactly.  A step q is rejected from the closed
    form of ||x - y|| (see the module docstring); where the layers overlap
    (a bilateral center whose span reaches q), x is built and tested as
    is.  A step that passes is walked from x once, and that walk is the
    certificate: it decides each membership and gives the distances.  A
    miss there, possible only on the bilateral side, moves the search on.
    None is inconclusive.
    """
    if m < 0:
        raise InvalidArgumentError("m must be non-negative")
    if q_max < 1:
        raise InvalidArgumentError("q_max must be positive")
    y = ball.center
    top = y.max_support()
    start = 1 if top is None else max(1, top + 1)
    span = 0 if top is None else top - y.min_support()
    op = BackwardShift(weights, ball.space)
    lift_sum_inside = _lift_sum_test(weights, ball, m)
    for q in range(start, q_max + 1):
        if q > span and not lift_sum_inside(q):
            continue
        x = multirec_candidate(weights, y, q, m)
        gaps = _return_gaps(op, x, ball, [j * q for j in range(m + 1)])
        if gaps is not None:
            # the walk decided every membership; it returns gaps only if all hold
            return RecurrenceWitness(q, x, m, (True,) * len(gaps), gaps)
    return None


# ---------------------------------------------------------------------------
# Universal vectors for scaled orbits of the plain backward shift


def universal_vector(scalars: ScalarSeq, y: FiniteVector, m: int, k: int) -> FiniteVector:
    """y + S^k(y)/lambda_k + ... + S^(mk)(y)/lambda_(mk) for the plain shift.

    S is the unweighted forward shift, so the j-th layer is y's support
    translated by j*k and scaled by 1/lambda_(jk); the layers are
    disjoint because k exceeds y's support.
    """
    if m < 0:
        raise InvalidArgumentError("m must be non-negative")
    if k < 1:
        raise InvalidArgumentError("k must be positive")
    top = y.max_support()
    if top is not None and k <= top:
        raise PreconditionError(
            f"k = {k} must exceed the maximal support index {top} of y"
        )
    if top is not None and y.min_support() < 0:
        raise InvalidArgumentError("y must be supported on non-negative indices")
    out = y
    for j in range(1, m + 1):
        lam = scalars.value(j * k)
        out = out + y.shift_support(j * k).scale(1 / lam)
    return out


def verify_universal(
    scalars: ScalarSeq,
    ytilde: FiniteVector,
    y: FiniteVector,
    m: int,
    k: int,
    p,
) -> Fraction:
    """max over 1 <= l <= m of || lambda_(lk) B^(lk) ytilde  -  y ||.

    B is the plain unilateral backward shift and ytilde the vector given,
    normally universal_vector(scalars, y, m, k): then the l = m term
    vanishes exactly and each earlier term is a tail of scaled translates
    of y.  An exact rational, squared for p = 2; m = 0 gives zero.
    """
    op = BackwardShift(UnitWeights(), SpaceSpec(p, UNILATERAL))
    times = [l * k for l in range(1, m + 1)]
    return max(
        (norm_key(v - y, p) for v in walk(op, ytilde, times, scalars)),
        default=Fraction(0),
    )


# ---------------------------------------------------------------------------
# Exact inverse-orbit bookkeeping (bilateral shifts)


def inverse_witness(op: Operator, x: FiniteVector, n: int, m: int) -> FiniteVector:
    """y = T^(mn) x, with the pull-back contract re-verified exactly.

    For each 0 <= j <= m the inverse iterate T^(-jn) y must equal
    T^((m-j)n) x coefficient-for-coefficient; any mismatch is an internal
    soundness failure, not an inconclusive search.
    """
    if n < 1 or m < 1:
        raise InvalidArgumentError("n and m must be positive")
    inv = invert(op)
    times = [j * n for j in range(m + 1)]
    fwd = list(walk(op, x, times))
    y = fwd[m]
    for j, back in enumerate(walk(inv, y, times)):
        if back != fwd[m - j]:
            raise WorkbenchError(
                f"inverse contract failed at j = {j}: {back!r} != {fwd[m - j]!r}"
            )
    return y


# ---------------------------------------------------------------------------
# Pair search (two points, one arithmetic pattern, two targets)


@dataclass(frozen=True)
class PairWitness:
    """Verified pair: x1, x2 in U and T^(a+jq) x_i in V_i for all j <= m."""

    x1: FiniteVector
    x2: FiniteVector
    a: int
    q: int
    m: int


def pair_recurrence_search(
    weights: WeightSpec,
    U: Ball,
    V1: Ball,
    V2: Ball,
    m: int,
    a_max: int,
    q_max: int,
) -> PairWitness | None:
    """Search for one (a, q) moving two points of U along V1 and V2.

    Candidates stack two lifts: an inner lift-sum z_i toward each V_i
    center (as in multirec_witness) and an outer a-step lift that parks
    the whole packet beyond U's center: x_i = y_U + L_a z_i.  Smallest
    (q, a) wins.  The shift acts on U's side.  On the unilateral side a passes y_U's support, so
    B^a x_i = z_i and the V_i returns depend on q alone: a step q whose z1
    or z2 misses its ball at time 0 is skipped whole, decided from the
    closed form of multirec_witness.  For the rest, the first a with both
    x_i in U is walked in full from x1 and x2, and those walks are the
    certificate.  On the bilateral side, and for explicit weights (whose
    skipped lifts could run past the list and must raise as before),
    every a is tried.  None is inconclusive.
    """
    if m < 0:
        raise InvalidArgumentError("m must be non-negative")
    if a_max < 1 or q_max < 1:
        raise InvalidArgumentError("bounds must be positive")
    op = BackwardShift(weights, U.space)
    y_u = U.center
    a_top = y_u.max_support()
    a_start = 1 if a_top is None else max(1, a_top + 1)
    q_top = max(
        (c.max_support() for c in (V1.center, V2.center) if c.max_support() is not None),
        default=None,
    )
    q_start = 1 if q_top is None else max(1, q_top + 1)
    linear = U.space.laterality == UNILATERAL and not isinstance(weights, ExplicitWeights)
    z1_inside = _lift_sum_test(weights, V1, m)
    z2_inside = _lift_sum_test(weights, V2, m)
    for q in range(q_start, q_max + 1):
        if linear and not (z1_inside(q) and z2_inside(q)):
            continue
        z1 = multirec_candidate(weights, V1.center, q, m)
        z2 = multirec_candidate(weights, V2.center, q, m)
        for a in range(a_start, a_max + 1):
            x1 = y_u + lift_vector(weights, z1, a)
            x2 = y_u + lift_vector(weights, z2, a)
            times = [a + j * q for j in range(m + 1)]
            ok = (
                in_ball(x1, U)
                and in_ball(x2, U)
                and _return_gaps(op, x1, V1, times) is not None
                and _return_gaps(op, x2, V2, times) is not None
            )
            if ok:
                return PairWitness(x1, x2, a, q, m)
    return None


# ---------------------------------------------------------------------------
# Nested ball refinement toward an approximately recurrent point


@dataclass(frozen=True)
class NestedStage:
    """One refinement stage: the ball and the witness behind it (None for U itself)."""

    ball: Ball
    witness: RecurrenceWitness | None


def nested_ball_refinement(
    weights: WeightSpec,
    U: Ball,
    M: int,
    q_max: int,
) -> tuple[NestedStage, ...]:
    """The chain U = U_0 containing U_1 ... U_M with halving radii, one stage each.

    Stage m searches the quarter-radius ball around the current center
    for a length-m witness, then recenters on that witness with half the
    radius: the quarter-radius slack is exactly what keeps both the
    containment U_m inside U_(m-1) and the stage's own returns inside
    U_m.  The stage-M center is the approximate recurrent point.  Every
    ball keeps U's slack, so the reported radii stay U's radius over 2^m.
    A failed stage raises stage-failure carrying the completed prefix
    (inconclusive, as always).
    """
    if M < 0:
        raise InvalidArgumentError("M must be non-negative")
    stages = [NestedStage(U, None)]
    current = U
    for stage in range(1, M + 1):
        probe = Ball(current.center, current.radius / 4, current.space, current.slack)
        w = multirec_witness(weights, probe, stage, q_max)
        if w is None:
            raise StageFailureError(stage, tuple(stages))
        nxt = Ball(w.x, current.radius / 2, current.space, current.slack)
        stages.append(NestedStage(nxt, w))
        current = nxt
    return tuple(stages)


# ---------------------------------------------------------------------------
# Scaled-orbit joint return counting


def joint_return_count(
    scalars: ScalarSeq,
    op: Operator,
    x: FiniteVector,
    ball: Ball,
    m: int,
    q: int,
    horizon: int,
) -> int:
    """Count a <= horizon with lambda_a T^(a+iq) x in the ball for all i <= m.

    The scalar is pinned at a across the whole pattern: this unfolds
    membership of lambda_a T^a x in the intersection of the q-step
    pull-backs of the ball.  One walk visits only the times a + iq.
    """
    if m < 0:
        raise InvalidArgumentError("m must be non-negative")
    if q < 1:
        raise InvalidArgumentError("q must be positive")
    if horizon < 0:
        raise InvalidArgumentError("horizon must be non-negative")
    times = sorted({a + i * q for a in range(horizon + 1) for i in range(m + 1)})
    iterates = dict(zip(times, walk(op, x, times)))
    count = 0
    for a in range(horizon + 1):
        lam = scalars.value(a)
        if all(in_ball(iterates[a + i * q].scale(lam), ball) for i in range(m + 1)):
            count += 1
    return count
