"""Tests for the exact sequence-space kernel: vectors, norms, shifts, scalars."""

import math
import random
from fractions import Fraction

import pytest

from aporbit.errors import InvalidArgumentError, ModeMismatchError
from aporbit.spaces import (
    BILATERAL,
    INF,
    UNILATERAL,
    BackwardShift,
    Ball,
    ConstantWeights,
    DirectSum,
    DoubleScalars,
    DyadicSqrtScalars,
    ExplicitScalars,
    ExplicitWeights,
    ExpSqrtScalars,
    FiniteVector,
    ForwardShift,
    OneScalars,
    Power,
    Scaled,
    SpaceSpec,
    UnitWeights,
    ValleyWeights,
    ZERO,
    apply,
    gap,
    in_ball,
    invert,
    norm_key,
    operator_space,
    walk,
)
from aporbit.cli import FLOAT_SLACK

L1 = SpaceSpec(1, UNILATERAL)
L2 = SpaceSpec(2, UNILATERAL)
SUP = SpaceSpec(INF, UNILATERAL)
L1_BI = SpaceSpec(1, BILATERAL)

e = FiniteVector.basis


def random_vector(rng: random.Random, span: int = 10, bilateral: bool = False) -> FiniteVector:
    lo = -span if bilateral else 0
    entries = {}
    for _ in range(rng.randint(0, 6)):
        idx = rng.randint(lo, span)
        entries[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return FiniteVector(entries)


# ---------------------------------------------------------------------------
# vectors


class TestFiniteVector:
    def test_zero_coefficients_dropped(self):
        v = FiniteVector({0: Fraction(0), 3: Fraction(2)})
        assert v.support() == (3,)
        assert v.coefficient(0) == 0

    def test_rejects_floats(self):
        with pytest.raises(InvalidArgumentError):
            FiniteVector({0: 0.5})
        with pytest.raises(InvalidArgumentError):
            e(0).scale(0.5)

    def test_int_and_fraction_coefficients_accepted(self):
        v = e(0, 2) + e(1, Fraction(1, 3))
        assert v.coefficient(0) == 2
        assert v.coefficient(1) == Fraction(1, 3)

    def test_addition_cancels_exactly(self):
        v = e(4, Fraction(1, 3))
        assert (v + v.scale(-1)).is_zero
        assert v - v == ZERO

    def test_equality_and_hash(self):
        a = e(0) + e(2, Fraction(1, 2))
        b = e(2, Fraction(2, 4)) + e(0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != e(0)

    def test_shift_support(self):
        v = e(1) + e(4, 3)
        assert v.shift_support(2) == e(3) + e(6, 3)
        assert v.shift_support(-1) == e(0) + e(3, 3)

    def test_norms(self):
        v = e(0, Fraction(3, 4)) + e(5, Fraction(-1, 4))
        assert norm_key(v, 1) == 1
        assert norm_key(v, 2) == Fraction(10, 16)
        assert norm_key(v, INF) == Fraction(3, 4)
        assert norm_key(ZERO, 1) == 0 and norm_key(ZERO, INF) == 0

    def test_min_max_support(self):
        v = e(-2) + e(7)
        assert v.min_support() == -2
        assert v.max_support() == 7
        assert ZERO.max_support() is None


class TestNormComparisons:
    def test_triangle_inequality(self):
        rng = random.Random(52)
        for _ in range(60):
            x = random_vector(rng)
            y = random_vector(rng)
            assert norm_key(x + y, 1) <= norm_key(x, 1) + norm_key(y, 1)
            assert norm_key(x + y, INF) <= norm_key(x, INF) + norm_key(y, INF)
            # squared form of the l2 triangle inequality via Cauchy-Schwarz:
            # ||x+y||^2 <= (||x|| + ||y||)^2 = ||x||^2 + 2||x||||y|| + ||y||^2
            lhs = norm_key(x + y, 2)
            xs, ys = norm_key(x, 2), norm_key(y, 2)
            assert (lhs - xs - ys) ** 2 <= 4 * xs * ys or lhs <= xs + ys


# ---------------------------------------------------------------------------
# balls


class TestBall:
    def test_radius_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            Ball(ZERO, Fraction(0), L1)

    def test_center_laterality_checked(self):
        with pytest.raises(InvalidArgumentError):
            Ball(e(-1), Fraction(1), L1)
        Ball(e(-1), Fraction(1), L1_BI)  # fine bilaterally

    def test_membership_examples(self):
        x = e(0) + e(1, Fraction(1, 8))
        assert in_ball(x, Ball(e(0), Fraction(1, 4), L1))
        assert in_ball(x, Ball(e(0), Fraction(1, 4), L2))  # 1/64 < 1/16
        assert not in_ball(e(1), Ball(e(0), Fraction(1), L1))  # distance 2

    def test_open_ball_boundary_excluded(self):
        x = e(0, Fraction(1, 4))
        assert not in_ball(x, Ball(ZERO, Fraction(1, 4), L1))
        assert in_ball(x, Ball(ZERO, Fraction(1, 4) + Fraction(1, 10**9), L1))
        # ||(3/5)e0||_2 = 3/5 exactly: the squared comparison keeps the boundary out
        v = e(0, Fraction(3, 5))
        assert not in_ball(v, Ball(ZERO, Fraction(3, 5), L2))
        assert in_ball(v, Ball(ZERO, Fraction(3, 5) + Fraction(1, 10**12), L2))

    def test_tolerance_shrinks_the_ball(self):
        # a point just inside the exact ball fails with a slack; the radius stays as given
        slack = Fraction(1, 10**9)
        r = Fraction(1)
        x = e(0, r * (1 - slack / 2))
        assert in_ball(x, Ball(ZERO, r, L1))
        guarded = Ball(ZERO, r, L1, slack)
        assert not in_ball(x, guarded) and guarded.radius == r
        assert in_ball(e(0, r * (1 - 2 * slack)), guarded)

    def test_slack_outside_unit_interval_rejected(self):
        for slack in (Fraction(-1, 10**9), 1, Fraction(3, 2)):
            with pytest.raises(InvalidArgumentError):
                Ball(ZERO, Fraction(1), L1, slack)
        assert Ball(ZERO, Fraction(1), L1, Fraction(999, 1000)).slack == Fraction(999, 1000)
        assert Ball(ZERO, Fraction(1), L1).slack == 0


# ---------------------------------------------------------------------------
# weights


class TestWeights:
    def test_constant_product(self):
        w = ConstantWeights(Fraction(2))
        assert [w.lift_factor(0, n) for n in range(1, 51)] == [Fraction(1, 2**n) for n in range(1, 51)]

    def test_unit_product_large_index(self):
        assert UnitWeights().lift_factor(0, 10**4) == 1

    def test_explicit_range(self):
        w = ExplicitWeights((Fraction(2), Fraction(3)))
        assert w.weight(1) == 2 and w.weight(2) == 3
        with pytest.raises(InvalidArgumentError):
            w.weight(3)
        with pytest.raises(InvalidArgumentError):
            w.weight(0)

    def test_positivity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ConstantWeights(Fraction(0))
        with pytest.raises(InvalidArgumentError):
            ExplicitWeights((Fraction(1), Fraction(-2)))

    def test_product_inverse_matches_loop(self):
        for w in (ConstantWeights(Fraction(3, 2)), ExplicitWeights(tuple(Fraction(k, 3) for k in range(1, 30)))):
            for n in (0, 1, 5, 20):
                brute = Fraction(1)
                for l in range(1, n + 1):
                    brute /= w.weight(l)
                assert w.lift_factor(0, n) == brute

    def test_lift_factor_is_a_product_window(self):
        w = ConstantWeights(Fraction(2))
        # product of 1/w over (start, start+steps]
        assert w.lift_factor(3, 4) == Fraction(1, 16)
        assert w.lift_factor(0, 0) == 1


class TestValleyWeights:
    def test_block_steps_are_factorials(self):
        w = ValleyWeights(3)
        assert w.block_step(1) == 24
        assert w.block_step(2) == 120
        assert w.block_step(3) == 720

    def test_profile_heights_on_valley_floors(self):
        w = ValleyWeights(3)
        for m in (1, 2, 3):
            q = w.block_step(m)
            for j in range(1, m + 1):
                for p in range(0, m + 1):
                    assert w.lift_factor(0, j * q + p) == Fraction(1, 2**m)

    def test_profile_zero_off_valleys(self):
        w = ValleyWeights(3)
        for n in (0, 1, 23, 26, 100, 118, 124, 500, 717, 726):
            assert w.profile(n) == 0
            assert w.lift_factor(0, n) == 1

    def test_weights_take_three_values(self):
        w = ValleyWeights(2)
        seen = {w.weight(n) for n in range(1, 400)}
        assert seen == {Fraction(1, 2), Fraction(1), Fraction(2)}

    def test_weights_at_most_two(self):
        w = ValleyWeights(3)
        assert max(w.weight(n) for n in range(1, 3000)) <= 2

    def test_telescoping_product(self):
        w = ValleyWeights(2)
        brute = Fraction(1)
        for n in range(1, 300):
            brute /= w.weight(n)
            assert w.lift_factor(0, n) == brute
            assert w.lift_factor(0, n) == Fraction(1, 2 ** w.profile(n))

    @staticmethod
    def direct_profile(depth: int, n: int) -> int:
        # g(n) = max(0, max over blocks [j*q_m, j*q_m + m] of m - dist(n, block))
        g = 0
        for m in range(1, depth + 1):
            q = math.factorial(m + 3)
            for j in range(1, m + 1):
                dist = max(j * q - n, 0, n - (j * q + m))
                g = max(g, m - dist)
        return g

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_profile_matches_direct_formula(self, depth):
        w = ValleyWeights(depth)
        profile = [self.direct_profile(depth, n) for n in range(-6, 20_001)]
        for n in range(-5, 20_001):
            g = profile[n + 6]
            assert w.profile(n) == g
            if n >= 0:
                assert w.lift_factor(0, n) == Fraction(1, 2**g)
            assert w.weight(n) == Fraction(2) ** (g - profile[n + 5])

    def test_profile_past_the_table(self):
        # levels beyond the table start just below 16!
        w = ValleyWeights(13)
        start = math.factorial(16)
        for n in (start - 13, start - 12, start, start + 13, start + 25, 2 * start + 5):
            assert w.profile(n) == self.direct_profile(13, n)
        assert w.profile(start + 6) == 13

    def test_lift_factor_matches_basis_ratio(self):
        w = ValleyWeights(2)
        rng = random.Random(11)
        for _ in range(40):
            start = rng.randint(0, 250)
            steps = rng.randint(0, 60)
            brute = Fraction(1)
            for l in range(start + 1, start + steps + 1):
                brute /= w.weight(l)
            assert w.lift_factor(start, steps) == brute
        # the lift from e_0 falls to 2^-m on the level-m blocks
        w = ValleyWeights(3)
        lifts = [w.lift_factor(0, n) for n in (24, 120, 240, 720)]
        assert lifts == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8)]


# ---------------------------------------------------------------------------
# operators


class TestApply:
    def test_weighted_shift(self):
        op = BackwardShift(ConstantWeights(Fraction(2)), L1)
        assert apply(op, e(3)) == e(2, 2)

    def test_unilateral_annihilation(self):
        op = BackwardShift(UnitWeights(), L1)
        assert apply(op, e(0)) == ZERO
        assert apply(op, e(0) + e(1)) == e(0)

    def test_bilateral_crosses_zero(self):
        op = BackwardShift(UnitWeights(), L1_BI)
        assert apply(op, e(0)) == e(-1)

    def test_scaled(self):
        op = Scaled(Fraction(-1), BackwardShift(UnitWeights(), L1))
        assert apply(op, e(1)) == e(0, -1)

    def test_forward_shift_divides(self):
        op = ForwardShift(ConstantWeights(Fraction(2)), L1)
        assert apply(op, e(0)) == e(1, Fraction(1, 2))

    def test_power(self):
        op = Power(2, BackwardShift(UnitWeights(), L1))
        assert apply(op, e(4)) == e(2)

    def test_direct_sum_interleaves(self):
        b = BackwardShift(ConstantWeights(Fraction(3)), L1)
        op = DirectSum((b, b))
        # global index 5 = component 1, local index 2; image lands at 2*1+1 = 3
        assert apply(op, e(5)) == e(3, 3)
        assert apply(op, e(0)) == ZERO  # component 0, local 0: annihilated

    def test_unilateral_rejects_negative_support(self):
        op = BackwardShift(UnitWeights(), L1)
        with pytest.raises(InvalidArgumentError):
            apply(op, e(-1))

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidArgumentError, match="non-negative"):
            apply(Power(2, BackwardShift(UnitWeights(), L1_BI)), e(3), -1)

    def test_stored_order_decides_between_negative_support_and_a_range_error(self):
        # one pass meets the coefficients in stored order, for one step or k
        short = ExplicitWeights((Fraction(2), Fraction(3)))
        for k in (1, 3):
            for op in (BackwardShift(short, L1), ForwardShift(short, L1)):
                with pytest.raises(InvalidArgumentError, match="^weight index [56] outside"):
                    apply(op, FiniteVector([(5, 1), (-1, 1)]), k)
                with pytest.raises(InvalidArgumentError, match="^negative support in a unilateral"):
                    apply(op, FiniteVector([(-1, 1), (5, 1)]), k)
            # a closed-form family has no range error to meet first
            with pytest.raises(InvalidArgumentError, match="^negative support in a unilateral"):
                apply(BackwardShift(ValleyWeights(2), L1), FiniteVector([(5, 1), (-1, 1)]), k)

    def test_k_steps_of_a_direct_sum_keep_the_stepwise_error(self):
        # the second part's list runs out at the first step; the first
        # part's would run out only at the third
        long, short = (ExplicitWeights((Fraction(1),) * n) for n in (4, 2))
        op = DirectSum((ForwardShift(long, L1), ForwardShift(short, L1)))
        x = FiniteVector([(5, 1), (6, 1)])
        message = "^weight index 3 outside the accessible range 1..2$"
        for k, power in ((3, op), (1, Power(3, op))):
            with pytest.raises(InvalidArgumentError, match=message):
                apply(power, x, k)

    def test_image_stores_no_zero_coefficient(self):
        rng = random.Random(7002)
        ops = [
            BackwardShift(ValleyWeights(2), L1),
            BackwardShift(ConstantWeights(Fraction(2)), L1_BI),
            ForwardShift(ConstantWeights(Fraction(3, 2)), L1),
            Scaled(Fraction(-2, 3), BackwardShift(UnitWeights(), L1)),
            Power(3, BackwardShift(ConstantWeights(Fraction(1, 2)), L1)),
            DirectSum((BackwardShift(UnitWeights(), L1), ForwardShift(ConstantWeights(Fraction(2)), L1))),
        ]
        for op in ops:
            for _ in range(30):
                x = random_vector(rng, span=130)
                image = apply(op, x)
                assert all(c != 0 for _, c in image.items())

    def test_annihilated_vector_costs_no_weight_product_or_scalar_power(self, monkeypatch):
        # 10^7 steps of 3B annihilate every index below 10^7: with nothing
        # moved, neither 3^(10^7) nor the scalar's 10^7-th power is computed
        products, powers = [], []
        real_product = ConstantWeights.weight_product

        def spy_product(weights, start, steps):
            products.append(steps)
            return real_product(weights, start, steps)

        class SpyScalar(Fraction):
            def __pow__(self, k):
                powers.append(k)
                return Fraction(self) ** k

        monkeypatch.setattr(ConstantWeights, "weight_product", spy_product)
        shift = BackwardShift(ConstantWeights(Fraction(3)), L1)
        op = Scaled(Fraction(2), Power(10**7, shift))
        object.__setattr__(op, "scalar", SpyScalar(2))
        assert apply(op, e(0) + e(5)) == ZERO
        assert list(walk(op, e(0), range(4))) == [e(0), ZERO, ZERO, ZERO]
        assert apply(op, ZERO, 3) == ZERO
        assert products == [] and powers == []
        # a vector that survives pays for both, once
        survivor = Scaled(Fraction(2), shift)
        object.__setattr__(survivor, "scalar", SpyScalar(2))
        assert apply(survivor, e(5), 2) == e(3, 36)
        assert products == [2] and powers == [2]

    def test_linearity(self):
        rng = random.Random(7001)
        ops = [
            BackwardShift(ConstantWeights(Fraction(2)), L1),
            ForwardShift(ConstantWeights(Fraction(3, 2)), L1),
            Scaled(Fraction(-2, 3), BackwardShift(UnitWeights(), L1)),
            Power(3, BackwardShift(ConstantWeights(Fraction(1, 2)), L1)),
            DirectSum((BackwardShift(UnitWeights(), L1), BackwardShift(ConstantWeights(Fraction(2)), L1))),
        ]
        for _ in range(40):
            op = rng.choice(ops)
            x = random_vector(rng)
            y = random_vector(rng)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            left = apply(op, x.scale(a) + y.scale(b))
            right = apply(op, x).scale(a) + apply(op, y).scale(b)
            assert left == right


class TestInvert:
    def test_bilateral_round_trip(self):
        rng = random.Random(314)
        b = BackwardShift(ConstantWeights(Fraction(2)), L1_BI)
        ops = [b, Scaled(Fraction(-1), b), Power(2, b), DirectSum((b, b))]
        for op in ops:
            inv = invert(op)
            for _ in range(15):
                x = random_vector(rng, bilateral=True)
                assert apply(inv, apply(op, x)) == x
                assert apply(op, apply(inv, x)) == x

    def test_unilateral_not_invertible(self):
        with pytest.raises(InvalidArgumentError):
            invert(BackwardShift(UnitWeights(), L1))

    def test_forward_inverts_backward_weights(self):
        b = BackwardShift(ConstantWeights(Fraction(2)), L1_BI)
        inv = invert(b)
        assert apply(inv, e(0)) == e(1, Fraction(1, 2))


# ---------------------------------------------------------------------------
# scalar sequences and scaled iterates


class TestScalars:
    def test_one(self):
        s = OneScalars()
        assert s.value(0) == 1 and s.value(17) == 1

    def test_dyadic_sqrt_values(self):
        s = DyadicSqrtScalars()
        assert s.value(0) == 1  # convention
        assert s.value(1) == 2
        assert s.value(4) == 4
        assert s.value(5) == 8  # ceil(sqrt 5) = 3
        assert s.value(16) == 16
        assert s.value(32) == 64  # ceil(sqrt 32) = 6

    def test_exp_sqrt_is_float_only(self):
        import math

        s = ExpSqrtScalars()
        with pytest.raises(ModeMismatchError):
            s.value(2)
        assert s.value_float(4) == pytest.approx(math.exp(2))
        assert s.value_float(0) == 1.0

    def test_explicit_pins_lambda_zero(self):
        s = ExplicitScalars((Fraction(3), Fraction(5)))
        assert s.value(0) == 1
        assert s.value(1) == 3
        with pytest.raises(InvalidArgumentError):
            s.value(3)
        with pytest.raises(InvalidArgumentError):
            ExplicitScalars((Fraction(0),))


class TestIterate:
    def test_annihilation_after_support(self):
        assert apply(BackwardShift(ConstantWeights(Fraction(2)), L1), e(5), 6) == ZERO

    def test_scaled_iterates_example(self):
        op = BackwardShift(UnitWeights(), L1)
        assert list(walk(op, e(4), [4], DyadicSqrtScalars())) == [e(0, 4)]

    def test_power_operator_iterates(self):
        assert apply(Power(2, BackwardShift(UnitWeights(), L1)), e(4), 1) == e(2)

    def test_index_zero_is_identity(self):
        x = e(2) + e(5, Fraction(1, 3))
        op = BackwardShift(UnitWeights(), L1)
        assert apply(op, x, 0) == x
        assert list(walk(op, x, [0], DyadicSqrtScalars())) == [x]  # lambda_0 := 1

    def test_semigroup_property(self):
        rng = random.Random(6)
        op = BackwardShift(ConstantWeights(Fraction(3, 2)), L1)
        for _ in range(25):
            x = random_vector(rng)
            a, b = rng.randint(0, 6), rng.randint(0, 6)
            assert apply(op, apply(op, x, b), a) == apply(op, x, a + b)
            assert list(walk(op, x, [b, a + b])) == [apply(op, x, b), apply(op, x, a + b)]
            assert apply(op, x, 1) == apply(op, x)

    def test_power_coherence(self):
        rng = random.Random(8)
        base = BackwardShift(ConstantWeights(Fraction(2)), L1)
        for p in (1, 2, 3):
            for _ in range(10):
                x = random_vector(rng)
                n = rng.randint(0, 4)
                assert apply(Power(p, base), x, n) == apply(base, x, p * n)

    def test_float_mode_on_exact_scalars_matches(self):
        op = BackwardShift(UnitWeights(), L1)
        exact = list(walk(op, e(4), [4], DyadicSqrtScalars()))
        lax = list(walk(op, e(4), [4], DoubleScalars(DyadicSqrtScalars())))
        assert exact == lax

    def test_exp_sqrt_requires_float_mode(self):
        op = BackwardShift(UnitWeights(), L1)
        with pytest.raises(ModeMismatchError):
            list(walk(op, e(4), [2], ExpSqrtScalars()))
        (v,) = walk(op, e(4), [2], DoubleScalars(ExpSqrtScalars()))
        assert v.support() == (2,)
        assert v.coefficient(2) == Fraction(math.exp(math.sqrt(2)))

    def test_negative_index_rejected(self):
        op = BackwardShift(UnitWeights(), L1)
        with pytest.raises(InvalidArgumentError):
            apply(op, e(0), -1)
        with pytest.raises(InvalidArgumentError):
            list(walk(op, e(0), [-1]))


class TestOrbit:
    def test_orbit_matches_fresh_iterates(self):
        op = BackwardShift(ConstantWeights(Fraction(2)), L1)
        scalars = DyadicSqrtScalars()
        x = e(5) + e(9, Fraction(1, 7))
        for n, v in enumerate(walk(op, x, range(13), scalars)):
            assert v == apply(op, x, n).scale(scalars.value(n))

    def test_orbit_yields_every_index(self):
        op = BackwardShift(UnitWeights(), L1)
        assert list(walk(op, e(3), range(8))) == [apply(op, e(3), n) for n in range(8)]


# ---------------------------------------------------------------------------
# differential: the kernel against a dict-of-Fraction reference


def ref_apply(op, x: dict) -> dict:
    """One application of op to {index: Fraction}, straight from the definitions."""
    if isinstance(op, BackwardShift):
        uni = op.space.laterality == UNILATERAL
        return {n - 1: c * op.weights.weight(n) for n, c in x.items() if not (uni and n == 0)}
    if isinstance(op, ForwardShift):
        return {n + 1: c / op.weights.weight(n + 1) for n, c in x.items()}
    if isinstance(op, Scaled):
        return {n: c * op.scalar for n, c in ref_apply(op.inner, x).items()}
    if isinstance(op, Power):
        for _ in range(op.exponent):
            x = ref_apply(op.inner, x)
        return x
    r = len(op.parts)
    out = {}
    for i, part in enumerate(op.parts):
        image = ref_apply(part, {g // r: c for g, c in x.items() if g % r == i})
        out.update({n * r + i: c for n, c in image.items()})
    return out


def ref_norm(x: dict, p) -> Fraction:
    if p == 1:
        return sum((abs(c) for c in x.values()), Fraction(0))
    if p == 2:
        return sum((c * c for c in x.values()), Fraction(0))
    return max((abs(c) for c in x.values()), default=Fraction(0))


def ref_sub(x: dict, y: dict) -> dict:
    out = dict(x)
    for n, c in y.items():
        out[n] = out.get(n, Fraction(0)) - c
    return {n: c for n, c in out.items() if c != 0}


def random_fraction(rng: random.Random, positive: bool = False) -> Fraction:
    lo = 1 if positive else -12
    while True:
        c = Fraction(rng.randint(lo, 12), rng.randint(1, 12))
        if c != 0:
            return c


def random_shift(rng: random.Random, explicit_length: int = 80, valley_depth: int = 2):
    """A weighted shift of either direction and side, with any of the four weight kinds."""
    kind = rng.choice(["unit", "constant", "explicit", "valley"])
    # explicit weights stop at index 1, so they live on the unilateral side
    side = UNILATERAL if kind == "explicit" else rng.choice([UNILATERAL, BILATERAL])
    weights = {
        "unit": lambda: UnitWeights(),
        "constant": lambda: ConstantWeights(random_fraction(rng, positive=True)),
        "explicit": lambda: ExplicitWeights(
            tuple(random_fraction(rng, positive=True) for _ in range(explicit_length))
        ),
        "valley": lambda: ValleyWeights(rng.randint(1, valley_depth)),
    }[kind]()
    shift = rng.choice([BackwardShift, ForwardShift])
    return shift(weights, SpaceSpec(rng.choice([1, 2, INF]), side))


def random_operator(rng: random.Random, depth: int = 2, **shift_options):
    roll = rng.random() if depth else 0
    if roll < 0.4:
        return random_shift(rng, **shift_options)
    if roll < 0.6:
        return Scaled(random_fraction(rng), random_operator(rng, depth - 1, **shift_options))
    if roll < 0.8:
        return Power(rng.randint(2, 3), random_operator(rng, depth - 1, **shift_options))
    first = random_operator(rng, depth - 1, **shift_options)
    # every part must act on the same space as the first
    parts = [first]
    for _ in range(rng.randint(1, 2)):
        other = random_shift(rng, **shift_options)
        while other.space != operator_space(first):
            other = random_shift(rng, **shift_options)
        parts.append(other)
    return DirectSum(tuple(parts))


def random_entries(rng: random.Random, bilateral: bool) -> dict:
    lo = -8 if bilateral else 0
    entries = {}
    for _ in range(rng.randint(0, 7)):
        entries[rng.randint(lo, 8)] = random_fraction(rng)
    return entries


def as_dict(v: FiniteVector) -> dict:
    return dict(v.items())


def assert_canonical(v: FiniteVector) -> None:
    assert v._den > 0
    assert math.gcd(v._den, *v._num.values()) == 1
    assert all(n != 0 for n in v._num.values())


class TestDifferentialKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_apply_walk_norms_and_balls_match_the_reference(self, seed):
        rng = random.Random(9100 + seed)
        scalar_kinds = [DyadicSqrtScalars(), ExplicitScalars(tuple(random_fraction(rng) for _ in range(8)))]
        for _ in range(40):
            op = random_operator(rng)
            space = operator_space(op)
            bilateral = space.laterality == BILATERAL
            ref = random_entries(rng, bilateral)
            x = FiniteVector(ref)
            assert as_dict(x) == ref
            center = random_entries(rng, bilateral)
            ball = Ball(FiniteVector(center), random_fraction(rng, positive=True), space)
            mode = rng.choice(["exact", "float"])
            scalars = rng.choice(scalar_kinds)
            times = range(7)
            refs = [ref]
            for _ in times[1:]:
                refs.append(ref_apply(op, refs[-1]))
            slack_ball = Ball(ball.center, ball.radius, space, FLOAT_SLACK)
            if mode == "float":
                scalars = DoubleScalars(scalars)
            plain = list(walk(op, x, times))
            scaled = list(walk(op, x, times, scalars))
            for t in times:
                v, want = plain[t], refs[t]
                assert_canonical(v)
                assert as_dict(v) == want
                assert v == FiniteVector(want) and hash(v) == hash(FiniteVector(want))
                if t:
                    assert apply(op, plain[t - 1]) == v
                lam = scalars.value(t) if mode == "exact" else Fraction(scalars.inner.value_float(t))
                scaled_ref = {n: c * lam for n, c in want.items()}
                assert_canonical(scaled[t])
                assert as_dict(scaled[t]) == scaled_ref
                assert tuple(norm_key(v, p) for p in (1, 2, INF)) == tuple(ref_norm(want, p) for p in (1, 2, INF))
                # ||v - c|| < r for the exact ball, < r * (1 - 10^-9) for the slack ball
                shrunk = ball.radius * (1 - Fraction(1, 10**9))
                for vec, vec_ref in ((v, want), (scaled[t], scaled_ref)):
                    gap = ref_norm(ref_sub(vec_ref, center), space.p)
                    for b, radius in ((ball, ball.radius), (slack_ball, shrunk)):
                        assert in_ball(vec, b) == (gap < (radius**2 if space.p == 2 else radius))
                    if gap and space.p != 2:
                        # a part in 10^12 outside the gap: inside exactly, outside with the slack
                        near = gap * (1 + Fraction(1, 10**12))
                        assert in_ball(vec, Ball(ball.center, near, space))
                        assert not in_ball(vec, Ball(ball.center, near, space, FLOAT_SLACK))
                diff = scaled[t] - ball.center
                assert_canonical(diff)
                assert as_dict(diff) == ref_sub(scaled_ref, center)

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_gap_and_membership_match_the_reference_distance(self, p):
        # gap(v, ball) is ||v - c||_p, squared for p = 2, on either side;
        # in_ball decides gap < r (r^2 for p = 2), and < r*(1 - slack) with a slack
        rng = random.Random(9400 + (3 if p == INF else p))
        power = 2 if p == 2 else 1
        shrunk = 1 - FLOAT_SLACK
        for _ in range(150):
            space = SpaceSpec(p, rng.choice([UNILATERAL, BILATERAL]))
            bilateral = space.laterality == BILATERAL
            center = random_entries(rng, bilateral)
            radius = random_fraction(rng, positive=True)
            ball = Ball(FiniteVector(center), radius, space)
            slack_ball = Ball(ball.center, radius, space, FLOAT_SLACK)
            # a random vector, and one on the sphere: c + r e_i is at distance r for every p
            on_sphere = dict(center)
            i = rng.randint(0, 8)
            on_sphere[i] = on_sphere.get(i, 0) + radius
            for ref in (random_entries(rng, bilateral), on_sphere):
                v = FiniteVector(ref)
                n, d = gap(v, ball)
                want = ref_norm(ref_sub(ref, center), p)
                assert d > 0 and Fraction(n, d) == want
                assert in_ball(v, ball) == (want < radius**power)
                assert in_ball(v, slack_ball) == (want < (radius * shrunk) ** power)
            assert want == radius**power and not in_ball(v, ball)
            # a part in 10^12 beyond the sphere: inside exactly, outside with the slack
            wider = radius * (1 + Fraction(1, 10**12))
            assert in_ball(v, Ball(ball.center, wider, space))
            assert not in_ball(v, Ball(ball.center, wider, space, FLOAT_SLACK))
        with pytest.raises(InvalidArgumentError):
            gap(e(-1), Ball(ZERO, 1, SpaceSpec(p, UNILATERAL)))

    @pytest.mark.parametrize("seed", range(8))
    def test_k_steps_and_sparse_walks_match_stepping_the_reference(self, seed):
        # short explicit lists run out within the powers below, valley
        # depths reach 3, unilateral support below k is annihilated and
        # bilateral vectors reach negative indices; an error must be the
        # one the stepwise reference meets first, in type and message
        rng = random.Random(9300 + seed)
        seen = set()
        for _ in range(60):
            op = random_operator(rng, explicit_length=rng.randint(3, 12), valley_depth=3)
            bilateral = operator_space(op).laterality == BILATERAL
            ref = random_entries(rng, bilateral)
            x = FiniteVector(ref)
            steps, failure = [ref], None
            for _ in range(17):
                try:
                    steps.append(ref_apply(op, steps[-1]))
                except InvalidArgumentError as exc:
                    failure = (len(steps), type(exc), str(exc))
                    seen.add("runs out")
                    break
            for k in range(1, 13):
                if failure is None or k < failure[0]:
                    v = apply(op, x, k)
                    assert_canonical(v)
                    assert as_dict(v) == steps[k]
                    if not bilateral and len(steps[k]) < len(ref):
                        seen.add("annihilated")
                else:
                    with pytest.raises(failure[1]) as caught:
                        apply(op, x, k)
                    assert str(caught.value) == failure[2]
            for times in ((0, 5, 17), (17, 5), (3, 3, 12)):
                if failure is None or max(times) < failure[0]:
                    got = [as_dict(v) for v in walk(op, x, times)]
                    assert got == [steps[t] for t in times]
                else:
                    with pytest.raises(failure[1]) as caught:
                        list(walk(op, x, times))
                    assert str(caught.value) == failure[2]
            if bilateral and any(n < 0 for n in ref):
                seen.add("negative indices")
            if "depth=3" in repr(op):
                seen.add("valley depth 3")
        assert seen == {"runs out", "annihilated", "negative indices", "valley depth 3"}

    def test_one_value_by_two_routes_compares_and_hashes_equal(self):
        rng = random.Random(9200)
        for _ in range(60):
            shift = random_shift(rng)
            back = BackwardShift(shift.weights, shift.space)
            forward = ForwardShift(shift.weights, shift.space)
            x = FiniteVector(random_entries(rng, shift.space.laterality == BILATERAL))
            # the forward shift is a right inverse of the backward one on either side
            there_and_back = apply(back, apply(forward, x))
            assert there_and_back == x
            assert hash(there_and_back) == hash(x)
            assert there_and_back.items() == x.items()
            # a common factor brought in by one scalar and taken out by another
            k = random_fraction(rng)
            assert x.scale(k).scale(1 / k) == x
            assert hash(x.scale(k).scale(1 / k)) == hash(x)
            assert (x.scale(k) == x) == (x.is_zero or k == 1)
