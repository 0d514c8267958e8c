"""Tests for the recurrence laboratory: criteria, witnesses, refinements, counts."""

import random
from fractions import Fraction

import pytest

from aporbit.errors import (
    InvalidArgumentError,
    ModeMismatchError,
    PreconditionError,
    StageFailureError,
    WorkbenchError,
)
from aporbit import recurrence, spaces
from aporbit.cli import FLOAT_SLACK
from aporbit.recurrence import (
    inverse_witness,
    joint_return_count,
    lift_vector,
    multirec_candidate,
    multirec_witness,
    nested_ball_refinement,
    pair_recurrence_search,
    return_set,
    shift_ap_criterion,
    universal_vector,
    verify_return_times,
    verify_universal,
    shift_ap_criterion as criterion,
)
from aporbit.spaces import (
    BILATERAL,
    INF,
    UNILATERAL,
    BackwardShift,
    Ball,
    ConstantWeights,
    DoubleScalars,
    DyadicSqrtScalars,
    ExpSqrtScalars,
    ExplicitWeights,
    FiniteVector,
    OneScalars,
    Power,
    Scaled,
    SpaceSpec,
    UnitWeights,
    ValleyWeights,
    ZERO,
    apply,
    in_ball,
    norm_key,
    walk,
)

L1 = SpaceSpec(1, UNILATERAL)
L1_BI = SpaceSpec(1, BILATERAL)
W2 = ConstantWeights(Fraction(2))

e = FiniteVector.basis


def doubling_shift():
    return BackwardShift(W2, L1)


def reference_iterate(op, x, n, scalars=None):
    """lambda_n T^n x by a plain loop of apply and one scale, apart from the walker."""
    for _ in range(n):
        x = apply(op, x)
    return x if scalars is None else x.scale(scalars.value(n))


def slack(mode):
    """The slack of the CLI's balls in mode."""
    return FLOAT_SLACK if mode == "float" else 0


def as_float_mode(scalars, ball, mode):
    """The scalars and ball the CLI builds in mode: doubles and a slack ball in float mode."""
    if mode == "exact":
        return scalars, ball
    return DoubleScalars(scalars), Ball(ball.center, ball.radius, ball.space, slack(mode))


# ---------------------------------------------------------------------------
# membership plumbing


class TestMembership:
    def test_gap_is_distance_to_center(self):
        ball = Ball(e(0), Fraction(1, 4), L1)
        assert Fraction(*spaces.gap(e(0) + e(3, Fraction(1, 8)), ball)) == Fraction(1, 8)
        assert Fraction(*spaces.gap(e(0), ball)) == 0

    def test_verify_return_times_recomputes(self):
        ball = Ball(ZERO, Fraction(1, 10), L1)
        assert verify_return_times(doubling_shift(), e(5), ball, [6, 7]) == (True, True)
        assert verify_return_times(doubling_shift(), e(5), ball, [5, 6]) == (False, True)

    # each case is an (operator, scalars) pair and the mode the CLI would build it in
    @pytest.mark.parametrize(
        "seq, mode",
        [
            ((BackwardShift(ValleyWeights(2), L1), None), "exact"),
            ((Scaled(Fraction(-1, 3), BackwardShift(W2, L1_BI)), None), "exact"),
            ((doubling_shift(), DyadicSqrtScalars()), "exact"),
            ((doubling_shift(), DyadicSqrtScalars()), "float"),
            ((BackwardShift(UnitWeights(), L1), ExpSqrtScalars()), "float"),
        ],
    )
    def test_verify_return_times_matches_each_iterate(self, seq, mode):
        # unsorted times with repeats: the walk restarts from x on a smaller time
        rng = random.Random(11)
        op, scalars = seq
        x = e(3) + e(9, Fraction(-2, 5)) + e(24, Fraction(7, 3))
        ball = Ball(e(1, Fraction(1, 2)), Fraction(1), spaces.operator_space(op))
        scalars, ball = as_float_mode(scalars, ball, mode)
        for _ in range(5):
            times = [rng.randrange(0, 30) for _ in range(12)] + [0, 2]
            rng.shuffle(times)
            times += times[:3]
            iterates = [reference_iterate(op, x, n, scalars) for n in times]
            assert list(walk(op, x, times, scalars)) == iterates
            assert [next(walk(op, x, [n], scalars)) for n in times] == iterates
            expected = tuple(in_ball(v, ball) for v in iterates)
            assert verify_return_times(op, x, ball, times, scalars) == expected
            assert any(expected) and not all(expected)

    def test_verify_return_times_rejects_negative_time(self):
        with pytest.raises(InvalidArgumentError):
            verify_return_times(doubling_shift(), e(2), Ball(ZERO, 1, L1), [3, -1])


# ---------------------------------------------------------------------------
# return sets


class TestReturnSet:
    def test_annihilation_tail(self):
        # ||(2B)^n e5|| = 2^n for n <= 5, then the orbit dies
        hits = return_set(doubling_shift(), e(5), Ball(ZERO, Fraction(1, 10), L1), 12)
        assert list(hits) == list(range(6, 13))

    def test_fixed_point_returns_everywhere(self):
        hits = return_set(doubling_shift(), ZERO, Ball(ZERO, Fraction(1), L1), 9)
        assert list(hits) == list(range(0, 10))

    def test_two_layer_vector(self):
        x = e(0) + e(10, Fraction(1, 2))
        hits = return_set(BackwardShift(UnitWeights(), L1), x, Ball(ZERO, Fraction(1, 4), L1), 15)
        assert list(hits) == list(range(11, 16))

    def test_agrees_with_verifier(self):
        scalars = DyadicSqrtScalars()
        x = e(4) + e(7, Fraction(1, 3))
        ball = Ball(ZERO, Fraction(2), L1)
        hits = return_set(doubling_shift(), x, ball, 10, scalars)
        inside = verify_return_times(doubling_shift(), x, ball, list(hits), scalars)
        missed = [n for n in range(11) if n not in hits]
        outside = verify_return_times(doubling_shift(), x, ball, missed, scalars)
        assert all(inside) and not any(outside)

    def test_float_mode_for_float_scalars(self):
        op = BackwardShift(UnitWeights(), L1)
        with pytest.raises(ModeMismatchError):
            return_set(op, e(3), Ball(ZERO, Fraction(1), L1), 5, ExpSqrtScalars())
        scalars, ball = as_float_mode(ExpSqrtScalars(), Ball(ZERO, Fraction(1), L1), "float")
        hits = return_set(op, e(3), ball, 5, scalars)
        assert list(hits) == [4, 5]  # e^sqrt(n) > 1 while the orbit survives
        with pytest.raises(InvalidArgumentError):
            return_set(op, e(3), ball, -1)


# ---------------------------------------------------------------------------
# the basis-decay criterion grid


class TestCriterion:
    def test_doubling_weights_certify_at_seven(self):
        grid = shift_ap_criterion(W2, Fraction(1, 100), p_max=3, m_max=3, q_max=100)
        assert None not in grid.values()
        assert all(q == 7 for q in grid.values())
        assert grid[(0, 1)] == 7

    def test_unit_weights_never_certify(self):
        grid = shift_ap_criterion(UnitWeights(), Fraction(1, 2), 2, 2, 50)
        assert None in grid.values()
        assert all(q is None for q in grid.values())

    def test_valley_certifies_at_top_block(self):
        grid = shift_ap_criterion(ValleyWeights(3), Fraction(1, 8), 1, 3, 800)
        assert all(q == 720 for q in grid.values())

    def test_boundary_equality_counts(self):
        # the deepest valley size is exactly 1/8 = epsilon: inclusive compare
        w = ValleyWeights(3)
        assert w.lift_factor(0, 720) == Fraction(1, 8)
        assert shift_ap_criterion(w, Fraction(1, 8), 0, 3, 800)[(0, 3)] == 720
        # anything strictly below 1/8 pushes the cell past every block
        below = Fraction(1, 8) - Fraction(1, 10**6)
        assert shift_ap_criterion(w, below, 0, 3, 800)[(0, 3)] is None

    def test_certified_cell_really_has_small_sizes(self):
        eps = Fraction(1, 100)
        for (p, m), q in shift_ap_criterion(W2, eps, 2, 3, 100).items():
            for j in range(1, m + 1):
                for p_off in range(0, p + 1):
                    assert W2.lift_factor(0, j * q + p_off) <= eps

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            shift_ap_criterion(W2, Fraction(0), 1, 1, 10)
        with pytest.raises(InvalidArgumentError):
            shift_ap_criterion(W2, Fraction(1, 2), -1, 1, 10)
        with pytest.raises(InvalidArgumentError):
            shift_ap_criterion(W2, Fraction(1, 2), 1, 0, 10)


# ---------------------------------------------------------------------------
# lifts


class TestLift:
    def test_shift_inverts_lift(self):
        rng = random.Random(90)
        for w in (W2, ValleyWeights(2), UnitWeights()):
            op = BackwardShift(w, L1)
            for _ in range(20):
                y = FiniteVector(
                    {
                        rng.randint(0, 8): Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
                        for _ in range(rng.randint(0, 4))
                    }
                )
                q = rng.randint(1, 10)
                lifted = lift_vector(w, y, q)
                assert apply(op, lifted, q) == y

    def test_candidate_layer_structure(self):
        x = multirec_candidate(W2, e(0), 3, 2)
        assert x == e(0) + e(3, Fraction(1, 8)) + e(6, Fraction(1, 64))

    def test_lift_zero_steps(self):
        y = e(2) + e(5)
        assert lift_vector(W2, y, 0) == y


# ---------------------------------------------------------------------------
# single-vector recurrence witnesses


class TestMultirec:
    def test_doubling_example(self):
        w = multirec_witness(W2, Ball(e(0), Fraction(1, 4), L1), m=2, q_max=100)
        assert w is not None and w.verified
        assert w.q == 3
        assert w.x == e(0) + e(3, Fraction(1, 8)) + e(6, Fraction(1, 64))
        assert w.distances == (Fraction(9, 64), Fraction(1, 8), Fraction(0))

    def test_unit_weights_exhaust(self):
        # every lift layer has size 1, so each candidate misses by at least 3/4
        w = multirec_witness(UnitWeights(), Ball(e(0), Fraction(1, 4), L1), 1, 50)
        assert w is None

    def test_zero_center_trivial_witness(self):
        w = multirec_witness(W2, Ball(ZERO, Fraction(1, 3), L1), m=3, q_max=10)
        assert w is not None
        assert w.q == 1 and w.x == ZERO
        assert w.verified

    def test_returned_memberships_recheck(self):
        w = multirec_witness(W2, Ball(e(1), Fraction(1, 5), L1), m=2, q_max=30)
        assert w is not None
        times = [j * w.q for j in range(w.m + 1)]
        assert all(verify_return_times(doubling_shift(), w.x, Ball(e(1), Fraction(1, 5), L1), times))

    def test_valley_search_walks_each_orbit_once(self, monkeypatch):
        # ball 3e0 of radius 27/8 first admits q = 120 at m = 2; the steps
        # before it are rejected from the closed form and cost no
        # application, and the winner takes one walk of 2q steps, which
        # decides its memberships and gives its distances.  The walk jumps
        # from each checked time to the next, so it is two applications
        # (stepping it took 240; a search and a re-verification walk took
        # 480; checking each time from scratch took ~22 000)
        steps = []
        real_apply = spaces.apply

        def counting_apply(op, x, k=1):
            steps.append(k)
            return real_apply(op, x, k)

        monkeypatch.setattr(spaces, "apply", counting_apply)
        ball = Ball(e(0, 3), Fraction(27, 8), L1)
        w = multirec_witness(ValleyWeights(2), ball, m=2, q_max=130)
        assert w is not None and w.verified and w.q == 120
        assert w.distances == (Fraction(3, 2), Fraction(3, 4), Fraction(0))
        assert steps == [w.q, w.q]

    def test_deterministic(self):
        ball = Ball(e(0), Fraction(1, 4), L1)
        assert multirec_witness(W2, ball, 2, 100) == multirec_witness(W2, ball, 2, 100)

    def test_single_return_when_m_is_zero(self):
        # m = 0 asks only for membership of x itself
        w = multirec_witness(W2, Ball(e(0), Fraction(1), L1), m=0, q_max=10)
        assert w is not None and w.x == e(0) and w.verified

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            multirec_witness(W2, Ball(e(0), Fraction(1), L1), m=-1, q_max=10)
        with pytest.raises(InvalidArgumentError):
            multirec_witness(W2, Ball(e(0), Fraction(1), L1), m=1, q_max=0)


# ---------------------------------------------------------------------------
# universal vectors for scaled orbits


def universal_error(scalars, y, m, k, p):
    """verify_universal on the universal vector built from the same inputs."""
    return verify_universal(scalars, universal_vector(scalars, y, m, k), y, m, k, p)


class TestUniversal:
    def test_plain_scalars_stack_basis_vectors(self):
        assert universal_vector(OneScalars(), e(0), 2, 1) == e(0) + e(1) + e(2)

    def test_zero_layers_is_identity(self):
        y = e(0) + e(2, Fraction(1, 3))
        assert universal_vector(OneScalars(), y, 0, 5) == y

    def test_dyadic_example(self):
        v = universal_vector(DyadicSqrtScalars(), e(0), 2, 16)
        assert v == e(0) + e(16, Fraction(1, 16)) + e(32, Fraction(1, 64))

    def test_verify_error_value(self):
        err = universal_error(DyadicSqrtScalars(), e(0), 2, 16, 1)
        assert err == Fraction(1, 4)

    def test_verify_measures_the_vector_given(self):
        # the l = 1 term alone: || lambda_1 B e_1 - e_0 ||_1 = ||2 e_0 - e_0||_1
        assert verify_universal(DyadicSqrtScalars(), e(1), e(0), 1, 1, 1) == 1
        assert verify_universal(OneScalars(), e(0), e(0), 0, 5, 1) == 0

    def test_errors_shrink_with_k(self):
        errs = [universal_error(DyadicSqrtScalars(), e(0), 2, k, 1) for k in (16, 64, 256)]
        assert errs == [Fraction(1, 4), Fraction(1, 16), Fraction(1, 128)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_k_must_clear_support(self):
        with pytest.raises(PreconditionError):
            universal_vector(OneScalars(), e(0) + e(5), 1, 5)
        universal_vector(OneScalars(), e(0) + e(5), 1, 6)  # boundary passes

    def test_error_law_on_random_inputs(self):
        # worst stage error in l1 is sum_(j>l) lambda_(lk)/lambda_(jk) * ||y||_1
        rng = random.Random(404)
        scal = DyadicSqrtScalars()
        for _ in range(25):
            y = FiniteVector(
                {
                    rng.randint(0, 4): Fraction(rng.randint(-4, 4) or 2, rng.randint(1, 5))
                    for _ in range(rng.randint(1, 3))
                }
            )
            m = rng.randint(1, 3)
            k = rng.randint((y.max_support() or 0) + 1, (y.max_support() or 0) + 12)
            got = universal_error(scal, y, m, k, 1)
            law = max(
                sum(
                    (scal.value(l * k) / scal.value(j * k)) * norm_key(y, 1)
                    for j in range(l + 1, m + 1)
                )
                for l in range(1, m + 1)
            )
            assert got == law

    def test_float_mode_scalars(self):
        err = universal_error(DoubleScalars(ExpSqrtScalars()), e(0), 1, 4, 1)
        assert isinstance(err, Fraction) and err == 0  # single surviving layer
        with pytest.raises(ModeMismatchError):
            universal_error(ExpSqrtScalars(), e(0), 1, 4, 1)


# ---------------------------------------------------------------------------
# inverse-orbit witnesses (bilateral only)


class TestInverseWitness:
    def test_plain_bilateral_shift(self):
        op = BackwardShift(UnitWeights(), L1_BI)
        y = inverse_witness(op, e(0), n=2, m=3)
        assert y == e(-6)

    def test_signed_shift(self):
        op = Scaled(Fraction(-1), BackwardShift(UnitWeights(), L1_BI))
        y = inverse_witness(op, e(0), n=1, m=2)
        assert y == e(-2)  # (-1)^2 cancels

    def test_unilateral_rejected(self):
        with pytest.raises(InvalidArgumentError):
            inverse_witness(BackwardShift(UnitWeights(), L1), e(0), 1, 1)

    def test_random_contract(self):
        rng = random.Random(2718)
        base = BackwardShift(W2, L1_BI)
        ops = [base, Scaled(Fraction(-1), base), Power(2, base)]
        for _ in range(50):
            op = rng.choice(ops)
            x = FiniteVector(
                {
                    rng.randint(-5, 5): Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 6))
                    for _ in range(rng.randint(0, 3))
                }
            )
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            y = inverse_witness(op, x, n, m)
            assert y == reference_iterate(op, x, m * n)


# ---------------------------------------------------------------------------
# pair witnesses


class TestPairSearch:
    def test_all_zero_centers(self):
        zero = Ball(ZERO, Fraction(1), L1)
        w = pair_recurrence_search(W2, zero, zero, zero, m=1, a_max=10, q_max=10)
        assert w is not None and (w.a, w.q) == (1, 1)

    def test_doubling_example(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        V1 = Ball(ZERO, Fraction(1, 2), L1)
        V2 = Ball(e(0), Fraction(1, 2), L1)
        w = pair_recurrence_search(W2, U, V1, V2, m=1, a_max=50, q_max=50)
        assert w is not None
        assert (w.a, w.q) == (2, 2)

    def test_witness_satisfies_contract(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        V1 = Ball(ZERO, Fraction(1, 2), L1)
        V2 = Ball(e(0), Fraction(1, 2), L1)
        w = pair_recurrence_search(W2, U, V1, V2, m=1, a_max=50, q_max=50)
        op = doubling_shift()
        times = [w.a + j * w.q for j in range(w.m + 1)]
        assert all(verify_return_times(op, w.x1, U, [0]))
        assert all(verify_return_times(op, w.x2, U, [0]))
        assert all(verify_return_times(op, w.x1, V1, times))
        assert all(verify_return_times(op, w.x2, V2, times))

    def test_unit_weights_exhaust(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        w = pair_recurrence_search(UnitWeights(), U, U, U, m=1, a_max=15, q_max=15)
        assert w is None

    def test_skipped_steps_cost_no_walk(self, monkeypatch):
        # at q = 1, 2 and 3 the inner lift-sum toward V2 = ball(e0, 1/8) misses
        # its ball, so no a can work there; the first a with both points in
        # U = ball(e0, 1/64) at q = 4 is a = 7.  Only the winner is walked:
        # a + m*q = 11 steps for each of x1 and x2, in one jump to each
        # checked time a and a + q (stepping took 22 applications; walking
        # every (q, a) with both points in U took 5,020)
        steps = []
        real_apply = spaces.apply

        def counting_apply(op, x, k=1):
            steps.append(k)
            return real_apply(op, x, k)

        monkeypatch.setattr(spaces, "apply", counting_apply)
        U = Ball(e(0), Fraction(1, 64), L1)
        V1 = Ball(ZERO, Fraction(1, 2), L1)
        V2 = Ball(e(0), Fraction(1, 8), L1)
        w = pair_recurrence_search(W2, U, V1, V2, m=1, a_max=40, q_max=40)
        assert (w.a, w.q) == (7, 4)
        assert steps == [w.a, w.q] * 2


# ---------------------------------------------------------------------------
# nested refinement


class TestNestedRefinement:
    def test_zero_stages(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        stages = nested_ball_refinement(W2, U, M=0, q_max=10)
        assert len(stages) == 1
        assert stages[0].ball == U and stages[0].witness is None
        assert stages[-1].ball.center == e(0)

    def test_two_stage_example(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        stages = nested_ball_refinement(W2, U, M=2, q_max=64)
        assert [s.witness and s.witness.q for s in stages] == [None, 4, 5]
        assert [s.ball.radius for s in stages] == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
        ]
        # each stage ball sits inside its predecessor, with slack
        for prev, cur in zip(stages, stages[1:]):
            gap = norm_key(cur.ball.center - prev.ball.center, 1)
            assert gap + cur.ball.radius <= prev.ball.radius
            assert cur.witness is not None and cur.witness.verified
            # the stage ball is centered on its witness
            assert cur.ball.center == cur.witness.x

    def test_stage_returns_stay_in_stage_ball(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        stages = nested_ball_refinement(W2, U, M=2, q_max=64)
        for stage_index, stage in enumerate(stages[1:], start=1):
            times = [j * stage.witness.q for j in range(stage_index + 1)]
            assert all(verify_return_times(doubling_shift(), stage.ball.center, stage.ball, times))

    def test_failure_carries_prefix(self):
        U = Ball(e(0), Fraction(1, 2), L1)
        with pytest.raises(StageFailureError) as exc:
            nested_ball_refinement(UnitWeights(), U, M=1, q_max=20)
        assert exc.value.stage == 1
        assert len(exc.value.completed) == 1  # just the initial ball


# ---------------------------------------------------------------------------
# joint return counting for scaled orbits


class TestJointReturnCount:
    def test_zero_vector_counts_everything(self):
        n = joint_return_count(
            OneScalars(), doubling_shift(), ZERO, Ball(ZERO, Fraction(1), L1), 2, 1, 10
        )
        assert n == 11

    def test_boundary_start_excluded(self):
        op = BackwardShift(UnitWeights(), L1)
        n = joint_return_count(
            DyadicSqrtScalars(), op, e(0), Ball(ZERO, Fraction(1), L1), 1, 1, 10
        )
        assert n == 10  # a = 0 puts e0 on the boundary; every later a is dead

    def test_universal_vector_pattern(self):
        ytilde = universal_vector(DyadicSqrtScalars(), e(0), 2, 16)
        op = BackwardShift(UnitWeights(), L1)
        n = joint_return_count(
            DyadicSqrtScalars(), op, ytilde, Ball(e(0), Fraction(1, 2), L1), 0, 16, 40
        )
        assert n == 3  # hits at a = 0, 16, 32

    def test_walks_only_the_times_it_reads(self, monkeypatch):
        # a = 0 and 1 with q = 200 000 read times 0, 1, 200 000 and 200 001:
        # three jumps, not 200 001 iterates
        steps = []
        real_apply = spaces.apply

        def counting_apply(op, x, k=1):
            steps.append(k)
            return real_apply(op, x, k)

        monkeypatch.setattr(spaces, "apply", counting_apply)
        op = BackwardShift(UnitWeights(), L1_BI)
        n = joint_return_count(OneScalars(), op, e(0), Ball(e(0), Fraction(1, 2), L1_BI), 1, 200_000, 1)
        assert n == 0 and steps == [1, 199_999, 1]

    def test_count_matches_the_reference_orbit(self):
        rng = random.Random(515)
        for _ in range(30):
            op = rng.choice([doubling_shift(), BackwardShift(UnitWeights(), L1_BI)])
            scalars = rng.choice([OneScalars(), DyadicSqrtScalars()])
            x = FiniteVector({rng.randint(0, 12): Fraction(rng.randint(1, 9), rng.randint(1, 4))
                              for _ in range(rng.randint(0, 3))})
            ball = Ball(ZERO, Fraction(rng.randint(1, 8), 4), spaces.operator_space(op))
            m, q, horizon = rng.randint(0, 3), rng.randint(1, 5), rng.randint(0, 10)
            want = sum(
                all(in_ball(reference_iterate(op, x, a + i * q).scale(scalars.value(a)), ball)
                    for i in range(m + 1))
                for a in range(horizon + 1)
            )
            assert joint_return_count(scalars, op, x, ball, m, q, horizon) == want

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            joint_return_count(OneScalars(), doubling_shift(), ZERO, Ball(ZERO, Fraction(1), L1), -1, 1, 5)
        with pytest.raises(InvalidArgumentError):
            joint_return_count(OneScalars(), doubling_shift(), ZERO, Ball(ZERO, Fraction(1), L1), 0, 0, 5)


# ---------------------------------------------------------------------------
# criterion/witness coherence and orbit transfer


class TestCoherence:
    @pytest.mark.parametrize(
        "weights,eps,q_max",
        [
            (W2, Fraction(1, 100), 100),
            (ValleyWeights(2), Fraction(1, 4), 300),
        ],
    )
    def test_certified_cells_admit_witnesses(self, weights, eps, q_max):
        # the depth-2 grid mixes certified cells (m <= 2, at q = 120) with
        # exhausted ones (m = 3 needs a third block that family lacks)
        grid = shift_ap_criterion(weights, eps, p_max=2, m_max=3, q_max=q_max)
        for (p, m), q0 in grid.items():
            if q0 is None or m < 1:
                continue
            a_p = weights.lift_factor(0, p)
            # candidate at the certified step keeps every partial sum small
            x = multirec_candidate(weights, e(p), q0, m)
            for i in range(m + 1):
                gap = norm_key(apply(BackwardShift(weights, L1), x, i * q0) - e(p), 1)
                assert gap <= m * eps / a_p
            # and the witness search succeeds within the same step budget
            radius = 2 * m * eps / a_p
            w = multirec_witness(weights, Ball(e(p), radius, L1), m, q_max)
            assert w is not None and w.q <= q0

    def test_transfer_along_a_lift(self):
        # a witness for U transfers to arithmetic return times of a pre-image
        U = Ball(e(0), Fraction(1, 4), L1)
        w = multirec_witness(W2, U, m=2, q_max=100)
        x_pre = lift_vector(W2, w.x, 5)
        times = [5 + j * w.q for j in range(w.m + 1)]
        assert times == [5, 8, 11]
        assert all(verify_return_times(doubling_shift(), x_pre, U, times))

    def test_transfer_survives_small_perturbation(self):
        # margin/||T||^t controls how much the pre-image may be nudged
        U = Ball(e(0), Fraction(1, 4), L1)
        w = multirec_witness(W2, U, m=2, q_max=100)
        x_pre = lift_vector(W2, w.x, 5)
        margin = Fraction(1, 4) - max(w.distances)  # 7/64
        top_time = 5 + w.m * w.q
        delta = margin / (2 * Fraction(2) ** top_time)
        nudged = x_pre + e(9, delta)
        times = [5 + j * w.q for j in range(w.m + 1)]
        assert all(verify_return_times(doubling_shift(), nudged, U, times))

    def test_rotation_keeps_even_multiples(self):
        # (-T)^(2jq) = T^(2jq): the sign cancels on even multiples of q
        U = Ball(e(0), Fraction(1, 4), L1)
        w = multirec_witness(W2, U, m=2, q_max=100)
        rotated = Scaled(Fraction(-1), doubling_shift())
        assert all(verify_return_times(rotated, w.x, U, [0, 2 * w.q]))

    def test_square_power_halves_the_step(self):
        # (T^2)^(jq) = T^(2jq): the same witness returns at step q for T^2
        U = Ball(e(0), Fraction(1, 4), L1)
        w = multirec_witness(W2, U, m=2, q_max=100)
        squared = Power(2, doubling_shift())
        assert all(verify_return_times(squared, w.x, U, [0, w.q]))


# ---------------------------------------------------------------------------
# differential checks: the searches against their step-by-step forms
#
# The oracles below are the searches as they were before they decided
# candidates by linearity: every step's candidate is built and walked from x,
# and a multirec winner is re-verified on a second walk.  The searches must
# return the same witnesses, grids and errors on generated configs.


def oracle_multirec(weights, ball, m, q_max):
    y = ball.center
    top = y.max_support()
    start = 1 if top is None else max(1, top + 1)
    op = BackwardShift(weights, ball.space)
    for q in range(start, q_max + 1):
        x = multirec_candidate(weights, y, q, m)
        times = [j * q for j in range(m + 1)]
        hits = []
        for v in walk(op, x, times):
            if not in_ball(v, ball):
                break
            hits.append(v)
        else:
            checks = verify_return_times(op, x, ball, times)
            gaps = tuple(norm_key(v - ball.center, ball.space.p) for v in hits)
            return q, x, checks, gaps
    return None


def oracle_pair(weights, U, V1, V2, m, a_max, q_max):
    op = BackwardShift(weights, U.space)

    def returns(x, ball, times):
        return all(in_ball(v, ball) for v in walk(op, x, times))

    y_u = U.center
    a_top = y_u.max_support()
    a_start = 1 if a_top is None else max(1, a_top + 1)
    tops = [c.max_support() for c in (V1.center, V2.center) if c.max_support() is not None]
    q_start = max(1, max(tops) + 1) if tops else 1
    for q in range(q_start, q_max + 1):
        z1 = multirec_candidate(weights, V1.center, q, m)
        z2 = multirec_candidate(weights, V2.center, q, m)
        for a in range(a_start, a_max + 1):
            x1 = y_u + lift_vector(weights, z1, a)
            x2 = y_u + lift_vector(weights, z2, a)
            times = [a + j * q for j in range(m + 1)]
            if (
                in_ball(x1, U)
                and in_ball(x2, U)
                and returns(x1, V1, times)
                and returns(x2, V2, times)
            ):
                return x1, x2, a, q, m
    return None


def oracle_criterion(weights, epsilon, p_max, m_max, q_max):
    sizes = {}

    def small(n):
        if n not in sizes:
            sizes[n] = weights.lift_factor(0, n)
        return sizes[n] <= epsilon

    grid = {}
    for p in range(p_max + 1):
        for m in range(1, m_max + 1):
            grid[(p, m)] = next(
                (
                    q
                    for q in range(1, q_max + 1)
                    if all(small(j * q + off) for j in range(1, m + 1) for off in range(p + 1))
                ),
                None,
            )
    return grid


def outcome(search, *args):
    """The search's result, or the type and message of the error it raised."""
    try:
        return search(*args)
    except WorkbenchError as exc:
        return type(exc), str(exc)


CONSTANTS = [Fraction(2), Fraction(3, 2), Fraction(5, 4), Fraction(4, 3), Fraction(1, 2)]


def random_weights(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return ConstantWeights(rng.choice(CONSTANTS))
    if kind == 1:
        return ValleyWeights(rng.randint(1, 3))
    # short lists run out inside the search and raise
    values = [rng.choice([Fraction(1, 2), 1, 2, 3, Fraction(3, 2)]) for _ in range(rng.randint(2, 40))]
    return ExplicitWeights(tuple(values))


def random_center(rng, laterality, spread):
    lo = -spread if laterality == BILATERAL else 0
    return FiniteVector(
        {
            rng.randint(lo, spread): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
            for _ in range(rng.randint(0, 3))
        }
    )


def random_radius(rng, weights, y, p, m, q_max):
    """A radius near a candidate's gap at time 0, on it, or drawn at random.

    A gap on the radius is a strict miss; one a part in 10^12 inside it is a
    hit in exact mode and a miss in float mode, where the slack shrinks the
    radius it is decided against.
    """
    pick = rng.randrange(4)
    start = 1 if y.is_zero else max(1, y.max_support() + 1)
    q = rng.randint(start, max(q_max, start))
    try:
        gap = norm_key(multirec_candidate(weights, y, q, m) - y, p)
    except WorkbenchError:
        gap = 0
    # norm_key is the squared gap when p = 2, which is no radius
    if pick < 2 and gap > 0 and p != 2:
        return gap if pick == 0 else gap * (1 + Fraction(1, 10**12))
    return Fraction(rng.randint(1, 40), rng.randint(1, 16))


class TestAgainstStepByStep:
    def test_multirec(self, monkeypatch):
        late_misses = []
        real_gaps = recurrence._return_gaps

        def spy(op, x, ball, times):
            gaps = real_gaps(op, x, ball, times)
            if gaps is None and in_ball(x, ball):
                late_misses.append(times)
            return gaps

        monkeypatch.setattr(recurrence, "_return_gaps", spy)
        rng = random.Random(1404)
        fallbacks = errors = found = 0
        for _ in range(400):
            weights = random_weights(rng)
            laterality = rng.choice([UNILATERAL, BILATERAL])
            p = rng.choice([1, 2, INF])
            space = SpaceSpec(p, laterality)
            m = rng.randint(0, 3)
            mode = rng.choice(["exact", "float"])
            q_max = rng.choice([8, 30, 130]) if isinstance(weights, ValleyWeights) else rng.randint(1, 30)
            y = random_center(rng, laterality, 6)
            ball = Ball(y, random_radius(rng, weights, y, p, m, q_max), space, slack(mode))
            want = outcome(oracle_multirec, weights, ball, m, q_max)
            got = outcome(multirec_witness, weights, ball, m, q_max)
            if isinstance(got, tuple):
                errors += 1
                assert got == want
                continue
            if got is None:
                assert want is None
            else:
                found += 1
                assert (got.q, got.x, got.verified_memberships, got.distances) == want
                assert got.m == m and got.verified
            top = y.max_support()
            start = 1 if top is None else max(1, top + 1)
            span = 0 if top is None else top - y.min_support()
            last = q_max if got is None else got.q
            fallbacks += start <= min(span, last)
        # every path ran: the overlapping-layers fallback, a walk that misses
        # after passing at time 0, a raised weight-range error, witnesses
        assert fallbacks and late_misses and errors and found

    def test_overlapping_layers(self):
        # span 1 >= q = 1: the layers of y = 2e_-3 - e_-2 overlap and partly
        # cancel (||x - y||_1 = 5), so the layer-by-layer sum (3 a layer, 9 >
        # 22/3) would reject the step that the built candidate passes
        space = SpaceSpec(1, BILATERAL)
        ball = Ball(e(-3, 2) - e(-2), Fraction(22, 3), space)
        w = multirec_witness(UnitWeights(), ball, 3, 6)
        want = oracle_multirec(UnitWeights(), ball, 3, 6)
        assert w.q == 1 and (w.q, w.x, w.verified_memberships, w.distances) == want

    def test_bilateral_pair_keeps_every_a(self):
        # at q = 1 the inner lift sum z1 = e_-3 + 2e_-2 misses V1 = ball(e_-3,
        # 7/4), yet B^3 x1 = B^3 y_U + z1 = -2e_-2 + z1 is V1's center: on the
        # bilateral side the shifted U center stays, so a step cannot be
        # skipped from z1 alone
        space = SpaceSpec(1, BILATERAL)
        U = Ball(e(1, -16), 25, space)
        V1 = Ball(e(-3), Fraction(7, 4), space)
        V2 = Ball(ZERO, 3, space)
        args = (ConstantWeights(Fraction(1, 2)), U, V1, V2, 1, 6, 6)
        w = pair_recurrence_search(*args)
        assert (w.a, w.q) == (3, 1)
        assert (w.x1, w.x2, w.a, w.q, w.m) == oracle_pair(*args)

    def test_pair_search(self):
        rng = random.Random(2026)
        errors = found = 0
        for _ in range(250):
            weights = random_weights(rng)
            laterality = rng.choice([UNILATERAL, BILATERAL])
            p = rng.choice([1, 2, INF])
            space = SpaceSpec(p, laterality)
            m = rng.randint(0, 3)
            mode = rng.choice(["exact", "float"])
            balls = []
            for _ in range(3):
                y = random_center(rng, laterality, 3)
                balls.append(Ball(y, random_radius(rng, weights, y, p, m, 8), space, slack(mode)))
            a_max, q_max = rng.randint(1, 12), rng.randint(1, 12)
            want = outcome(oracle_pair, weights, *balls, m, a_max, q_max)
            got = outcome(pair_recurrence_search, weights, *balls, m, a_max, q_max)
            if isinstance(got, tuple):
                errors += 1
                assert got == want
            elif got is None:
                assert want is None
            else:
                found += 1
                assert (got.x1, got.x2, got.a, got.q, got.m) == want
        assert errors and found

    def test_criterion(self):
        rng = random.Random(77)
        errors = 0
        for _ in range(150):
            weights = random_weights(rng)
            eps = rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 100)])
            p_max, m_max = rng.randint(0, 3), rng.randint(1, 3)
            q_max = rng.choice([20, 150]) if isinstance(weights, ValleyWeights) else rng.randint(1, 40)
            want = outcome(oracle_criterion, weights, eps, p_max, m_max, q_max)
            got = outcome(shift_ap_criterion, weights, eps, p_max, m_max, q_max)
            if isinstance(got, tuple):
                errors += 1
                assert got == want
            else:
                assert got == want
        assert errors
