"""Wire-format tests: literals parse to their objects, bad input is a schema error.

Reports echo their configs verbatim, so the parsers define the wire format
of weights, balls, operators and scalars; only rationals and vectors are
ever written, by `format_fraction` and `vector_to_json`.  Each
`test_round_trip` case takes a literal as a report echoes it to the object
it stands for.
"""

import random
from fractions import Fraction

import pytest

from aporbit.errors import SchemaError
from aporbit.serialize import (
    format_fraction,
    parse_ball,
    parse_fraction,
    parse_laterality,
    parse_operator,
    parse_p,
    parse_scalars,
    parse_vector,
    parse_weights,
    vector_to_json,
)
from aporbit.spaces import (
    BILATERAL,
    INF,
    UNILATERAL,
    BackwardShift,
    Ball,
    ConstantWeights,
    DirectSum,
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
)

e = FiniteVector.basis


class TestFractions:
    def test_round_trip(self):
        for f in (Fraction(0), Fraction(-3, 7), Fraction(22, 4)):
            assert parse_fraction(format_fraction(f)) == f

    def test_integers_accepted(self):
        assert parse_fraction(5) == 5
        assert parse_fraction(-2) == -2

    def test_floats_rejected_with_guidance(self):
        with pytest.raises(SchemaError) as exc:
            parse_fraction(0.5, "$.radius")
        assert "num/den" in str(exc.value)
        assert "$.radius" in str(exc.value)

    def test_bools_rejected(self):
        with pytest.raises(SchemaError):
            parse_fraction(True)

    def test_garbage_strings_rejected(self):
        with pytest.raises(SchemaError):
            parse_fraction("1/2/3")


class TestVectors:
    def test_triple_round_trip(self):
        v = e(0) + e(12, Fraction(-5, 3))
        assert parse_vector(vector_to_json(v)) == v

    def test_basis_shorthand(self):
        assert parse_vector("e3") == e(3)
        assert parse_vector("e-12") == e(-12)

    def test_zero_vector(self):
        assert parse_vector([]) == FiniteVector()
        assert vector_to_json(FiniteVector()) == []

    def test_zero_denominator_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_vector([[0, 1, 0]], "$.x")
        assert "$.x" in str(exc.value)

    def test_malformed_shorthand_rejected(self):
        with pytest.raises(SchemaError):
            parse_vector("f3")

    def test_random_round_trips(self):
        rng = random.Random(123)
        for _ in range(30):
            entries = {
                rng.randint(-8, 20): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                for _ in range(rng.randint(0, 5))
            }
            v = FiniteVector(entries)
            assert parse_vector(vector_to_json(v)) == v


class TestWeights:
    @pytest.mark.parametrize(
        "w",
        [
            ({"kind": "unit"}, UnitWeights()),
            ({"kind": "constant", "value": "5/2"}, ConstantWeights(Fraction(5, 2))),
            (
                {"kind": "explicit", "values": ["1/1", 2, "1/2"]},
                ExplicitWeights((Fraction(1), Fraction(2), Fraction(1, 2))),
            ),
            ({"kind": "valley", "depth": 3}, ValleyWeights(3)),
        ],
    )
    def test_round_trip(self, w):
        wire, expected = w
        assert parse_weights(wire) == expected

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as exc:
            parse_weights({"kind": "gaussian"}, "$.weights")
        assert "$.weights" in str(exc.value)

    def test_explicit_requires_values(self):
        with pytest.raises(SchemaError):
            parse_weights({"kind": "explicit", "values": []})

    def test_valley_depth_positive(self):
        with pytest.raises(SchemaError):
            parse_weights({"kind": "valley", "depth": 0})


class TestSpaceAtoms:
    def test_p_values(self):
        assert parse_p(1, "$") == 1
        assert parse_p(2, "$") == 2
        assert parse_p("inf", "$") == INF
        with pytest.raises(SchemaError):
            parse_p(3, "$.p")

    def test_laterality(self):
        assert parse_laterality("unilateral", "$") == UNILATERAL
        assert parse_laterality("bilateral", "$") == BILATERAL
        with pytest.raises(SchemaError):
            parse_laterality("sideways", "$")


class TestBalls:
    def test_round_trip(self):
        wire = {"center": [[0, 1, 1], [3, 1, 2]], "radius": "2/7", "p": 2}
        ball = Ball(e(0) + e(3, Fraction(1, 2)), Fraction(2, 7), SpaceSpec(2, UNILATERAL))
        assert parse_ball(wire, UNILATERAL) == ball

    def test_p_inf(self):
        wire = {"center": "e-2", "radius": "1/3", "p": "inf"}
        ball = Ball(e(-2), Fraction(1, 3), SpaceSpec(INF, BILATERAL))
        assert parse_ball(wire, BILATERAL) == ball

    def test_p_defaults_to_one(self):
        parsed = parse_ball({"center": "e0", "radius": "1/2"}, UNILATERAL)
        assert parsed.space.p == 1

    def test_radius_must_be_positive(self):
        with pytest.raises(SchemaError) as exc:
            parse_ball({"center": "e0", "radius": "0"}, UNILATERAL, "$.ball")
        assert "$.ball.radius" in str(exc.value)

    def test_missing_center(self):
        with pytest.raises(SchemaError):
            parse_ball({"radius": "1/2"}, UNILATERAL)


class TestOperators:
    @pytest.mark.parametrize(
        "op",
        [
            (
                {"kind": "backward", "weights": {"kind": "constant", "value": "2/1"}},
                BackwardShift(ConstantWeights(Fraction(2)), SpaceSpec(1, UNILATERAL)),
            ),
            (
                {"kind": "forward", "p": 2, "laterality": "bilateral"},
                ForwardShift(UnitWeights(), SpaceSpec(2, BILATERAL)),
            ),
            (
                {"kind": "scaled", "scalar": "-1", "inner": {"kind": "backward"}},
                Scaled(Fraction(-1), BackwardShift(UnitWeights(), SpaceSpec(1, UNILATERAL))),
            ),
            (
                {
                    "kind": "power",
                    "exponent": 3,
                    "inner": {"kind": "backward", "weights": {"kind": "valley", "depth": 2}},
                },
                Power(3, BackwardShift(ValleyWeights(2), SpaceSpec(1, UNILATERAL))),
            ),
            (
                {
                    "kind": "direct-sum",
                    "parts": [
                        {"kind": "backward", "p": "inf"},
                        {"kind": "backward", "weights": {"kind": "constant", "value": 2},
                         "p": "inf", "laterality": "unilateral"},
                    ],
                },
                DirectSum(
                    (
                        BackwardShift(UnitWeights(), SpaceSpec(INF, UNILATERAL)),
                        BackwardShift(ConstantWeights(Fraction(2)), SpaceSpec(INF, UNILATERAL)),
                    )
                ),
            ),
        ],
    )
    def test_round_trip(self, op):
        wire, expected = op
        assert parse_operator(wire) == expected

    def test_defaults(self):
        op = parse_operator({"kind": "backward"})
        assert op == BackwardShift(UnitWeights(), SpaceSpec(1, UNILATERAL))

    def test_scalar_zero_rejected(self):
        with pytest.raises(SchemaError):
            parse_operator({"kind": "scaled", "scalar": "0", "inner": {"kind": "backward"}})

    def test_power_exponent_floor(self):
        with pytest.raises(SchemaError):
            parse_operator({"kind": "power", "exponent": 0, "inner": {"kind": "backward"}})

    def test_direct_sum_needs_parts(self):
        with pytest.raises(SchemaError):
            parse_operator({"kind": "direct-sum", "parts": []})

    def test_nested_error_paths(self):
        with pytest.raises(SchemaError) as exc:
            parse_operator(
                {"kind": "power", "exponent": 2, "inner": {"kind": "warp"}},
                "$.operator",
            )
        assert "$.operator.inner" in str(exc.value)


class TestScalars:
    @pytest.mark.parametrize(
        "s",
        [
            ({"kind": "one"}, OneScalars()),
            ({"kind": "dyadic-sqrt"}, DyadicSqrtScalars()),
            ({"kind": "exp-sqrt"}, ExpSqrtScalars()),
            (
                {"kind": "explicit", "values": ["2/1", "1/3"]},
                ExplicitScalars((Fraction(2), Fraction(1, 3))),
            ),
        ],
    )
    def test_round_trip(self, s):
        wire, expected = s
        assert parse_scalars(wire) == expected

    def test_bare_string_shorthand(self):
        assert parse_scalars("dyadic-sqrt") == DyadicSqrtScalars()
        assert parse_scalars("one") == OneScalars()

    def test_zero_value_rejected(self):
        with pytest.raises(SchemaError):
            parse_scalars({"kind": "explicit", "values": ["0"]})
