"""Wire-format tests: literals parse to their objects, bad input is a schema error.

Reports echo their configs verbatim, so the parsers define the wire format
of weights, balls, operators and scalars; only rationals and vectors are
ever converted, by `format_fraction` and `vector_to_json`, and `write_json`
writes the text of a whole report.  Each `test_round_trip` case takes a
literal as a report echoes it to the object it stands for.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from test_reports import CASES

from aporbit import cli
from aporbit.errors import BudgetExceededError, SchemaError
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
    write_json,
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


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# text that ensure_ascii escapes: non-ASCII, astral, quotes, backslashes, controls, a lone surrogate
CHARS = "az09 é☃😀\"\\/\n\t\x00\x1f\x7f\u2028\ud800"
FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1.5, 0.1, 1e16, 2.0**-1074)


def random_leaf(rng):
    pick = rng.randrange(7)
    if pick == 0:
        if rng.random() < 0.5:
            return rng.choice(FLOATS)
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 300)
    if pick == 1:
        return rng.randint(-(10**45), 10**45) if rng.random() < 0.5 else rng.randint(-3, 3)
    if pick == 2:
        return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))
    return (None, True, False, [[]])[pick - 3]


def random_ints(rng, n):
    return [rng.choice((0, -7, 10**41, rng.randint(-(10**20), 10**20))) for _ in range(n)]


def random_value(rng, depth):
    """A nested value of the types reports hold, with the fast paths' near misses."""
    pick = rng.randrange(9) if depth else 0
    if pick < 2:
        return random_leaf(rng)
    n = rng.randint(0, 4)
    if pick == 2:
        keys = ("".join(rng.choice(CHARS) for _ in range(rng.randint(0, 3))) for _ in range(n))
        return {key: random_value(rng, depth - 1) for key in keys}
    if pick == 3:
        return [random_value(rng, depth - 1) for _ in range(n)]
    if pick == 4:
        return tuple(random_value(rng, depth - 1) for _ in range(n))
    if pick == 5:
        return {} if rng.random() < 0.5 else {"": [], "a": {}, "b": [{}, [[]]]}
    # int lists and [index, num, den] rows, some with one True or float in them
    rows = pick == 6 or (pick == 8 and rng.random() < 0.5)
    value = [random_ints(rng, 3) for _ in range(n + 1)] if rows else random_ints(rng, n + 1)
    if pick == 8:
        spoiler = rng.choice((True, False, 1.0, -0.0))
        target = rng.choice(value) if rows else value
        target[rng.randrange(len(target))] = spoiler
    return tuple(value) if rng.random() < 0.1 else value


class TestWriteJson:
    """`write_json` is `json.dumps(..., indent=2, sort_keys=True)`, byte for byte."""

    def test_random_nested_values(self):
        rng = random.Random(20211)
        for _ in range(1500):
            value = random_value(rng, 4)
            assert write_json(value) == dumps(value), value

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), [[]], {"b": 1, "a": [True, 1]}, [[0, True, 1]], [[0, 1.0, 1]], [1, 2.5],
         [[1, 2], [3, 4, 5]], {"z": None, "é": "\u00e9"}, [math.nan, math.inf, -math.inf]],
    )
    def test_fast_path_near_misses(self, value):
        assert write_json(value) == dumps(value)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_pinned_report(self, monkeypatch, capsys, name):
        reports = []
        emit = cli._emit

        def spy(report, *rest):
            reports.append(report)
            return emit(report, *rest)

        monkeypatch.setattr(cli, "_emit", spy)
        cli.main(CASES[name][0])
        capsys.readouterr()
        assert len(reports) == 1
        assert write_json(reports[0]) == dumps(reports[0])

    @pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), {("a",): 1}, [object()]])
    def test_what_json_refuses_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            dumps(value)
        with pytest.raises(TypeError):
            write_json(value)

    def test_keys_must_be_text(self):
        # json.dumps would write the key 1 as "1"; no report has a key that is not text
        with pytest.raises(TypeError):
            write_json({1: "a"})

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize(
        "value",
        [10**5000, [10**5000], [[0, 10**5000, 1]], {"x": [-(10**5000)]}],
        ids=["int", "int-list", "row", "nested"],
    )
    def test_past_the_digit_limit_is_the_budget_error_of_format_fraction(self, value):
        with pytest.raises(BudgetExceededError) as exc:
            format_fraction(Fraction(10**5000, 3))
        with pytest.raises(BudgetExceededError) as written:
            write_json(value)
        assert str(written.value) == str(exc.value)


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
