"""JSON wire formats: tagged objects in, rationals and vectors out.

Rationals travel as "num/den" strings (plain integers are accepted on
input), never as floats — a float in a config is always a schema error.
Vectors are lists of [index, numerator, denominator] triples, with the
"e<N>" shorthand accepted anywhere a vector is expected.  Every parser
threads a JSON-path string so schema errors point at the exact field.
Reports echo their configs verbatim, so `format_fraction` and
`vector_to_json` are the only converters of program values to report values,
and `write_json` writes a whole report as text.
"""

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import BudgetExceededError, SchemaError
from .spaces import (
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
    Operator,
    Power,
    ScalarSeq,
    Scaled,
    SpaceSpec,
    UnitWeights,
    ValleyWeights,
    WeightSpec,
)

_BASIS_RE = re.compile(r"^e(-?\d+)$")


def _too_many_digits() -> BudgetExceededError:
    # str(int) refuses integers past sys.get_int_max_str_digits()
    return BudgetExceededError(
        "a rational in the report has more digits than Python will convert "
        f"to text ({sys.get_int_max_str_digits()}); lower the horizon or step bounds"
    )


def format_fraction(value: Fraction) -> str:
    f = Fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        raise _too_many_digits() from None


def write_json(value) -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, byte for byte.

    Takes what reports hold: dicts with str keys, lists, tuples, str, int,
    float, bool and None; anything else is a TypeError.  An integer past
    Python's digit limit for text is a BudgetExceededError.
    """
    try:
        return _write(value, "\n")
    except ValueError:
        raise _too_many_digits() from None


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value, nl):
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = nl + "  "
    sep = "," + inner
    if kind is dict:
        body = sep.join([f"{_quote(k)}: {_write(v, inner)}" for k, v in sorted(value.items())])
        return f"{{{inner}{body}{nl}}}"
    kinds = set(map(type, value))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, value))
    elif kinds == {list} and all(
        len(r) == 3 and type(r[0]) is type(r[1]) is type(r[2]) is int for r in value
    ):
        # every vector_to_json output: one template per [index, num, den] row
        more = inner + "  "
        row = "[" + more + "%d," + more + "%d," + more + "%d" + inner + "]"
        body = sep.join([row % tuple(r) for r in value])
    else:
        body = sep.join([_write(v, inner) for v in value])
    return f"[{inner}{body}{nl}]"


def parse_fraction(obj, path: str = "$") -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        raise SchemaError(path, "floats are not accepted; write \"num/den\"")
    if isinstance(obj, str):
        try:
            return Fraction(obj.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(path, f"not a rational: {obj!r} ({exc})") from None
    raise SchemaError(path, f"expected a rational, got {type(obj).__name__}")


def _expect_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(path, f"expected an integer, got {obj!r}")
    return obj


def _expect_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _kind_of(obj, path: str, allowed) -> str:
    body = _expect_object(obj, path)
    kind = body.get("kind")
    if kind not in allowed:
        raise SchemaError(
            f"{path}.kind", f"expected one of {sorted(allowed)}, got {kind!r}"
        )
    return kind


# ---------------------------------------------------------------------------
# Vectors


def vector_to_json(v: FiniteVector) -> list:
    return [list(t) for t in v.triples()]


def parse_vector(obj, path: str = "$") -> FiniteVector:
    if isinstance(obj, str):
        m = _BASIS_RE.match(obj.strip())
        if not m:
            raise SchemaError(path, f"not a basis-vector shorthand: {obj!r}")
        return FiniteVector.basis(int(m.group(1)))
    if not isinstance(obj, list):
        raise SchemaError(path, "expected a list of [index, num, den] triples")
    entries = []
    for i, triple in enumerate(obj):
        here = f"{path}[{i}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise SchemaError(here, f"expected [index, num, den], got {triple!r}")
        idx = _expect_int(triple[0], f"{here}[0]")
        num = _expect_int(triple[1], f"{here}[1]")
        den = _expect_int(triple[2], f"{here}[2]")
        if den == 0:
            raise SchemaError(f"{here}[2]", "zero denominator")
        entries.append((idx, Fraction(num, den)))
    return FiniteVector(entries)


# ---------------------------------------------------------------------------
# Weights


def parse_weights(obj, path: str = "$") -> WeightSpec:
    kind = _kind_of(obj, path, {"constant", "unit", "explicit", "valley"})
    if kind == "constant":
        return ConstantWeights(parse_fraction(obj.get("value"), f"{path}.value"))
    if kind == "unit":
        return UnitWeights()
    if kind == "explicit":
        values = obj.get("values")
        if not isinstance(values, list) or not values:
            raise SchemaError(f"{path}.values", "expected a non-empty list")
        return ExplicitWeights(
            tuple(
                parse_fraction(v, f"{path}.values[{i}]") for i, v in enumerate(values)
            )
        )
    depth = _expect_int(obj.get("depth"), f"{path}.depth")
    if depth < 1:
        raise SchemaError(f"{path}.depth", "depth must be >= 1")
    return ValleyWeights(depth)


# ---------------------------------------------------------------------------
# Spaces and balls


def parse_p(obj, path: str):
    if obj == "inf":
        return INF
    if isinstance(obj, bool) or obj not in (1, 2):
        raise SchemaError(path, f"p must be 1, 2, or \"inf\", got {obj!r}")
    return obj


def parse_laterality(obj, path: str) -> str:
    if obj not in (UNILATERAL, BILATERAL):
        raise SchemaError(
            path, f"laterality must be \"unilateral\" or \"bilateral\", got {obj!r}"
        )
    return obj


def parse_ball(obj, laterality: str, path: str = "$") -> Ball:
    body = _expect_object(obj, path)
    if "center" not in body or "radius" not in body:
        raise SchemaError(path, "ball needs center and radius")
    center = parse_vector(body["center"], f"{path}.center")
    radius = parse_fraction(body["radius"], f"{path}.radius")
    if radius <= 0:
        raise SchemaError(f"{path}.radius", "radius must be positive")
    p = parse_p(body.get("p", 1), f"{path}.p")
    try:
        return Ball(center, radius, SpaceSpec(p, laterality))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# Operators


def parse_operator(obj, path: str = "$") -> Operator:
    kind = _kind_of(obj, path, {"backward", "forward", "scaled", "power", "direct-sum"})
    if kind in ("backward", "forward"):
        weights = parse_weights(obj.get("weights", {"kind": "unit"}), f"{path}.weights")
        p = parse_p(obj.get("p", 1), f"{path}.p")
        lat = parse_laterality(obj.get("laterality", UNILATERAL), f"{path}.laterality")
        space = SpaceSpec(p, lat)
        return BackwardShift(weights, space) if kind == "backward" else ForwardShift(
            weights, space
        )
    if kind == "scaled":
        scalar = parse_fraction(obj.get("scalar"), f"{path}.scalar")
        if scalar == 0:
            raise SchemaError(f"{path}.scalar", "scalar must be nonzero")
        return Scaled(scalar, parse_operator(obj.get("inner"), f"{path}.inner"))
    if kind == "power":
        exponent = _expect_int(obj.get("exponent"), f"{path}.exponent")
        if exponent < 1:
            raise SchemaError(f"{path}.exponent", "exponent must be >= 1")
        return Power(exponent, parse_operator(obj.get("inner"), f"{path}.inner"))
    parts = obj.get("parts")
    if not isinstance(parts, list) or not parts:
        raise SchemaError(f"{path}.parts", "expected a non-empty list of operators")
    parsed = tuple(parse_operator(p, f"{path}.parts[{i}]") for i, p in enumerate(parts))
    try:
        return DirectSum(parsed)
    except ValueError as exc:
        raise SchemaError(f"{path}.parts", str(exc)) from None


# ---------------------------------------------------------------------------
# Scalar sequences


def parse_scalars(obj, path: str = "$") -> ScalarSeq:
    if isinstance(obj, str):
        obj = {"kind": obj}
    kind = _kind_of(obj, path, {"one", "dyadic-sqrt", "exp-sqrt", "explicit"})
    if kind == "one":
        return OneScalars()
    if kind == "dyadic-sqrt":
        return DyadicSqrtScalars()
    if kind == "exp-sqrt":
        return ExpSqrtScalars()
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise SchemaError(f"{path}.values", "expected a non-empty list")
    parsed = tuple(
        parse_fraction(v, f"{path}.values[{i}]") for i, v in enumerate(values)
    )
    if any(v == 0 for v in parsed):
        raise SchemaError(f"{path}.values", "scalars must be nonzero")
    return ExplicitScalars(parsed)

