"""Command-line front end: config in, JSON/CSV report out.

Exit-code discipline (`main`, `_report_error`): 0 only for a report whose
`verified` is true, 1 for an exhausted (inconclusive) search or a result
that failed re-verification, 2 for invalid input, which includes a usage
error and a float past the range of a double, and 3 for an internal error
(any other exception, whose traceback goes to stderr).  Reports echo the
effective config verbatim so that re-running with `--config` on that echo
reproduces the report byte-for-byte in exact mode.

One convention boundary lives here and only here: the core recurrence
operations count a pattern by its extra returns m (a witness visits the
target m+1 times), while set-side code counts terms.  Configs may give
either `m` or `length` (= m + 1); both are translated at parse time.  So
does the exact/float choice: in float mode the runners wrap scalars in
`DoubleScalars` and give every ball `FLOAT_SLACK`; the library takes no mode.
"""

import argparse
import copy
import csv
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    DomainError,
    InvalidArgumentError,
    ModeMismatchError,
    MonotonicityError,
    PreconditionError,
    SchemaError,
    StageFailureError,
)
from .families import (
    HitSet,
    density_report,
    longest_ap,
    szemeredi_r,
    vdw_check,
    coloring_avoids_progressions,
    verify_witness,
)
from .gowers import gowers_table
from .recurrence import (
    joint_return_count,
    multirec_witness,
    nested_ball_refinement,
    pair_recurrence_search,
    return_set,
    shift_ap_criterion,
    universal_vector,
    verify_universal,
)
from .serialize import (
    format_fraction,
    parse_ball,
    parse_fraction,
    parse_operator,
    parse_p,
    parse_scalars,
    parse_vector,
    parse_weights,
    vector_to_json,
)
from .spaces import (
    UNILATERAL,
    Ball,
    DoubleScalars,
    OneScalars,
    SpaceSpec,
    operator_space,
    walk,
)

OK = 0
EXHAUSTED = 1
INVALID = 2
INTERNAL = 3
BROKEN_PIPE = 141  # what shells report for a process killed by SIGPIPE (128 + 13)

#: the slack of every ball in float mode: memberships are decided against
#: radius*(1 - FLOAT_SLACK), so a verdict on double-rounded scalars stays on
#: the conservative side of the exact boundary.
FLOAT_SLACK = Fraction(1, 10**9)

_INCONCLUSIVE_NOTE = (
    "search exhausted its bounds without a witness; "
    "this is inconclusive, not a refutation"
)


# What a runner hands back: the payload dict and its CSV projection.
RunResult = namedtuple("RunResult", "payload csv_header csv_rows")


# ---------------------------------------------------------------------------
# Config plumbing


def _expect_int(config, key, path="$", minimum=None):
    if key not in config:
        raise SchemaError(f"{path}.{key}", "missing required integer")
    v = config[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise SchemaError(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v


def _bound(config, key, default, bounds, minimum=1):
    """Read a search bound, recording where it came from."""
    if key in config:
        value = _expect_int(config, key, minimum=minimum)
        bounds[key] = {"value": value, "provenance": "config"}
    else:
        value = default
        bounds[key] = {"value": value, "provenance": "default"}
    return value


def _resolve_m(config, path="$", default=None):
    """Translate the m/length convention; the only place that does."""
    has_m = "m" in config
    has_length = "length" in config
    if has_m and has_length:
        raise SchemaError(path, "give either m or length, not both")
    if has_length:
        return _expect_int(config, "length", path, minimum=1) - 1
    if has_m:
        return _expect_int(config, "m", path, minimum=0)
    if default is not None:
        return default
    raise SchemaError(path, "missing m (extra returns) or length (term count)")


def _parse_space(config, path="$"):
    return SpaceSpec(parse_p(config.get("p", 1), f"{path}.p"), UNILATERAL)


def _parse_set_values(config, path="$"):
    if "set" not in config:
        raise SchemaError(f"{path}.set", "missing integer set")
    values = config["set"]
    if not isinstance(values, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in values
    ):
        raise SchemaError(f"{path}.set", "expected a list of integers")
    if any(v < 0 for v in values):
        raise SchemaError(f"{path}.set", "set elements must be non-negative")
    return values


def _fr(value, mode):
    """Exact rationals stay exact on the wire; float mode reports floats."""
    return float(value) if mode == "float" else format_fraction(value)


def _settled(csv_header, csv_rows, verdict="value", verified=True, **fields):
    """The report of a settled result: exit 0 only when it is verified, else 1."""
    payload = {"verdict": verdict, "verified": verified, "conclusive": True, **fields}
    return RunResult(payload, csv_header, csv_rows)


def _exhausted(bounds, header, rows=(), **fields):
    """The report of a search that ran out of bounds: exit 1, inconclusive."""
    payload = {
        "verdict": "exhausted",
        "verified": False,
        "conclusive": False,
        "bounds": bounds,
        **fields,
        "note": _INCONCLUSIVE_NOTE,
    }
    return RunResult(payload, header, rows)


def _k(config):
    """The progression length k of the set-side runners; 3 when absent."""
    return _expect_int(config, "k", minimum=2) if "k" in config else 3


def _scalars(config, mode):
    """The config's scalars, as doubles in float mode; None (the plain iterates) for all ones."""
    if "scalars" not in config:
        return None
    scalars = parse_scalars(config["scalars"], "$.scalars")
    if isinstance(scalars, OneScalars):
        return None
    return DoubleScalars(scalars) if mode == "float" else scalars


def _ball(config, key, laterality, mode):
    """The ball at config[key]; in float mode it carries FLOAT_SLACK."""
    ball = parse_ball(config.get(key), laterality, f"$.{key}")
    return Ball(ball.center, ball.radius, ball.space, FLOAT_SLACK) if mode == "float" else ball


# ---------------------------------------------------------------------------
# Runners (shared by single runs and sweeps)


def run_analyze_set(config, mode):
    values = _parse_set_values(config)
    horizon = None
    if "horizon" in config:
        horizon = _expect_int(config, "horizon", minimum=0)
    hits = HitSet.from_iterable(values, horizon)
    bounds = {}
    window = _bound(config, "window", max(1, (hits.horizon + 1) // 10), bounds)
    if window > hits.horizon + 1:
        raise SchemaError("$.window", "window exceeds horizon+1")
    witness = longest_ap(hits)
    dens = density_report(hits, window)
    row = (
        ("", "", "")
        if witness is None
        else (witness.initial, witness.step, witness.length)
    )
    return _settled(
        ("initial", "step", "length"),
        [row],
        verified=witness is None or verify_witness(witness, hits),
        size=len(hits),
        horizon=hits.horizon,
        bounds=bounds,
        longest_ap=None
        if witness is None
        else {
            "initial": witness.initial,
            "step": witness.step,
            "length": witness.length,
        },
        density={
            "lower_proxy": format_fraction(dens.lower_proxy),
            "upper_proxy": format_fraction(dens.upper_proxy),
            "banach_upper_proxy": format_fraction(dens.banach_upper_proxy),
            "window": dens.window,
        },
    )


def run_orbit(config, mode):
    op = parse_operator(config.get("operator"), "$.operator")
    scalars = _scalars(config, mode)
    x = parse_vector(config.get("x"), "$.x")
    space = operator_space(op)
    if space.laterality == UNILATERAL and x.min_support() is not None and x.min_support() < 0:
        raise SchemaError("$.x", "negative support in a unilateral space")
    bounds = {}
    horizon = _bound(config, "horizon", 20, bounds, minimum=0)
    rows = []
    csv_rows = []
    times = range(horizon + 1)
    for n, v in zip(times, walk(op, x, times, scalars)):
        l1, l2sq, sup = v.l1(), v.l2_squared(), v.sup()
        rows.append(
            {
                "n": n,
                "vector": vector_to_json(v),
                "l1": _fr(l1, mode),
                "l2_squared": _fr(l2sq, mode),
                "sup": _fr(sup, mode),
            }
        )
        csv_rows.append((n, _fr(l1, mode), _fr(l2sq, mode), _fr(sup, mode)))
    return _settled(
        ("n", "l1", "l2_squared", "sup"), csv_rows, bounds=bounds, points=rows
    )


def run_return_set(config, mode):
    op = parse_operator(config.get("operator"), "$.operator")
    scalars = _scalars(config, mode)
    x = parse_vector(config.get("x"), "$.x")
    ball = _ball(config, "ball", operator_space(op).laterality, mode)
    bounds = {}
    horizon = _bound(config, "horizon", 50, bounds, minimum=0)
    hits = return_set(op, x, ball, horizon, scalars)
    return _settled(
        ("n",),
        [(n,) for n in hits.elements],
        bounds=bounds,
        hits=list(hits.elements),
        count=len(hits),
        horizon=hits.horizon,
    )


def run_shift_check(config, mode):
    weights = parse_weights(config.get("weights"), "$.weights")
    space = _parse_space(config)
    if "epsilon" not in config:
        raise SchemaError("$.epsilon", "missing required rational")
    epsilon = parse_fraction(config["epsilon"], "$.epsilon")
    if epsilon <= 0:
        raise SchemaError("$.epsilon", "epsilon must be positive")
    bounds = {}
    p_max = _bound(config, "p_max", 3, bounds, minimum=0)
    m_max = _bound(config, "m_max", 3, bounds, minimum=1)
    q_max = _bound(config, "q_max", 100, bounds, minimum=1)
    report = shift_ap_criterion(weights, space, epsilon, p_max, m_max, q_max)
    cells = [
        {"p": p, "m": m, "q": report.grid[(p, m)]}
        for p in range(p_max + 1)
        for m in range(1, m_max + 1)
    ]
    header = ("p", "m", "q")
    rows = [(c["p"], c["m"], "" if c["q"] is None else c["q"]) for c in cells]
    fields = {"epsilon": format_fraction(report.epsilon), "grid": cells}
    if not report.fully_populated:
        return _exhausted(bounds, header, rows, **fields)
    return _settled(header, rows, "witness", bounds=bounds, **fields)


def run_multirec(config, mode):
    weights = parse_weights(config.get("weights"), "$.weights")
    space = _parse_space(config)
    ball = _ball(config, "ball", space.laterality, mode)
    m = _resolve_m(config)
    bounds = {}
    q_max = _bound(config, "q_max", 100, bounds)
    witness = multirec_witness(weights, space, ball, m, q_max)
    if witness is None:
        return _exhausted(bounds, ("j", "time", "distance"), m=m)
    distances = [_fr(d, mode) for d in witness.distances]
    return _settled(
        ("j", "time", "distance"),
        [(j, j * witness.q, d) for j, d in enumerate(distances)],
        "witness",
        witness.verified,
        bounds=bounds,
        witness={
            "q": witness.q,
            "m": witness.m,
            "x": vector_to_json(witness.x),
            "memberships": list(witness.verified_memberships),
            "distances": distances,
        },
    )


def run_universal(config, mode):
    if "scalars" not in config:
        raise SchemaError("$.scalars", "missing scalar sequence")
    scalars = _scalars(config, mode) or OneScalars()
    y = parse_vector(config.get("y"), "$.y")
    m = _expect_int(config, "m", minimum=0)
    k = _expect_int(config, "k", minimum=1)
    space = _parse_space(config)
    ytilde = universal_vector(scalars, y, m, k)
    error = _fr(verify_universal(scalars, ytilde, y, m, k, space), mode)
    return _settled(
        ("m", "k", "error"),
        [(m, k, error)],
        "witness",
        m=m,
        k=k,
        ytilde=vector_to_json(ytilde),
        error=error,
    )


def run_gowers(config, mode):
    has_single = "l" in config
    has_range = "l_min" in config or "l_max" in config
    if has_single and has_range:
        raise SchemaError("$", "give either l or l_min/l_max, not both")
    if has_single:
        ls = [_expect_int(config, "l", minimum=4)]
    elif has_range:
        lo = _expect_int(config, "l_min", minimum=4)
        hi = _expect_int(config, "l_max", minimum=4)
        if hi < lo:
            raise SchemaError("$.l_max", "l_max must be >= l_min")
        ls = list(range(lo, hi + 1))
    else:
        raise SchemaError("$", "missing l (or l_min/l_max)")
    rows = gowers_table(ls)
    csv_rows = [
        (
            r.l,
            r.m_l,
            repr(r.f_at_m_l),
            "" if r.bound_r3 is None else repr(r.bound_r3),
            "" if r.k_of_n is None else r.k_of_n,
            r.vacuous,
        )
        for r in rows
    ]
    header = ("l", "m_l", "f_at_m_l", "bound_r3", "k_of_n", "vacuous_flag")
    return _settled(
        header,
        csv_rows,
        rows=[
            {
                "l": r.l,
                "m_l": r.m_l,
                "f_at_m_l": r.f_at_m_l,
                "bound_r3": r.bound_r3,
                "k_of_n": r.k_of_n,
                "vacuous_flag": r.vacuous,
            }
            for r in rows
        ],
    )


def run_szemeredi(config, mode):
    n = _expect_int(config, "n", minimum=1)
    k = _k(config)
    bounds = {}
    budget = _bound(config, "budget", 25, bounds)
    r = szemeredi_r(n, k, budget)
    return _settled(("n", "k", "r"), [(n, k, r)], bounds=bounds, n=n, k=k, r=r)


def run_vdw(config, mode):
    n = _expect_int(config, "n", minimum=1)
    k = _k(config)
    bounds = {}
    budget = _bound(config, "budget", 12, bounds)
    result = vdw_check(n, k, budget)
    return _settled(
        ("n", "k", "forced", "coloring"),
        [(n, k, result.forced, result.coloring or "")],
        verified=result.coloring is None
        or coloring_avoids_progressions(result.coloring, k),
        bounds=bounds,
        n=n,
        k=k,
        forced=result.forced,
        coloring=result.coloring,
    )


def run_pair_search(config, mode):
    weights = parse_weights(config.get("weights"), "$.weights")
    space = _parse_space(config)
    U = _ball(config, "u", space.laterality, mode)
    V1 = _ball(config, "v1", space.laterality, mode)
    V2 = _ball(config, "v2", space.laterality, mode)
    m = _resolve_m(config)
    bounds = {}
    a_max = _bound(config, "a_max", 50, bounds)
    q_max = _bound(config, "q_max", 50, bounds)
    witness = pair_recurrence_search(weights, space, U, V1, V2, m, a_max, q_max)
    if witness is None:
        return _exhausted(bounds, ("a", "q", "m"), m=m)
    return _settled(
        ("a", "q", "m"),
        [(witness.a, witness.q, witness.m)],
        "witness",
        bounds=bounds,
        witness={
            "a": witness.a,
            "q": witness.q,
            "m": witness.m,
            "x1": vector_to_json(witness.x1),
            "x2": vector_to_json(witness.x2),
        },
    )


def run_nested(config, mode):
    weights = parse_weights(config.get("weights"), "$.weights")
    space = _parse_space(config)
    ball = _ball(config, "ball", space.laterality, mode)
    stages = _expect_int(config, "stages", minimum=0)
    bounds = {}
    q_max = _bound(config, "q_max", 100, bounds)

    def stage_json(st, index):
        return {
            "stage": index,
            "center": vector_to_json(st.ball.center),
            "radius": format_fraction(st.ball.radius),
            "q": st.q,
        }

    try:
        refinement = nested_ball_refinement(weights, space, ball, stages, q_max)
    except StageFailureError as exc:
        return _exhausted(
            bounds,
            ("stage", "q", "radius"),
            failed_stage=exc.stage,
            stages=[stage_json(st, i) for i, st in enumerate(exc.completed)],
        )
    stage_list = [stage_json(st, i) for i, st in enumerate(refinement.stages)]
    csv_rows = [
        (s["stage"], "" if s["q"] is None else s["q"], s["radius"])
        for s in stage_list
    ]
    return _settled(
        ("stage", "q", "radius"),
        csv_rows,
        "witness",
        all(st.witness.verified for st in refinement.stages[1:]),
        bounds=bounds,
        stages=stage_list,
        point=vector_to_json(refinement.point),
    )


def run_puig_count(config, mode):
    scalars = _scalars(config, mode) or OneScalars()
    op = parse_operator(config.get("operator"), "$.operator")
    x = parse_vector(config.get("x"), "$.x")
    ball = _ball(config, "ball", operator_space(op).laterality, mode)
    m = _resolve_m(config, default=0)
    q = _expect_int(config, "q", minimum=1)
    bounds = {}
    horizon = _bound(config, "horizon", 50, bounds, minimum=0)
    count = joint_return_count(scalars, op, x, ball, m, q, horizon)
    return _settled(
        ("m", "q", "horizon", "count"),
        [(m, q, horizon, count)],
        bounds=bounds,
        m=m,
        q=q,
        count=count,
    )


RUNNERS = {
    "analyze-set": run_analyze_set,
    "orbit": run_orbit,
    "return-set": run_return_set,
    "shift-check": run_shift_check,
    "multirec": run_multirec,
    "universal": run_universal,
    "gowers": run_gowers,
    "szemeredi": run_szemeredi,
    "vdw": run_vdw,
    "pair-search": run_pair_search,
    "nested": run_nested,
    "puig-count": run_puig_count,
}


# ---------------------------------------------------------------------------
# Sweeps


def _set_dotted(config, dotted, value):
    parts = dotted.split(".")
    here = config
    for part in parts[:-1]:
        nxt = here.get(part)
        if nxt is None:
            nxt = {}
            here[part] = nxt
        if not isinstance(nxt, dict):
            raise SchemaError(
                f"$.{dotted}", f"cannot descend into non-object at {part!r}"
            )
        here = nxt
    here[parts[-1]] = value


def run_sweep(inner_name, base_config, grid, limit_cfg, mode):
    if inner_name not in RUNNERS:
        raise SchemaError("$.command", f"unknown subcommand {inner_name!r}")
    if not isinstance(grid, dict):
        raise SchemaError("$.grid", "expected an object mapping keys to value lists")
    for key, values in grid.items():
        if not isinstance(values, list):
            raise SchemaError(f"$.grid.{key}", "expected a list of values")
    bounds = {}
    limit = _bound(limit_cfg, "limit", 256, bounds)
    keys = sorted(grid)
    total = math.prod(len(grid[key]) for key in keys)
    if total > limit:
        raise SchemaError(
            "$.grid", f"grid has {total} points, exceeding the limit {limit}"
        )
    combos = itertools.product(*(grid[key] for key in keys)) if keys else ()
    runs = []
    csv_rows = []
    inner_header = None
    for combo in combos:
        cfg = copy.deepcopy(base_config)
        for key, value in zip(keys, combo):
            _set_dotted(cfg, key, value)
        result = RUNNERS[inner_name](cfg, mode)
        runs.append(
            {"command": inner_name, "mode": mode, "config": cfg, **result.payload}
        )
        inner_header = result.csv_header
        prefix = tuple(
            v if isinstance(v, (int, str)) else json.dumps(v, sort_keys=True)
            for v in combo
        )
        csv_rows.extend(prefix + row for row in result.csv_rows)
    return _settled(
        tuple(keys) + (inner_header or ()),
        csv_rows,
        verified=all(r["verified"] for r in runs),
        conclusive=all(r["conclusive"] for r in runs),
        bounds=bounds,
        inner=inner_name,
        grid=grid,
        runs=runs,
    )


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override its keys")
    sp.add_argument("--mode", choices=("exact", "float"), default="exact")
    sp.add_argument("--output", choices=("json", "csv"), default="json")


# (config key, conversion); the flag is the key with "-" for "_"
_INT = "int"
_RAW = "raw"  # keep the string as-is (rationals)
_JSON = "json"  # parse the string as a JSON value
_VEC = "vec"  # JSON triples when it starts with "[", else shorthand like "e0"
_KIND = "kind"  # a JSON object when it starts with "{", else a kind name like "one"
_JSON_OPENER = {_VEC: "[", _KIND: "{"}

_OVERLAYS = {
    "analyze-set": [("window", _INT), ("horizon", _INT), ("set", _JSON)],
    "orbit": [("operator", _JSON), ("scalars", _KIND), ("x", _VEC), ("horizon", _INT)],
    "return-set": [
        ("operator", _JSON),
        ("scalars", _KIND),
        ("x", _VEC),
        ("ball", _JSON),
        ("horizon", _INT),
    ],
    "shift-check": [
        ("weights", _JSON),
        ("p", _JSON),
        ("epsilon", _RAW),
        ("p_max", _INT),
        ("m_max", _INT),
        ("q_max", _INT),
    ],
    "multirec": [
        ("weights", _JSON),
        ("p", _JSON),
        ("ball", _JSON),
        ("m", _INT),
        ("length", _INT),
        ("q_max", _INT),
    ],
    "universal": [("scalars", _KIND), ("y", _VEC), ("m", _INT), ("k", _INT), ("p", _JSON)],
    "gowers": [("l", _INT), ("l_min", _INT), ("l_max", _INT)],
    "szemeredi": [("n", _INT), ("k", _INT), ("budget", _INT)],
    "vdw": [("n", _INT), ("k", _INT), ("budget", _INT)],
    "pair-search": [
        ("weights", _JSON),
        ("p", _JSON),
        ("u", _JSON),
        ("v1", _JSON),
        ("v2", _JSON),
        ("m", _INT),
        ("length", _INT),
        ("a_max", _INT),
        ("q_max", _INT),
    ],
    "nested": [
        ("weights", _JSON),
        ("p", _JSON),
        ("ball", _JSON),
        ("stages", _INT),
        ("q_max", _INT),
    ],
    "puig-count": [
        ("scalars", _KIND),
        ("operator", _JSON),
        ("x", _VEC),
        ("ball", _JSON),
        ("m", _INT),
        ("length", _INT),
        ("q", _INT),
        ("horizon", _INT),
    ],
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise SchemaError instead of exiting."""

    def error(self, message):
        raise SchemaError("$", message)


_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared for the rest of the process.

    Building its thirteen subparsers costs milliseconds, as much as a cheap
    search; parsing leaves the parser unchanged, so one serves every call.
    """
    global _parser
    if _parser is None:
        _parser = _new_parser()
    return _parser


def _new_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aporbit",
        description=(
            "Workbench for orbits, return sets, and arithmetic-progression "
            "recurrence of weighted backward shifts (exact rational arithmetic)."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, overlays in _OVERLAYS.items():
        sp = sub.add_parser(name)
        _add_common(sp)
        for key, kind in overlays:
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, type=int if kind == _INT else None)
    sweep = sub.add_parser("sweep")
    _add_common(sweep)
    sweep.add_argument("--command", required=True, help="subcommand to sweep")
    sweep.add_argument("--grid", required=True, help="JSON: {key: [values...]}")
    sweep.add_argument("--limit", type=int, help="max grid points (default 256)")
    return parser


@contextmanager
def _malformed(path, prefix):
    """Turn malformed input text met in the block into a SchemaError at path.

    ValueError is the base of json.JSONDecodeError, of UnicodeDecodeError
    and of the error for an integer past Python's digit limit.
    """
    try:
        yield
    except ValueError as exc:
        raise SchemaError(path, f"{prefix}: {exc}")


def _load_config(path):
    """The JSON object in the config file at path; {} when there is none."""
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh, _malformed(
            "$", "config file is not valid JSON"
        ):
            loaded = json.load(fh)
    except OSError as exc:
        raise SchemaError("$", f"cannot read config file: {exc}")
    if not isinstance(loaded, dict):
        raise SchemaError("$", "config file must hold a JSON object")
    return loaded


def _merge_config(args, name):
    config = _load_config(args.config)
    for key, kind in _OVERLAYS[name]:
        value = getattr(args, key)
        if value is None:
            continue
        opener = _JSON_OPENER.get(kind)
        if kind == _JSON or (opener and value.lstrip().startswith(opener)):
            with _malformed(f"$.{key}", "flag is not valid JSON"):
                value = json.loads(value)
        config[key] = value
    return config


def _read_stdin_set():
    with _malformed("$.set", "stdin is not text"):
        stripped = sys.stdin.read().strip()
    if not stripped:
        raise SchemaError("$.set", "no set given (stdin empty, no config)")
    if stripped.startswith("["):
        with _malformed("$.set", "stdin is not a JSON array"):
            return json.loads(stripped)
    with _malformed("$.set", "stdin must hold integers"):
        return [int(tok) for tok in stripped.split()]


def _emit(report, output, header, rows, out):
    if output == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True))
        out.write("\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# the exceptions that report invalid input (exit 2)
_INPUT_ERRORS = (
    SchemaError,
    InvalidArgumentError,
    PreconditionError,
    ModeMismatchError,
    DomainError,
    BudgetExceededError,
    OverflowError,
)


def _report_error(exc, name, mode, out):
    """Write the report of a run that stopped on an exception; return its exit code.

    A growth-profile bracket that fails to re-verify is inconclusive (exit
    1); an input error is exit 2 and any other exception an internal error,
    exit 3, with its traceback.  Both are repeated on stderr.
    """
    message = str(exc)
    internal = not isinstance(exc, (*_INPUT_ERRORS, MonotonicityError))
    if internal:
        message = f"internal error: {type(exc).__name__}: {exc}"
    elif isinstance(exc, OverflowError):
        message = f"a number left the range of a double (about 1.8e308): {exc}"
    report = {
        "command": name,
        "mode": mode,
        "verdict": "error",
        "verified": False,
        "error": message,
    }
    inconclusive = isinstance(exc, MonotonicityError)
    if inconclusive:
        report.update(verdict="inconclusive", conclusive=False)
    _emit(report, "json", None, None, out)
    if inconclusive:
        return EXHAUSTED
    if internal:
        # the interpreter's own printer: importing `traceback` would slow every start-up
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
    print(f"error: {message}", file=sys.stderr)
    return INTERNAL if internal else INVALID


def main(argv=None) -> int:
    parser = build_parser()
    out = sys.stdout
    try:
        args = parser.parse_args(argv)
    except SchemaError as exc:
        # the top-level parser takes no option but --help, so a subcommand comes first
        words = sys.argv[1:] if argv is None else argv
        named = words[0] if words and words[0] in {*RUNNERS, "sweep"} else None
        return _report_error(exc, named, None, out)
    except SystemExit as exc:  # --help
        return exc.code
    name = args.subcommand
    try:
        if name == "sweep":
            with _malformed("$.grid", "not valid JSON"):
                grid = json.loads(args.grid)
            base = _load_config(args.config)
            limit_cfg = {} if args.limit is None else {"limit": args.limit}
            result = run_sweep(args.command, base, grid, limit_cfg, args.mode)
            config = {"command": args.command, "base": base, "grid": grid}
        else:
            config = _merge_config(args, name)
            if name == "analyze-set" and "set" not in config:
                config["set"] = _read_stdin_set()
            result = RUNNERS[name](config, args.mode)
    except Exception as exc:
        return _report_error(exc, name, args.mode, out)
    report = {"command": name, "mode": args.mode, "config": config, **result.payload}
    _emit(report, args.output, result.csv_header, result.csv_rows, out)
    return OK if result.payload["verified"] else EXHAUSTED


def console_main() -> None:
    try:
        code = main()
        # a closed pipe must surface here, not in the interpreter's exit flush
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe in Python's `signal` docs: later flushes write to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
