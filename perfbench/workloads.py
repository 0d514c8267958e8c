"""Seeded operation lists for the three benchmark workloads.

A workload builder takes a `random.Random` and returns one *round*: a list
of operations, each a dict

    {"command": "multirec", "config": {...}}
    {"command": "sweep", "inner": "multirec", "config": {...}, "grid": {...}}

that the runner turns into one `aporbit.cli.main` call.  Every run repeats
the same round, so the share of failed operations is the same in every
run however long it lasts.

The seed only picks values (coefficients, radii inside a fixed interval,
planted progressions), never the shape of an operation: each template
fixes the weight family, the norm, m and the interval the radius is drawn
from, so the step q a search must reach, and with it the cost of the
operation, is the same for every seed.  That keeps the spread of the
end-to-end figures across seeds small.  The intervals are worked out in
the README from the basis sizes a_n of each weight family.
"""

import json
import math
import random
from fractions import Fraction

# nearest-rank percentile used for `op_tail_ms`; chosen so that a run of the
# seed-state program leaves at least ten operations beyond it (README)
TAIL_PERCENTILE = {
    "witness-search": 95,
    "orbit-scan": 90,
    "progression-sets": 90,
}


def fr(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _between(rng: random.Random, lo: Fraction, hi: Fraction, steps: int = 1000) -> Fraction:
    """A rational in the half-open interval (lo, hi]."""
    return lo + (hi - lo) * Fraction(rng.randint(1, steps), steps)


def _coefficient(rng: random.Random, bits: int = 12, signed: bool = True) -> Fraction:
    num = rng.randint(2 ** (bits - 1), 2**bits - 1)
    den = rng.randint(2 ** (bits - 1), 2**bits - 1)
    sign = rng.choice((-1, 1)) if signed else 1
    return Fraction(sign * num, den)


def _vector(rng: random.Random, indices, bits: int = 12) -> list:
    out = []
    for idx in sorted(indices):
        c = _coefficient(rng, bits)
        out.append([idx, c.numerator, c.denominator])
    return out


def _norm(vec: list, p) -> Fraction:
    cs = [abs(Fraction(n, d)) for _, n, d in vec]
    if p == 1:
        return sum(cs, Fraction(0))
    if p == 2:
        return sum((c * c for c in cs), Fraction(0))
    return max(cs)


def _ball(center: list, radius: Fraction, p) -> dict:
    return {"center": center, "radius": fr(radius), "p": p}


# ---------------------------------------------------------------------------
# witness-search


def _valley_multirec(rng, depth, p, m, rho_lo, rho_hi, use_length=False):
    """Ball c*e0 of radius c*rho; the rho interval fixes the step q."""
    c = abs(_coefficient(rng, 8))
    rho = _between(rng, rho_lo, rho_hi)
    cfg = {
        "weights": {"kind": "valley", "depth": depth},
        "p": p,
        "ball": _ball([[0, c.numerator, c.denominator]], c * rho, p),
        "q_max": 130,
    }
    if use_length:
        cfg["length"] = m + 1
    else:
        cfg["m"] = m
    return {"command": "multirec", "config": cfg}


def _constant_center(rng):
    size = rng.randint(1, 3)
    return _vector(rng, rng.sample(range(0, 4), size), bits=6)


def _pinned_radius(rng, center: list, w: Fraction, p, m: int, q: int) -> Fraction:
    """A radius for which q is the least step of the lift-sum search.

    With constant weights the largest return gap is ||y|| g(q), where
    g(q) = sum_k w^(-kq) (l1), sum_k w^(-2kq) against the squared radius
    (l2) or w^(-q) (sup); g decreases, so a radius in (||y|| g(q), ||y|| g(q-1)]
    makes q the first step that works.
    """

    def gap(step):
        if p == 1:
            return sum(w ** (-k * step) for k in range(1, m + 1))
        if p == 2:
            return sum(w ** (-2 * k * step) for k in range(1, m + 1))
        return w**-step

    lo, hi = _norm(center, p) * gap(q), _norm(center, p) * gap(q - 1)
    if p != 2:
        return _between(rng, lo, hi)
    # a rational radius with its square in (lo, hi): Newton steps approach
    # the root of a target strictly inside from above
    target = lo + (hi - lo) * Fraction(rng.randint(1, 1000), 1001)
    r = Fraction(math.sqrt(target)).limit_denominator(10**6)
    while not lo < r * r < hi:
        r = (r + target / r) / 2
    return r


# least step of each constant-weight template, past every centre's support
CONSTANT_STEP = {"2": 5, "3/2": 6, "5/4": 8}


def _constant_multirec(rng, w, p, m):
    center = _constant_center(rng)
    radius = _pinned_radius(rng, center, Fraction(w), p, m, CONSTANT_STEP[w])
    return {
        "command": "multirec",
        "config": {
            "weights": {"kind": "constant", "value": w},
            "p": p,
            "ball": _ball(center, radius, p),
            "m": m,
            "q_max": 100,
        },
    }


def witness_search(rng: random.Random) -> list:
    ops = [
        # valley weights: q = 120 (l1, l2, l-inf) and q = 60 (l1)
        _valley_multirec(rng, 2, 1, 2, Fraction(1), Fraction(5, 4)),
        _valley_multirec(rng, 3, 2, 2, Fraction(1), Fraction(41, 40)),
        _valley_multirec(rng, 3, 1, 2, Fraction(5, 4), Fraction(3, 2)),
        _valley_multirec(rng, 2, "inf", 1, Fraction(1, 4), Fraction(1, 2), use_length=True),
    ]
    # one nested stage on valley weights: probe radius r/4, q = 120
    c = abs(_coefficient(rng, 8))
    ops.append(
        {
            "command": "nested",
            "config": {
                "weights": {"kind": "valley", "depth": 3},
                "p": 1,
                "ball": _ball([[0, c.numerator, c.denominator]], c * _between(rng, Fraction(1), Fraction(2)), 1),
                "stages": 1,
                "q_max": 130,
            },
        }
    )
    # depth-1 valley over all three norms in one sweep: q = 24 each
    c = abs(_coefficient(rng, 8))
    ops.append(
        {
            "command": "sweep",
            "inner": "multirec",
            "config": {
                "weights": {"kind": "valley", "depth": 1},
                "ball": {"center": [[0, c.numerator, c.denominator]],
                         "radius": fr(c * _between(rng, Fraction(1, 2), Fraction(1)))},
                "m": 1,
                "q_max": 130,
            },
            "grid": {"ball.p": [1, 2, "inf"]},
        }
    )
    e = rng.choice((1, 2))
    ops.append(
        {
            "command": "shift-check",
            "config": {
                "weights": {"kind": "valley", "depth": 3},
                "epsilon": fr(Fraction(1, 2**e)),
                "p_max": 2,
                "m_max": 3,
                "q_max": 800,
            },
        }
    )
    # constant weights: every (w, p, m); these cheap operations are more
    # than half the round, so op_p50_ms falls inside their cluster
    for w in ("2", "3/2", "5/4"):
        for p in (1, 2, "inf"):
            for m in (1, 2):
                ops.append(_constant_multirec(rng, w, p, m))
    center = _constant_center(rng)
    ops.append(
        {
            "command": "sweep",
            "inner": "multirec",
            "config": {
                "ball": _ball(center, _norm(center, 1) * _between(rng, Fraction(1, 20), Fraction(1, 4)), 1),
                "q_max": 100,
            },
            "grid": {
                "weights": [{"kind": "constant", "value": w} for w in ("2", "3/2", "5/4")],
                "m": [1, 2],
            },
        }
    )
    for w in ("2", "3/2"):
        c = abs(_coefficient(rng, 6))
        ops.append(
            {
                "command": "nested",
                "config": {
                    "weights": {"kind": "constant", "value": w},
                    "p": 1,
                    "ball": _ball([[0, c.numerator, c.denominator]], c * _between(rng, Fraction(1, 4), Fraction(1, 2)), 1),
                    "stages": 3,
                    "q_max": 100,
                },
            }
        )
    for w in ("2", "3/2"):
        u = abs(_coefficient(rng, 6))
        ops.append(
            {
                "command": "pair-search",
                "config": {
                    "weights": {"kind": "constant", "value": w},
                    "u": _ball([[0, u.numerator, u.denominator]], u * _between(rng, Fraction(1, 4), Fraction(1, 2)), 1),
                    "v1": _ball(_vector(rng, [1], bits=6), Fraction(1, 2), 1),
                    "v2": _ball(_vector(rng, [2], bits=6), Fraction(1, 2), 1),
                    "m": 2,
                    "a_max": 50,
                    "q_max": 50,
                },
            }
        )
    ops.append(
        {
            "command": "sweep",
            "inner": "shift-check",
            "config": {
                "epsilon": fr(Fraction(1, rng.randint(50, 500))),
                "p_max": 3,
                "m_max": 3,
                "q_max": 100,
            },
            "grid": {"weights": [{"kind": "constant", "value": w} for w in ("2", "3/2", "5/4")]},
        }
    )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# orbit-scan


def _lift_sum(y: list, w: Fraction, q: int, m: int) -> list:
    """y + L_q y + ... + L_mq y for the constant-weight backward shift."""
    out = []
    for j in range(m + 1):
        for idx, num, den in y:
            c = Fraction(num, den) / w ** (j * q)
            out.append([idx + j * q, c.numerator, c.denominator])
    return sorted(out)


def _backward(w, laterality="bilateral", kind="constant"):
    weights = {"kind": "valley", "depth": w} if kind == "valley" else {"kind": "constant", "value": w}
    return {"kind": "backward", "weights": weights, "p": 1, "laterality": laterality}


def orbit_scan(rng: random.Random) -> list:
    ops = [
        {
            # B^4 with w = 3/2: coefficients gain 4 log2(3/2) bits a step,
            # about a thousand bits by the horizon
            "command": "orbit",
            "config": {
                "operator": {"kind": "power", "exponent": 4, "inner": _backward("3/2")},
                "x": _vector(rng, rng.sample(range(-30, 31), 24)),
                "horizon": 160,
            },
        },
        {
            "command": "orbit",
            "config": {
                "operator": {
                    "kind": "direct-sum",
                    "parts": [
                        _backward("2"),
                        {
                            "kind": "scaled",
                            "scalar": "-1/2",
                            "inner": {"kind": "forward", "weights": {"kind": "constant", "value": "3/2"},
                                      "p": 1, "laterality": "bilateral"},
                        },
                    ],
                },
                "scalars": "dyadic-sqrt",
                "x": _vector(rng, rng.sample(range(-40, 41), 30)),
                "horizon": 120,
            },
        },
        {
            "command": "orbit",
            "config": {
                "operator": {"kind": "power", "exponent": 2,
                             "inner": _backward(2, "unilateral", "valley")},
                "x": _vector(rng, rng.sample(range(130, 251), 20)),
                "horizon": 100,
            },
        },
    ]
    # return sets along a progression: x is a lift sum, so T^(jq) x returns
    # to the ball around y for j <= m
    for w, scalars in ((Fraction(2), None), (Fraction(3, 2), "one")):
        y = _vector(rng, range(6), bits=8)
        q = rng.randint(8, 12)
        m = rng.randint(6, 8)
        radius = _norm(y, 1) * 2 / w**q
        cfg = {
            "operator": _backward(fr(w), "unilateral"),
            "x": _lift_sum(y, w, q, m),
            "ball": _ball(y, radius, 1),
            "horizon": (m + 1) * q + 20,
        }
        if scalars:
            cfg["scalars"] = scalars
        ops.append({"command": "return-set", "config": cfg})
        pcfg = dict(cfg, m=2, q=q, horizon=(m - 2) * q + 10)
        pcfg.pop("scalars", None)
        ops.append({"command": "puig-count", "config": pcfg})
    # irregular return set: forward shift damps by 2^-n, explicit scalars
    # of size about 2^n undo it
    horizon = 200
    scalars = [fr(2**n * _between(rng, Fraction(1, 2), Fraction(2))) for n in range(1, horizon + 1)]
    x = _vector(rng, rng.sample(range(0, 60), 30))
    ops.append(
        {
            "command": "return-set",
            "config": {
                "operator": {"kind": "forward", "weights": {"kind": "constant", "value": 2},
                             "p": 1, "laterality": "unilateral"},
                "scalars": {"kind": "explicit", "values": scalars},
                "x": x,
                "ball": _ball([], _norm(x, "inf"), 2),
                "horizon": horizon,
            },
        }
    )
    ops.append(
        {
            "command": "puig-count",
            "config": {
                "operator": _backward("1/2"),
                "scalars": "dyadic-sqrt",
                "x": _vector(rng, rng.sample(range(-20, 21), 30)),
                "ball": _ball([], Fraction(1, 1000), "inf"),
                "m": 3,
                "q": rng.randint(5, 9),
                "horizon": 150,
            },
        }
    )
    k = rng.randint(36, 40)
    ops.append(
        {
            "command": "universal",
            "config": {"scalars": "dyadic-sqrt", "y": _vector(rng, range(20)), "m": 4, "k": k, "p": 1},
        }
    )
    k, m = rng.randint(28, 32), 5
    ops.append(
        {
            "command": "universal",
            "config": {
                "scalars": {"kind": "explicit",
                            "values": [fr(_coefficient(rng, 16, signed=False) * n) for n in range(1, m * k + 1)]},
                "y": _vector(rng, range(16)),
                "m": m,
                "k": k,
                "p": 2,
            },
        }
    )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# progression-sets

ANALYZE_SIZES = (500, 700, 1000, 1400, 2000)


def _random_set(rng, n):
    return sorted(rng.sample(range(4 * n), n))


def _planted_set(rng, n):
    length = rng.randint(10, 20)
    step = rng.randint(5, 40)
    start = rng.randint(0, 4 * n - length * step)
    planted = {start + j * step for j in range(length)}
    rest = [v for v in rng.sample(range(4 * n), n) if v not in planted]
    return sorted(planted | set(rest[: n - length]))


def progression_sets(rng: random.Random) -> list:
    ops = []
    for i, n in enumerate(ANALYZE_SIZES):
        values = _planted_set(rng, n) if i % 2 else _random_set(rng, n)
        cfg = {"set": values}
        if rng.random() < 0.5:
            cfg["window"] = rng.randint(10, 100)
        ops.append({"command": "analyze-set", "config": cfg})
    ops.append({"command": "szemeredi", "config": {"n": 25, "k": 3, "budget": 25}})
    ops.append({"command": "sweep", "inner": "szemeredi", "config": {}, "grid": {"n": [14, 16, 18], "k": [3, 4]}})
    ops.append({"command": "sweep", "inner": "vdw", "config": {}, "grid": {"n": list(range(6, 13)), "k": [3, 4]}})
    for _ in range(2):
        ops.append({"command": "vdw", "config": {"n": rng.randint(8, 12), "k": rng.choice((3, 4))}})
    rng.shuffle(ops)
    # gowers tables of 25 rows each over disjoint, increasing l ranges, so
    # the monotonicity check of the first round costs the same every seed
    starts = sorted(rng.sample(range(20, 2000, 40), 3))
    gowers = [{"command": "gowers", "config": {"l_min": s, "l_max": s + 24}} for s in starts]
    slots = sorted(rng.sample(range(len(ops) + 1), len(gowers)))
    for offset, (slot, op) in enumerate(zip(slots, gowers)):
        ops.insert(slot + offset, op)
    return ops


WORKLOADS = {
    "witness-search": witness_search,
    "orbit-scan": orbit_scan,
    "progression-sets": progression_sets,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def argv(op: dict, config_path: str) -> list:
    """The `aporbit` command line of one operation, its config in a file."""
    if op["command"] == "sweep":
        return ["sweep", "--command", op["inner"], "--config", config_path, "--grid", json.dumps(op["grid"])]
    return [op["command"], "--config", config_path]
