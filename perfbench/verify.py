"""Independent checker for aporbit reports.

Nothing here imports `aporbit`.  Every report is re-checked from its JSON
and from the configuration the benchmark generated, with this module's own
exact arithmetic: sparse vectors are dicts {index: Fraction}, weights are
re-derived from their definitions through the basis sizes
a_n = prod_{l <= n} 1/w_l (so w_n = a_(n-1)/a_n), and operator powers are
computed coefficient by coefficient in closed form, never by iterating the
operator:

    backward:  T^n e_k = (a_(k-n)/a_k) e_(k-n)   (dropped below 0 if unilateral)
    forward:   T^n e_k = (a_(k+n)/a_k) e_(k+n)
    scaled:    (sT)^n = s^n T^n,  power: (T^e)^n = T^(en),
    direct sum: part i acts on the indices r*n + i.

`check(op, code, text)` returns a list of problems; an empty list means the
report is accepted.  Reference values that cannot be recomputed on the fly
(r_k(n), W(k;2)) come from `reference.json`, which `regen.py` rebuilds by
its own exhaustive search.
"""

import copy
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


class Rejected(Exception):
    """A report disagrees with the independent computation."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise Rejected(message)


# ---------------------------------------------------------------------------
# wire format


def frac(text) -> Fraction:
    need(isinstance(text, str) and text.count("/") == 1, f"not a num/den string: {text!r}")
    num, den = (int(t) for t in text.split("/"))
    need(den > 0 and math.gcd(num, den) == 1, f"fraction not in lowest terms: {text!r}")
    return Fraction(num, den)


def fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def config_vector(obj) -> dict:
    if isinstance(obj, str):
        return {int(obj[1:]): Fraction(1)}
    out: dict = {}
    for idx, num, den in obj:
        out[idx] = out.get(idx, Fraction(0)) + Fraction(num, den)
    return {i: c for i, c in out.items() if c}


def report_vector(triples) -> dict:
    need(isinstance(triples, list), "vector is not a list")
    out = {}
    last = None
    for t in triples:
        need(isinstance(t, list) and len(t) == 3, f"bad triple {t!r}")
        idx, num, den = t
        need(last is None or idx > last, "vector indices not strictly increasing")
        need(num != 0 and den > 0 and math.gcd(num, den) == 1, f"bad coefficient {t!r}")
        out[idx] = Fraction(num, den)
        last = idx
    return out


# ---------------------------------------------------------------------------
# exact sparse arithmetic


def add(u: dict, v: dict, scale: Fraction = Fraction(1)) -> dict:
    out = dict(u)
    for i, c in v.items():
        s = out.get(i, Fraction(0)) + scale * c
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def norm(v: dict, p) -> Fraction:
    """l1 norm, squared l2 norm, or sup norm."""
    if p == 1:
        return sum((abs(c) for c in v.values()), Fraction(0))
    if p == 2:
        return sum((c * c for c in v.values()), Fraction(0))
    return max((abs(c) for c in v.values()), default=Fraction(0))


class BallSpec:
    def __init__(self, center: dict, radius: Fraction, p):
        self.center, self.radius, self.p = center, radius, p

    @classmethod
    def from_config(cls, obj) -> "BallSpec":
        return cls(config_vector(obj["center"]), Fraction(obj["radius"]), obj.get("p", 1))

    def gap(self, v: dict) -> Fraction:
        """Distance to the centre, squared for p = 2 (as reports give it)."""
        return norm(add(v, self.center, Fraction(-1)), self.p)

    def bound(self) -> Fraction:
        return self.radius * self.radius if self.p == 2 else self.radius

    def contains(self, v: dict) -> bool:
        return self.gap(v) < self.bound()


# ---------------------------------------------------------------------------
# weights and basis sizes


def valley_profile(n: int, depth: int) -> int:
    """g(n) = max over levels L <= depth and blocks j <= L of L - dist(n, block),
    the block being [j (L+3)!, j (L+3)! + L]; 0 far from every block."""
    g = 0
    for level in range(1, depth + 1):
        spacing = math.factorial(level + 3)
        for j in range(1, level + 1):
            lo, hi = j * spacing, j * spacing + level
            dist = max(lo - n, n - hi, 0)
            g = max(g, level - dist)
    return g


class Weights:
    def __init__(self, obj):
        self.kind = obj["kind"]
        if self.kind == "constant":
            self.value = Fraction(obj["value"])
        elif self.kind == "valley":
            self.depth = obj["depth"]
        elif self.kind == "explicit":
            self.values = [Fraction(v) for v in obj["values"]]
        else:
            need(self.kind == "unit", f"unknown weights {obj!r}")
        self._sizes: dict = {}

    def size(self, n: int) -> Fraction:
        """Basis size a_n, with a_0 = 1."""
        a = self._sizes.get(n)
        if a is None:
            if self.kind == "constant":
                a = self.value ** -n
            elif self.kind == "unit":
                a = Fraction(1)
            elif self.kind == "valley":
                a = Fraction(1, 2 ** valley_profile(n, self.depth))
            else:
                need(0 <= n <= len(self.values), f"explicit weight index {n} out of range")
                a = Fraction(1)
                for w in self.values[:n]:
                    a /= w
            self._sizes[n] = a
        return a

    def lift(self, y: dict, s: int) -> dict:
        """L_s y: the exact right inverse of s backward steps."""
        return {n + s: c * self.size(n + s) / self.size(n) for n, c in y.items()}

    def lift_sum(self, y: dict, q: int, m: int) -> dict:
        out = dict(y)
        for j in range(1, m + 1):
            out = add(out, self.lift(y, j * q))
        return out


# ---------------------------------------------------------------------------
# operators and scalar sequences in closed form


def backward_power(w: Weights, x: dict, n: int, unilateral: bool = True) -> dict:
    """B^n x for the weighted backward shift: e_k -> (a_(k-n)/a_k) e_(k-n)."""
    a = w.size
    return {k - n: c * a(k - n) / a(k) for k, c in x.items() if not (unilateral and k < n)}


class Operator:
    def __init__(self, obj):
        self.kind = obj["kind"]
        if self.kind in ("backward", "forward"):
            self.weights = Weights(obj.get("weights", {"kind": "unit"}))
            self.unilateral = obj.get("laterality", "unilateral") == "unilateral"
        elif self.kind == "scaled":
            self.scalar = Fraction(obj["scalar"])
            self.inner = Operator(obj["inner"])
        elif self.kind == "power":
            self.exponent = obj["exponent"]
            self.inner = Operator(obj["inner"])
        else:
            need(self.kind == "direct-sum", f"unknown operator {obj!r}")
            self.parts = [Operator(p) for p in obj["parts"]]

    def power(self, x: dict, n: int) -> dict:
        """T^n x, coefficient by coefficient."""
        if self.kind == "backward":
            return backward_power(self.weights, x, n, self.unilateral)
        if self.kind == "forward":
            a = self.weights.size
            return {k + n: c * a(k + n) / a(k) for k, c in x.items()}
        if self.kind == "scaled":
            s = self.scalar**n
            return {k: c * s for k, c in self.inner.power(x, n).items()}
        if self.kind == "power":
            return self.inner.power(x, self.exponent * n)
        r = len(self.parts)
        out = {}
        for i, part in enumerate(self.parts):
            piece = {g // r: c for g, c in x.items() if g % r == i}
            for k, c in part.power(piece, n).items():
                out[k * r + i] = c
        return out


class Scalars:
    def __init__(self, obj):
        if obj is None:
            obj = "one"
        if isinstance(obj, str):
            obj = {"kind": obj}
        self.kind = obj["kind"]
        need(self.kind in ("one", "dyadic-sqrt", "explicit"), f"unsupported scalars {obj!r}")
        self.values = [Fraction(v) for v in obj.get("values", [])]

    def at(self, n: int) -> Fraction:
        if self.kind == "one" or n == 0:
            return Fraction(1)
        if self.kind == "dyadic-sqrt":
            c = math.isqrt(n)
            return Fraction(2) ** (c if c * c == n else c + 1)
        need(n <= len(self.values), f"explicit scalar index {n} out of range")
        return self.values[n - 1]


def scaled_point(op: Operator, lam: Scalars, x: dict, n: int) -> dict:
    s = lam.at(n)
    return {k: c * s for k, c in op.power(x, n).items()}


# ---------------------------------------------------------------------------
# recurrence reports


def _accepted_witness(rep) -> None:
    need(rep.get("verdict") == "witness", f"verdict {rep.get('verdict')!r}, expected witness")
    need(rep.get("verified") is True and rep.get("conclusive") is True, "witness not marked verified")


def _m_of(cfg) -> int:
    return cfg["length"] - 1 if "length" in cfg else cfg["m"]


def _check_bounds(rep, cfg, defaults) -> None:
    for key, default in defaults.items():
        want = {"value": cfg.get(key, default), "provenance": "config" if key in cfg else "default"}
        need(rep.get("bounds", {}).get(key) == want, f"bound {key} echoed as {rep.get('bounds', {}).get(key)!r}")


def _start(v: dict) -> int:
    return max(1, max(v) + 1) if v else 1


def _lift_gap(w: Weights, y: dict, q: int, m: int, ball: BallSpec) -> Fraction:
    """Largest return gap of the lift-sum candidate, from the lift formula:
    with q beyond y's support, T^(iq) x - y = sum_{k=1..m-i} L_(kq) y, on
    disjoint supports, so the gap is largest at i = 0."""
    tail = {}
    for k in range(1, m + 1):
        tail.update(w.lift(y, k * q))
    return norm(tail, ball.p)


def _geometric_step(w: Weights, y: dict, m: int, ball: BallSpec, start: int, q_max: int):
    """Least step for constant weights from sum_k w^(-kq) (sup: max_k)."""
    base = norm(y, ball.p)
    for q in range(start, q_max + 1):
        if ball.p == 1:
            factor = sum(w.value ** (-k * q) for k in range(1, m + 1))
        elif ball.p == 2:
            factor = sum(w.value ** (-2 * k * q) for k in range(1, m + 1))
        else:
            factor = max(w.value ** (-k * q) for k in range(1, m + 1)) if m else Fraction(0)
        if base * factor < ball.bound():
            return q
    return None


def check_witness(w: Weights, ball: BallSpec, m: int, q: int, q_max: int, x: dict) -> list:
    """Shared by multirec and every nested stage; returns the exact gaps."""
    y = ball.center
    start = _start(y)
    need(isinstance(q, int) and start <= q <= q_max, f"step q={q} outside [{start}, {q_max}]")
    need(x == w.lift_sum(y, q, m), "witness vector is not the lift sum at its step")
    gaps = []
    for j in range(m + 1):
        gap = ball.gap(backward_power(w, x, j * q))
        need(gap < ball.bound(), f"iterate {j * q} is not strictly inside the ball")
        gaps.append(gap)
    for smaller in range(start, q):
        need(
            _lift_gap(w, y, smaller, m, ball) >= ball.bound(),
            f"the smaller step {smaller} already gives a witness",
        )
    if w.kind == "constant" and w.value > 1:
        need(_geometric_step(w, y, m, ball, start, q_max) == q, "step disagrees with the geometric series")
    return gaps


def check_multirec(cfg, rep) -> None:
    _accepted_witness(rep)
    _check_bounds(rep, cfg, {"q_max": 100})
    w, ball, m = Weights(cfg["weights"]), BallSpec.from_config(cfg["ball"]), _m_of(cfg)
    wit = rep["witness"]
    need(wit.get("m") == m, "witness m differs from the request")
    gaps = check_witness(w, ball, m, wit["q"], cfg.get("q_max", 100), report_vector(wit["x"]))
    need(wit.get("distances") == [fmt(g) for g in gaps], "reported distances are wrong")
    need(wit.get("memberships") == [True] * (m + 1), "memberships are not all true")


def check_nested(cfg, rep) -> None:
    _accepted_witness(rep)
    _check_bounds(rep, cfg, {"q_max": 100})
    w, ball = Weights(cfg["weights"]), BallSpec.from_config(cfg["ball"])
    q_max = cfg.get("q_max", 100)
    stages = rep["stages"]
    need(len(stages) == cfg["stages"] + 1, "wrong number of stages")
    first = stages[0]
    need(first["stage"] == 0 and first["q"] is None, "stage 0 is not the input ball")
    need(report_vector(first["center"]) == ball.center and frac(first["radius"]) == ball.radius, "stage 0 ball differs")
    center, radius = ball.center, ball.radius
    for i, st in enumerate(stages[1:], start=1):
        need(st["stage"] == i, "stage numbers out of order")
        probe = BallSpec(center, radius / 4, ball.p)
        nxt = report_vector(st["center"])
        check_witness(w, probe, i, st["q"], q_max, nxt)
        need(frac(st["radius"]) == radius / 2, f"stage {i} radius is not half the previous one")
        # containment: ||c_i - c_(i-1)|| + r_i <= r_(i-1)
        slack = radius - radius / 2
        step = norm(add(nxt, center, Fraction(-1)), ball.p)
        need(step <= (slack * slack if ball.p == 2 else slack), f"stage {i} ball is not inside stage {i - 1}")
        center, radius = nxt, radius / 2
    need(report_vector(rep["point"]) == center, "point is not the last stage centre")


def check_pair(cfg, rep) -> None:
    _accepted_witness(rep)
    _check_bounds(rep, cfg, {"a_max": 50, "q_max": 50})
    w = Weights(cfg["weights"])
    U, V = BallSpec.from_config(cfg["u"]), (BallSpec.from_config(cfg["v1"]), BallSpec.from_config(cfg["v2"]))
    m, a_max, q_max = _m_of(cfg), cfg.get("a_max", 50), cfg.get("q_max", 50)
    wit = rep["witness"]
    a, q = wit["a"], wit["q"]
    need(wit["m"] == m, "witness m differs from the request")
    a_start = _start(U.center)
    tops = [max(v.center) for v in V if v.center]
    q_start = max(1, max(tops) + 1) if tops else 1
    need(a_start <= a <= a_max and q_start <= q <= q_max, "pair step or offset outside its range")
    for i, key in enumerate(("x1", "x2")):
        x = report_vector(wit[key])
        z = w.lift_sum(V[i].center, q, m)
        need(x == add(U.center, w.lift(z, a)), f"{key} is not the stacked lift")
        need(U.contains(x), f"{key} is not strictly inside U")
        for j in range(m + 1):
            need(V[i].contains(backward_power(w, x, a + j * q)), f"{key} misses V{i + 1} at time {a + j * q}")

    def v_ok(qq):
        return all(_lift_gap(w, v.center, qq, m, v) < v.bound() for v in V)

    def u_ok(qq, aa):
        # x - U.center = L_a z
        return all(norm(w.lift(w.lift_sum(v.center, qq, m), aa), U.p) < U.bound() for v in V)

    for qq in range(q_start, q + 1):
        if not v_ok(qq):
            need(qq != q, "reported step fails the V balls")
            continue
        last = a_max if qq < q else a - 1
        for aa in range(a_start, last + 1):
            need(not u_ok(qq, aa), f"the earlier pair (q={qq}, a={aa}) already works")


def check_shift(cfg, rep) -> None:
    _accepted_witness(rep)
    _check_bounds(rep, cfg, {"p_max": 3, "m_max": 3, "q_max": 100})
    w, eps = Weights(cfg["weights"]), Fraction(cfg["epsilon"])
    p_max, m_max, q_max = cfg.get("p_max", 3), cfg.get("m_max", 3), cfg.get("q_max", 100)
    need(rep["epsilon"] == fmt(eps), "epsilon echo differs")
    want = []
    for p in range(p_max + 1):
        for m in range(1, m_max + 1):
            least = next(
                (
                    q
                    for q in range(1, q_max + 1)
                    if all(w.size(j * q + off) <= eps for j in range(1, m + 1) for off in range(p + 1))
                ),
                None,
            )
            need(least is not None, f"cell ({p}, {m}) has no step: the search would exhaust")
            if w.kind == "constant" and w.value > 1:
                # a_n = w^-n decreases, so only a_q matters
                closed = next(q for q in range(1, q_max + 1) if w.value ** -q <= eps)
                need(closed == least, "constant-weight cell disagrees with w^-q <= epsilon")
            want.append({"p": p, "m": m, "q": least})
    need(rep["grid"] == want, "criterion grid differs")


# ---------------------------------------------------------------------------
# orbit reports


def _orbit_inputs(cfg):
    return Operator(cfg["operator"]), Scalars(cfg.get("scalars")), config_vector(cfg["x"])


def _accepted_value(rep) -> None:
    need(rep.get("verdict") == "value", f"verdict {rep.get('verdict')!r}, expected value")
    need(rep.get("verified") is True and rep.get("conclusive") is True, "value not marked verified")


def check_orbit(cfg, rep) -> None:
    _accepted_value(rep)
    _check_bounds(rep, cfg, {"horizon": 20})
    op, lam, x = _orbit_inputs(cfg)
    horizon = cfg.get("horizon", 20)
    points = rep["points"]
    need(len(points) == horizon + 1, "wrong number of orbit points")
    for n, pt in enumerate(points):
        v = scaled_point(op, lam, x, n)
        need(pt["n"] == n and report_vector(pt["vector"]) == v, f"orbit point {n} differs")
        need(pt["l1"] == fmt(norm(v, 1)) and pt["l2_squared"] == fmt(norm(v, 2))
             and pt["sup"] == fmt(norm(v, "inf")), f"norms at point {n} differ")


def check_return_set(cfg, rep) -> None:
    _accepted_value(rep)
    _check_bounds(rep, cfg, {"horizon": 50})
    op, lam, x = _orbit_inputs(cfg)
    ball, horizon = BallSpec.from_config(cfg["ball"]), cfg.get("horizon", 50)
    hits = [n for n in range(horizon + 1) if ball.contains(scaled_point(op, lam, x, n))]
    need(rep["hits"] == hits and rep["count"] == len(hits) and rep["horizon"] == horizon, "hit set differs")


def check_puig(cfg, rep) -> None:
    _accepted_value(rep)
    _check_bounds(rep, cfg, {"horizon": 50})
    op, lam, x = _orbit_inputs(cfg)
    ball, horizon = BallSpec.from_config(cfg["ball"]), cfg.get("horizon", 50)
    m = cfg["length"] - 1 if "length" in cfg else cfg.get("m", 0)
    q = cfg["q"]
    count = 0
    for a in range(horizon + 1):
        s = lam.at(a)
        count += all(
            ball.contains({k: c * s for k, c in op.power(x, a + i * q).items()}) for i in range(m + 1)
        )
    need(rep["m"] == m and rep["q"] == q and rep["count"] == count, "pattern count differs")


def check_universal(cfg, rep) -> None:
    _accepted_witness(rep)
    lam, y = Scalars(cfg["scalars"]), config_vector(cfg["y"])
    m, k, p = cfg["m"], cfg["k"], cfg.get("p", 1)
    ytilde = {}
    for j in range(m + 1):
        inv = 1 / lam.at(j * k)
        ytilde.update({n + j * k: c * inv for n, c in y.items()})
    need(rep["m"] == m and rep["k"] == k and report_vector(rep["ytilde"]) == ytilde, "ytilde differs")
    # lambda_lk B^lk ytilde - y = sum_{j>l} (lambda_lk / lambda_jk) S^((j-l)k) y
    base = norm(y, p)
    error = Fraction(0)
    for l in range(1, m + 1):
        ratios = [abs(lam.at(l * k) / lam.at(j * k)) for j in range(l + 1, m + 1)]
        if p == 1:
            e = base * sum(ratios, Fraction(0))
        elif p == 2:
            e = base * sum((r * r for r in ratios), Fraction(0))
        else:
            e = base * max(ratios, default=Fraction(0))
        error = max(error, e)
    need(rep["error"] == fmt(error), "universal error differs from sum of lambda_lk/lambda_jk")


# ---------------------------------------------------------------------------
# set-side reports


def check_analyze(cfg, rep) -> None:
    _accepted_value(rep)
    values = sorted(set(cfg["set"]))
    horizon = cfg.get("horizon", values[-1] if values else 0)
    window = cfg.get("window", max(1, (horizon + 1) // 10))
    _check_bounds(rep, cfg, {"window": max(1, (horizon + 1) // 10)})
    need(rep["size"] == len(values) and rep["horizon"] == horizon, "size or horizon differs")
    member = bytearray(horizon + 1)
    for v in values:
        member[v] = 1
    top = values[-1]
    ap = rep["longest_ap"]
    a0, d0, length = ap["initial"], ap["step"], ap["length"]
    need(d0 >= 1 and length >= 1, "malformed progression")
    need(all(a0 + j * d0 <= top and member[a0 + j * d0] for j in range(length)), "reported progression is not in the set")

    def runs(a, d, terms):
        last = a + (terms - 1) * d
        return last <= top and all(member[a + j * d] for j in range(1, terms))

    # brute force over every pair (a, a+d): nothing longer, nothing of the
    # same length earlier in (step, initial) order
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            d = b - a
            if a + (length - 1) * d > top:
                break
            need(not runs(a, d, length + 1), f"a longer progression starts at {a} with step {d}")
            if (d, a) < (d0, a0):
                need(not runs(a, d, length), f"progression ({a}, {d}) ties and comes first")
    # density proxies, brute force over prefixes and every window start
    prefix = [0] * (horizon + 2)
    for n in range(horizon + 1):
        prefix[n + 1] = prefix[n] + member[n]
    ratios = [Fraction(prefix[n + 1], n + 1) for n in range((horizon + 1) // 2, horizon + 1)]
    best = max(prefix[s + window] - prefix[s] for s in range(horizon + 2 - window))
    dens = rep["density"]
    need(dens["lower_proxy"] == fmt(min(ratios)) and dens["upper_proxy"] == fmt(max(ratios)), "prefix density differs")
    need(dens["banach_upper_proxy"] == fmt(Fraction(best, window)) and dens["window"] == window, "window density differs")


def check_szemeredi(cfg, rep) -> None:
    _accepted_value(rep)
    _check_bounds(rep, cfg, {"budget": 25})
    n, k = cfg["n"], cfg.get("k", 3)
    table = REFERENCE["r_k"].get(str(k))
    need(table is not None and n <= len(table), f"no reference r_{k}({n})")
    need(rep["n"] == n and rep["k"] == k and rep["r"] == table[n - 1], f"r_{k}({n}) should be {table[n - 1]}")


def mono_free(bits: int, n: int, k: int) -> bool:
    """No k-term progression in {1..n} is one colour (bit i-1 = element i)."""
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a in range(1, n - (k - 1) * d + 1):
            colours = {(bits >> (a + j * d - 1)) & 1 for j in range(k)}
            if len(colours) == 1:
                return False
    return True


def check_vdw(cfg, rep) -> None:
    _accepted_value(rep)
    _check_bounds(rep, cfg, {"budget": 12})
    n, k = cfg["n"], cfg.get("k", 3)
    w = REFERENCE["W"].get(str(k))
    need(w is not None, f"no reference W({k};2)")
    need(rep["n"] == n and rep["k"] == k, "n or k echo differs")
    need(rep["forced"] is (n >= w), f"forced must be {n >= w} since W({k};2) = {w}")
    if n >= w:
        need(rep["coloring"] is None, "a forced result carries a colouring")
        return
    col = rep["coloring"]
    need(isinstance(col, str) and len(col) == n and set(col) <= {"0", "1"}, "malformed colouring")
    bits = sum(1 << i for i, ch in enumerate(col) if ch == "1")
    need(mono_free(bits, n, k), "colouring has a monochromatic progression")
    need(not any(mono_free(b, n, k) for b in range(bits)), "an earlier colouring is progression-free")


def growth(t: float) -> float:
    """f(t) = t * 2^(-sqrt(log2 log2 log2 t) / 2)."""
    return t * 2.0 ** (-math.sqrt(math.log2(math.log2(math.log2(t)))) / 2.0)


def check_gowers(cfg, rep) -> None:
    _accepted_value(rep)
    ls = [cfg["l"]] if "l" in cfg else list(range(cfg["l_min"], cfg["l_max"] + 1))
    rows = rep["rows"]
    need([r["l"] for r in rows] == ls, "row l values differ")
    for r in rows:
        l, m = r["l"], r["m_l"]
        need(isinstance(m, int) and m >= 4, f"m_l malformed at l={l}")
        need(growth(m) <= l < growth(m + 1), f"bracket f(m_l) <= l < f(m_l+1) fails at l={l}")
        need(math.isclose(r["f_at_m_l"], growth(m), rel_tol=1e-12), f"f(m_l) differs at l={l}")
        if m >= 16:
            # 2^(-2^12) underflows, so the bound reads n - 1 in doubles
            need(r["bound_r3"] is not None and math.isclose(r["bound_r3"], m - 1.0, rel_tol=1e-12), f"bound differs at l={l}")
        else:
            need(r["bound_r3"] is None, f"bound should be absent at l={l}")
        k_of_n = None
        if m > 16:
            l3 = math.log2(math.log2(math.log2(m)))
            k_of_n = math.floor(math.log2(math.log2(l3) / 2.0) - 9.0)
        need(r["k_of_n"] == k_of_n, f"guaranteed length differs at l={l}")
        need(r["vacuous_flag"] is (k_of_n is None or k_of_n <= 1), f"vacuous flag differs at l={l}")


CHECKS = {
    "multirec": check_multirec,
    "nested": check_nested,
    "pair-search": check_pair,
    "shift-check": check_shift,
    "orbit": check_orbit,
    "return-set": check_return_set,
    "puig-count": check_puig,
    "universal": check_universal,
    "analyze-set": check_analyze,
    "szemeredi": check_szemeredi,
    "vdw": check_vdw,
    "gowers": check_gowers,
}


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    for part in parts[:-1]:
        cfg = cfg.setdefault(part, {})
    cfg[parts[-1]] = value


def sweep_configs(op) -> list:
    keys = sorted(op["grid"])
    out = []
    for combo in itertools.product(*(op["grid"][k] for k in keys)):
        cfg = copy.deepcopy(op["config"])
        for key, value in zip(keys, combo):
            _set_dotted(cfg, key, value)
        out.append(cfg)
    return out


def check_report(op, rep) -> None:
    need(rep.get("mode") == "exact", "report is not in exact mode")
    if op["command"] != "sweep":
        need(rep.get("command") == op["command"], "command echo differs")
        need(rep.get("config") == op["config"], "config echo differs")
        CHECKS[op["command"]](op["config"], rep)
        return
    inner = op["inner"]
    need(rep.get("command") == "sweep" and rep.get("inner") == inner, "sweep echo differs")
    need(rep.get("config") == {"command": inner, "base": op["config"], "grid": op["grid"]}, "sweep config echo differs")
    _accepted_value(rep)
    configs = sweep_configs(op)
    runs = rep["runs"]
    need(len(runs) == len(configs), "sweep ran a different number of grid points")
    for cfg, run in zip(configs, runs):
        need(run.get("command") == inner and run.get("config") == cfg, "sweep point config differs")
        check_report({"command": inner, "config": cfg}, run)


def check(op, code, text) -> list:
    """Problems with one report; an empty list accepts it."""
    try:
        need(code == 0, f"exit code {code}")
        check_report(op, json.loads(text))
    except Rejected as exc:
        return [str(exc)]
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    return []
