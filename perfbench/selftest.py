"""Self-test of the independent verifier.

    python3 perfbench/selftest.py

Runs one small operation of every kind through `aporbit.cli.main`, checks
that the verifier accepts each genuine report, then corrupts the reports
one field at a time (an altered coefficient, a smaller step, a dropped hit,
a wrong count, a flipped colour, ...) and checks that the verifier rejects
every corrupted copy.  Exits 1 if any genuine report is rejected or any
corrupted one accepted.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import verify  # noqa: E402
import workloads  # noqa: E402
from aporbit import cli  # noqa: E402

V2 = {"kind": "valley", "depth": 2}
C2 = {"kind": "constant", "value": 2}
C32 = {"kind": "constant", "value": "3/2"}

OPS = {
    "multirec": {"command": "multirec", "config": {
        "weights": C32, "ball": {"center": [[0, 1, 1], [1, -2, 3]], "radius": "1/5", "p": 1}, "m": 2}},
    "multirec-valley": {"command": "multirec", "config": {
        "weights": V2, "ball": {"center": "e0", "radius": "9/8", "p": 1}, "m": 2, "q_max": 130}},
    "nested": {"command": "nested", "config": {
        "weights": C2, "ball": {"center": "e0", "radius": "1/2", "p": 2}, "stages": 2}},
    "pair-search": {"command": "pair-search", "config": {
        "weights": C2, "u": {"center": "e0", "radius": "1/2"}, "v1": {"center": "e1", "radius": "1/2"},
        "v2": {"center": [[2, 3, 2]], "radius": "1/2", "p": "inf"}, "m": 2}},
    "shift-check": {"command": "shift-check", "config": {
        "weights": V2, "epsilon": "1/4", "p_max": 2, "m_max": 2, "q_max": 200}},
    "orbit": {"command": "orbit", "config": {
        "operator": {"kind": "direct-sum", "parts": [
            {"kind": "backward", "weights": C32, "laterality": "bilateral"},
            {"kind": "scaled", "scalar": "-1/3", "inner": {"kind": "power", "exponent": 2,
                                                           "inner": {"kind": "forward", "weights": V2,
                                                                     "laterality": "bilateral"}}}]},
        "scalars": "dyadic-sqrt", "x": [[-3, 1, 2], [0, 5, 7], [4, -1, 3], [7, 2, 1]], "horizon": 12}},
    "return-set": {"command": "return-set", "config": {
        "operator": {"kind": "backward", "weights": C2}, "x": [[0, 1, 1], [3, 1, 8], [6, 1, 64], [9, 1, 512]],
        "ball": {"center": "e0", "radius": "1/4"}, "horizon": 14}},
    "puig-count": {"command": "puig-count", "config": {
        "operator": {"kind": "backward", "weights": {"kind": "constant", "value": "1/2"}, "laterality": "bilateral"},
        "scalars": {"kind": "explicit", "values": [str(2 ** n) for n in range(1, 31)]},
        "x": [[0, 1, 1], [2, -1, 3]], "ball": {"center": [[-4, 1, 1]], "radius": "3/2", "p": 2},
        "m": 1, "q": 2, "horizon": 20}},
    "universal": {"command": "universal", "config": {
        "scalars": "dyadic-sqrt", "y": [[0, 1, 2], [2, -3, 5]], "m": 3, "k": 4, "p": 2}},
    "analyze-set": {"command": "analyze-set", "config": {
        "set": [1, 2, 3, 5, 7, 9, 11, 24, 25, 40, 41, 43, 47, 53], "window": 5}},
    "szemeredi": {"command": "szemeredi", "config": {"n": 14, "k": 3}},
    "vdw": {"command": "vdw", "config": {"n": 8, "k": 3}},
    "vdw-forced": {"command": "vdw", "config": {"n": 9, "k": 3}},
    "gowers": {"command": "gowers", "config": {"l_min": 4, "l_max": 30}},
    "sweep": {"command": "sweep", "inner": "multirec", "config": {
        "ball": {"center": "e0", "radius": "1/4"}, "m": 1}, "grid": {"weights": [C2, C32], "ball.p": [1, "inf"]}},
}


def bump(triples, pos=0):
    """Add one to the numerator of one coefficient (kept in lowest terms)."""
    from fractions import Fraction

    idx, num, den = triples[pos]
    c = Fraction(num, den) + Fraction(1, den)
    triples[pos] = [idx, c.numerator, c.denominator]


def moved_step(delta):
    """Step q + delta, with x rebuilt as the lift sum at that step."""

    def mutate(rep):
        cfg = OPS["multirec-valley"]["config"]
        w = verify.Weights(cfg["weights"])
        q = rep["witness"]["q"] + delta
        x = w.lift_sum(verify.config_vector(cfg["ball"]["center"]), q, cfg["m"])
        rep["witness"]["q"] = q
        rep["witness"]["x"] = [[i, c.numerator, c.denominator] for i, c in sorted(x.items())]

    return mutate


def later_offset(rep):
    """Offset a + 1, with both points rebuilt as stacked lifts at that offset."""
    cfg = OPS["pair-search"]["config"]
    w = verify.Weights(cfg["weights"])
    wit = rep["witness"]
    wit["a"] += 1
    u = verify.config_vector(cfg["u"]["center"])
    for key, ball in (("x1", cfg["v1"]), ("x2", cfg["v2"])):
        z = w.lift_sum(verify.config_vector(ball["center"]), wit["q"], wit["m"])
        x = verify.add(u, w.lift(z, wit["a"]))
        wit[key] = [[i, c.numerator, c.denominator] for i, c in sorted(x.items())]


CORRUPTIONS = [
    ("multirec", "one coefficient of x", lambda r: bump(r["witness"]["x"], 1)),
    ("multirec", "smaller q", lambda r: r["witness"].update(q=r["witness"]["q"] - 1)),
    ("multirec", "a distance", lambda r: r["witness"]["distances"].__setitem__(0, "1/1000")),
    ("multirec-valley", "smaller q, x rebuilt", moved_step(-1)),
    ("multirec-valley", "larger q, x rebuilt", moved_step(+1)),
    ("nested", "a stage centre coefficient", lambda r: bump(r["stages"][2]["center"], 1)),
    ("nested", "a stage radius", lambda r: r["stages"][1].update(radius="1/3")),
    ("nested", "the point", lambda r: bump(r["point"], 0)),
    ("pair-search", "offset a", lambda r: r["witness"].update(a=r["witness"]["a"] + 1)),
    ("pair-search", "a coefficient of x2", lambda r: bump(r["witness"]["x2"], 2)),
    ("pair-search", "later offset, x rebuilt", later_offset),
    ("shift-check", "a cell step", lambda r: r["grid"][-1].update(q=r["grid"][-1]["q"] + 1)),
    ("orbit", "one orbit coefficient", lambda r: bump(r["points"][7]["vector"], 1)),
    ("orbit", "an l1 norm", lambda r: r["points"][3].update(l1="1/1")),
    ("return-set", "a dropped hit", lambda r: r.update(hits=r["hits"][:-1], count=r["count"] - 1)),
    ("puig-count", "the count", lambda r: r.update(count=r["count"] + 1)),
    ("universal", "the error", lambda r: r.update(error="1/1")),
    ("universal", "a ytilde coefficient", lambda r: bump(r["ytilde"], 3)),
    ("analyze-set", "the longest step", lambda r: r["longest_ap"].update(step=r["longest_ap"]["step"] + 1)),
    ("analyze-set", "a shorter progression", lambda r: r["longest_ap"].update(length=r["longest_ap"]["length"] - 1)),
    ("analyze-set", "the window density", lambda r: r["density"].update(banach_upper_proxy="1/5")),
    ("szemeredi", "r", lambda r: r.update(r=r["r"] - 1)),
    ("vdw", "one colour", lambda r: r.update(coloring=("1" if r["coloring"][0] == "0" else "0") + r["coloring"][1:])),
    ("vdw-forced", "forced", lambda r: r.update(forced=False)),
    ("gowers", "m_l", lambda r: r["rows"][5].update(m_l=r["rows"][5]["m_l"] + 1)),
    ("gowers", "f(m_l)", lambda r: r["rows"][2].update(f_at_m_l=r["rows"][2]["f_at_m_l"] * (1 + 1e-9))),
    ("sweep", "a grid point's witness", lambda r: bump(r["runs"][3]["witness"]["x"], 1)),
    ("sweep", "a missing grid point", lambda r: r["runs"].pop()),
]


def run_op(op, workdir):
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(op["config"], fh)
    argv = workloads.argv(op, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    bad = 0
    reports = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name, op in OPS.items():
            code, text = run_op(op, workdir)
            problems = verify.check(op, code, text)
            print(f"genuine   {name:18s} {'accepted' if not problems else 'REJECTED: ' + problems[0]}")
            bad += bool(problems)
            reports[name] = json.loads(text)
    for name, what, mutate in CORRUPTIONS:
        rep = copy.deepcopy(reports[name])
        mutate(rep)
        problems = verify.check(OPS[name], 0, json.dumps(rep))
        print(f"corrupted {name:18s} {what:28s} {'rejected: ' + problems[0] if problems else 'ACCEPTED'}")
        bad += not problems
    print("self-test passed" if not bad else f"self-test FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
