"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Each criterion prints its verdict line to the real stdout (bypassing
capture) so a plain `pytest tests/test_acceptance.py` run shows the
scoreboard even when everything passes.  Timing limits are asserted
where the criterion states one.
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

from aporbit.cli import main as cli_main
from aporbit.families import (
    HitSet,
    coloring_avoids_progressions,
    density_report,
    find_ap,
    longest_ap,
    szemeredi_r,
    szemeredi_r_naive,
    vdw_check,
)
from aporbit.gowers import growth_profile, power_identity_residual, profile_inverse
from aporbit.recurrence import (
    inverse_witness,
    joint_return_count,
    lift_vector,
    multirec_witness,
    return_set,
    shift_ap_criterion,
    universal_vector,
    verify_return_times,
    verify_universal,
)
from aporbit.spaces import (
    BILATERAL,
    UNILATERAL,
    BackwardShift,
    Ball,
    ConstantWeights,
    DyadicSqrtScalars,
    FiniteVector,
    Power,
    Scaled,
    SpaceSpec,
    UnitWeights,
    ValleyWeights,
    apply,
)

L1 = SpaceSpec(1, UNILATERAL)
L1_BI = SpaceSpec(1, BILATERAL)
W2 = ConstantWeights(Fraction(2))

e = FiniteVector.basis


def _verdict(capsys, num: int, label: str, ok: bool, elapsed: float) -> bool:
    line = f"acceptance {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    with capsys.disabled():
        print(line, flush=True)
    return ok


def _cli(argv, stdin=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(buf):
            code = cli_main(argv)
    finally:
        sys.stdin = old_stdin
    return code, json.loads(buf.getvalue())


def test_criterion_01_ap_oracle_equivalence(capsys):
    start = time.time()

    def naive(elements):
        if not elements:
            return 0
        best = 1
        for a in elements:
            for b in elements:
                if b <= a:
                    continue
                d = b - a
                length, nxt = 2, b + d
                while nxt in elements:
                    length += 1
                    nxt += d
                best = max(best, length)
        return best

    rng = random.Random(118)
    ok = True
    for _ in range(200):
        horizon = rng.randint(0, 200)
        density = rng.uniform(0.05, 0.6)
        elems = frozenset(n for n in range(horizon + 1) if rng.random() < density)
        w = longest_ap(HitSet.from_iterable(elems, horizon=horizon))
        got = 0 if w is None else w.length
        ok = ok and got == naive(elems)
    elapsed = time.time() - start
    assert _verdict(capsys, 1, "AP oracle equivalence", ok and elapsed < 5, elapsed)


def test_criterion_02_szemeredi_exactness(capsys):
    start = time.time()
    ok = all(szemeredi_r(n, 3) == szemeredi_r_naive(n, 3) for n in range(1, 15))
    rng = random.Random(211)
    r_cache = {n: szemeredi_r(n, 3) for n in range(3, 15)}
    for _ in range(500):
        n = rng.randint(3, 14)
        r = r_cache[n]
        if r + 1 > n:
            continue
        subset = rng.sample(range(1, n + 1), r + 1)
        found = find_ap(HitSet.from_iterable(subset), 3)
        ok = ok and found is not None
    elapsed = time.time() - start
    assert _verdict(capsys, 2, "Szemeredi exactness", ok and elapsed < 60, elapsed)


def test_criterion_03_van_der_waerden(capsys):
    start = time.time()
    eight = vdw_check(8, 3)
    nine = vdw_check(9, 3)
    ok = (
        not eight.forced
        and eight.coloring is not None
        and coloring_avoids_progressions(eight.coloring, 3)
        and nine.forced
        and nine.coloring is None
    )
    elapsed = time.time() - start
    assert _verdict(capsys, 3, "van der Waerden certificates", ok and elapsed < 10, elapsed)


def test_criterion_04_power_identity(capsys):
    start = time.time()
    rng = random.Random(42)
    ok = all(
        power_identity_residual(rng.uniform(1e-9, 32.0)) < 1e-9 for _ in range(100)
    )
    elapsed = time.time() - start
    assert _verdict(capsys, 4, "power identity residual", ok, elapsed)


def test_criterion_05_inversion_bracket(capsys):
    start = time.time()
    ok = profile_inverse(11) == 15
    for l in range(4, 201):
        m = profile_inverse(l)
        ok = ok and growth_profile(m) <= l * (1 + 1e-9)
        ok = ok and growth_profile(m + 1) > l * (1 - 1e-9)
    elapsed = time.time() - start
    assert _verdict(capsys, 5, "profile inversion bracket", ok and elapsed < 1, elapsed)


def test_criterion_06_criterion_positive_control(capsys):
    start = time.time()
    rep = shift_ap_criterion(W2, L1, Fraction(1, 100), p_max=3, m_max=3, q_max=50)
    ok = rep.fully_populated and all(q == 7 for q in rep.grid.values())
    elapsed = time.time() - start
    assert _verdict(capsys, 6, "criterion positive control", ok, elapsed)


def test_criterion_07_criterion_negative_control(capsys):
    start = time.time()
    rep = shift_ap_criterion(UnitWeights(), L1, Fraction(1, 100), 3, 3, 50)
    ok = all(q is None for q in rep.grid.values())
    w = multirec_witness(UnitWeights(), L1, Ball(e(0), Fraction(1, 4), L1), 1, 50)
    ok = ok and w is None
    elapsed = time.time() - start
    assert _verdict(capsys, 7, "criterion negative control", ok and elapsed < 1, elapsed)


def test_criterion_08_valley_family(capsys):
    start = time.time()
    valley = ValleyWeights(3)
    rep = shift_ap_criterion(valley, L1, Fraction(1, 8), p_max=3, m_max=3, q_max=7200)
    # m'' = max(p, m, log2(1/epsilon)) = 3 on this grid, whose block is 6! = 720
    ok = rep.fully_populated and all(q == 720 for q in rep.grid.values())
    support = HitSet.from_iterable(
        (n for n in range(10**5 + 1) if valley.profile(n) > 0), horizon=10**5
    )
    dens = density_report(support, window=1000)
    ok = ok and dens.banach_upper_proxy == Fraction(1, 50)
    ok = ok and float(dens.banach_upper_proxy) < 0.05
    elapsed = time.time() - start
    assert _verdict(capsys, 8, "valley family", ok and elapsed < 30, elapsed)


def test_criterion_09_multiple_recurrence_construction(capsys):
    start = time.time()
    U = Ball(e(0), Fraction(1, 4), L1)
    w = multirec_witness(W2, L1, U, m=2, q_max=50)
    ok = (
        w is not None
        and w.q == 3
        and w.x == e(0) + e(3, Fraction(1, 8)) + e(6, Fraction(1, 64))
        and w.verified
    )
    # transfer: a 5-step pre-image returns at {5, 8, 11}
    x_pre = lift_vector(W2, w.x, 5)
    hits = return_set(BackwardShift(W2, L1), x_pre, U, 11)
    ok = ok and {5, 8, 11} <= set(hits)
    elapsed = time.time() - start
    assert _verdict(capsys, 9, "multiple recurrence construction", ok, elapsed)


def test_criterion_10_scaled_orbit_construction(capsys):
    start = time.time()
    scal = DyadicSqrtScalars()
    ytilde = universal_vector(scal, e(0), 2, 16)
    err = verify_universal(scal, ytilde, e(0), 2, 16, L1)
    errs = [
        verify_universal(scal, universal_vector(scal, e(0), 2, k), e(0), 2, k, L1)
        for k in (16, 64, 256)
    ]
    ok = err == Fraction(1, 4)
    ok = ok and all(a >= b for a, b in zip(errs, errs[1:]))
    count = joint_return_count(
        scal,
        BackwardShift(UnitWeights(), L1),
        ytilde,
        Ball(e(0), Fraction(1, 2), L1),
        m=0,
        q=16,
        horizon=40,
    )
    ok = ok and count == 3 and count >= 2 + 1  # m+1 hits for the m = 2 build
    elapsed = time.time() - start
    assert _verdict(capsys, 10, "scaled orbit construction", ok, elapsed)


def test_criterion_11_finite_transfers(capsys):
    start = time.time()
    rng = random.Random(7)
    base = BackwardShift(W2, L1_BI)
    ops = [base, Scaled(Fraction(-1), base), Power(2, base)]
    ok = True
    for _ in range(50):
        op = rng.choice(ops)
        x = FiniteVector(
            {
                rng.randint(-5, 5): Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 6))
                for _ in range(rng.randint(0, 3))
            }
        )
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        y = inverse_witness(op, x, n, m)  # re-verifies the pull-back contract
        ok = ok and y == apply(op, x, m * n)
    # rotation/power recomputation of a criterion witness on the doubling shift
    U = Ball(e(0), Fraction(1, 4), L1)
    w = multirec_witness(W2, L1, U, m=2, q_max=50)
    rotated = Scaled(Fraction(-1), BackwardShift(W2, L1))
    squared = Power(2, BackwardShift(W2, L1))
    ok = ok and all(verify_return_times(rotated, w.x, U, [0, 2 * w.q]))
    ok = ok and all(verify_return_times(squared, w.x, U, [0, w.q]))
    elapsed = time.time() - start
    assert _verdict(capsys, 11, "finite transfers", ok and elapsed < 5, elapsed)


def test_criterion_12_exhausted_honesty(capsys):
    start = time.time()
    ok = True
    exhausted_runs = [
        (
            ["shift-check", "--weights", '{"kind": "unit"}', "--epsilon", "1/2", "--q-max", "10"],
            None,
        ),
        (
            [
                "multirec",
                "--weights",
                '{"kind": "unit"}',
                "--ball",
                '{"center": "e0", "radius": "1/4"}',
                "--m",
                "1",
                "--q-max",
                "20",
            ],
            None,
        ),
        (
            [
                "pair-search",
                "--weights",
                '{"kind": "unit"}',
                "--u",
                '{"center": "e0", "radius": "1/2"}',
                "--v1",
                '{"center": "e0", "radius": "1/2"}',
                "--v2",
                '{"center": "e0", "radius": "1/2"}',
                "--m",
                "1",
                "--a-max",
                "10",
                "--q-max",
                "10",
            ],
            None,
        ),
        (
            [
                "nested",
                "--weights",
                '{"kind": "unit"}',
                "--ball",
                '{"center": "e0", "radius": "1/2"}',
                "--stages",
                "1",
                "--q-max",
                "10",
            ],
            None,
        ),
    ]
    for argv, stdin in exhausted_runs:
        code, report = _cli(argv, stdin=stdin)
        ok = ok and code == 1
        ok = ok and report["verdict"] == "exhausted"
        ok = ok and report["conclusive"] is False
        ok = ok and "inconclusive" in report.get("note", "")
        ok = ok and "witness" not in report
    elapsed = time.time() - start
    assert _verdict(capsys, 12, "exhausted-search honesty", ok, elapsed)
