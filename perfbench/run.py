"""aporbit benchmark: one seeded workload, one process, one caller.

    python3 perfbench/run.py --workload witness-search --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each operation is one in-process call of `aporbit.cli.main(argv)` on a
generated JSON config file, with its report captured.  Operations are
issued in a closed loop, the next one as soon as the previous returns, in
whole rounds of the workload's operation list.  The first round is the
warm-up: its reports are kept for the independent verifier (`verify.py`),
which checks them after the timed loop, and its latencies are not counted,
so one-time costs (such as the growth-profile monotonicity check that the
first gowers table pays) stay out of the steady-state figures.  Then
whole rounds run until `--seconds` have passed; each must repeat the
warm-up reports byte for byte.  Latency is the wall time of the `main`
call.  `ops_per_s` is the round's operation count over the time of a
median round: the sum, over the operations of the round, of each one's
median latency across timed rounds, so that a slow spell of a shared
machine during one round moves it less than a mean would.

`--trace 0` prints the end-to-end metrics.  `--trace 1` is the separate
traced run: it makes one cold pass over the round with every layer wrapped
(`tracing.py`), prints the per-layer metrics and writes the spans to
`perfbench/spans/<workload>-<seed>.json`.  One pass, because the counts
must repeat exactly and later passes would find the program's in-process
caches warm.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def cold_setup():
    """Import aporbit from this checkout and build its CLI parser.

    This is `setup_s`: the time from the script's start until the first
    operation can be issued.  Nothing of the benchmark's own is imported
    before it, so the figure is aporbit's cold import and parser build.
    """
    if not os.path.isfile(os.path.join(SRC, "aporbit", "cli.py")):
        sys.exit(f"perfbench: no aporbit sources under {SRC}")
    sys.path.insert(0, SRC)
    import aporbit.cli

    if not os.path.abspath(aporbit.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported aporbit from {aporbit.cli.__file__}, not {SRC}")
    aporbit.cli.build_parser()
    return aporbit.cli, time.perf_counter() - _T0


cli, SETUP_S = cold_setup()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def call(argv):
    """One operation: exit code (or the exception it raised), seconds, report."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails this operation; the run goes on
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue()


def write_configs(ops, workdir: Path) -> list:
    workdir.mkdir(parents=True)
    argvs = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i:03d}.json"
        path.write_text(json.dumps(op["config"]))
        argvs.append(workloads.argv(op, str(path)))
    return argvs


def nearest_rank(values, pct) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def median_round(latencies, per_round) -> float:
    """Sum over a round's operations of each one's median latency."""
    return sum(statistics.median(latencies[i::per_round]) for i in range(per_round))


def operation_failed(code, text) -> bool:
    """Failed: not exit 0 with a verified witness or value."""
    if code != 0:
        return True
    try:
        rep = json.loads(text)
    except ValueError:
        return True
    return rep.get("verdict") not in ("witness", "value") or rep.get("verified") is not True


def main() -> int:
    ap = argparse.ArgumentParser(description="aporbit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed)
    workdir = Path(HERE) / f".work-{os.getpid()}"
    try:
        argvs = write_configs(ops, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        first = []  # warm-up round: (exit code, digest, compressed report)
        report_bytes = 0
        start = time.perf_counter()
        for i, argv in enumerate(argvs):
            if tracer:
                tracer.op = i
            code, _, text = call(argv)
            data = text.encode()
            report_bytes += len(data)
            first.append((code, hashlib.sha256(data).digest(), zlib.compress(data)))
        print(f"warm-up round: {time.perf_counter() - start:.3f} s", file=sys.stderr)
        latencies = []  # in issue order: round by round
        mismatches = []
        rounds = 1
        loop_start = time.perf_counter()
        while not tracer and time.perf_counter() - loop_start < args.seconds:
            for i, argv in enumerate(argvs):
                code, seconds, text = call(argv)
                latencies.append(seconds)
                if (code, hashlib.sha256(text.encode()).digest()) != first[i][:2]:
                    mismatches.append(i)
            rounds += 1
        if latencies:
            busy = [sum(latencies[r : r + len(argvs)]) for r in range(0, len(latencies), len(argvs))]
            print(f"timed rounds: {' '.join(f'{s:.3f}' for s in busy)} s", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # correctness, outside every timed region
    check_start = time.perf_counter()
    correct = not mismatches
    for i in sorted(set(mismatches)):
        print(f"op {i}: report differs from the warm-up round", file=sys.stderr)
    failed_ops = set()
    for i, (op, (code, _, packed)) in enumerate(zip(ops, first)):
        text = zlib.decompress(packed).decode()
        if operation_failed(code, text):
            failed_ops.add(i)
            print(f"op {i} ({op['command']}) failed: exit {code}: {text[-300:]!r}", file=sys.stderr)
            continue
        for problem in verify.check(op, code, text):
            correct = False
            print(f"op {i} ({op['command']}) rejected: {problem}", file=sys.stderr)
    print(f"verified {len(ops)} reports in {time.perf_counter() - check_start:.2f} s", file=sys.stderr)
    attempted = rounds * len(ops)
    failed = rounds * len(failed_ops)

    if tracer:
        metrics = tracer.metrics(report_bytes)
        path = Path(HERE) / "spans" / f"{args.workload}-{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "operations": [op["command"] for op in ops]})
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped -> {path}", file=sys.stderr)
    else:
        pct = workloads.TAIL_PERCENTILE[args.workload]
        timed = len(latencies)
        beyond = timed - math.ceil(pct / 100 * timed)
        print(f"{timed} timed ops in {rounds - 1} rounds; op_tail_ms is p{pct}, {beyond} ops beyond it",
              file=sys.stderr)
        metrics = {
            "setup_s": {"value": SETUP_S, "unit": "s"},
            "ops_per_s": {"value": len(ops) / median_round(latencies, len(ops)), "unit": "ops/s"},
            "op_p50_ms": {"value": 1000 * nearest_rank(latencies, 50), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * nearest_rank(latencies, pct), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
