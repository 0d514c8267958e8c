"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the measured modules
(and the `weight` method of each weight family) with a wrapper, in every
module namespace and module-level dict that holds it: `recurrence` and
`cli` import `apply`, `return_set` and friends by name, and `cli.RUNNERS`
holds the runners.  Each call becomes a span (name, start, end, parent,
operation); a span's self time is its duration minus the durations of the
spans directly inside it, and a layer's self time is the sum over its
spans.  Counters are taken at the same boundaries from the arguments and
results.  Spans stay in memory and are written out by `write`.

The tracer is for a separate run: the end-to-end figures always come from
an untraced run.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("spaces", "recurrence", "families", "gowers", "serialize", "cli")
KEEP_SPANS = 50_000  # spans kept for the file; the aggregates count them all

SEARCH = {"multirec_witness", "pair_recurrence_search", "nested_ball_refinement", "shift_ap_criterion"}
ORBIT = {"return_set", "joint_return_count", "verify_universal"}
SELF_GROUPS = {
    "spaces.apply": "spaces.apply",
    "spaces.in_ball": "spaces.in_ball",
    "recurrence.verify_return_times": "recurrence.verify",
    "families.longest_ap": "families.longest_ap",
    "families.szemeredi_r": "families.szemeredi",
    "families.vdw_check": "families.vdw",
    "families.density_report": "families.density",
}

# name, unit, better: the per-layer metrics, in the order they are reported
METRICS = [
    ("spaces.self_s", "s", "lower"),
    ("spaces.apply.calls", "count", "lower"),
    ("spaces.apply.coeffs", "count", "lower"),
    ("spaces.apply.self_s", "s", "lower"),
    ("spaces.iterate.steps", "count", "lower"),
    ("spaces.weight.calls", "count", "lower"),
    ("spaces.weight.self_s", "s", "lower"),
    ("spaces.in_ball.calls", "count", "lower"),
    ("spaces.in_ball.self_s", "s", "lower"),
    ("spaces.coeff_bits.max", "bits", "lower"),
    ("recurrence.self_s", "s", "lower"),
    ("recurrence.verify.calls", "count", "lower"),
    ("recurrence.verify.times", "count", "lower"),
    ("recurrence.verify.self_s", "s", "lower"),
    ("recurrence.witnesses", "count", "higher"),
    ("recurrence.candidates_per_witness", "ratio", "lower"),
    ("recurrence.search.self_s", "s", "lower"),
    ("recurrence.orbit.self_s", "s", "lower"),
    ("families.self_s", "s", "lower"),
    ("families.longest_ap.self_s", "s", "lower"),
    ("families.longest_ap.pairs", "count", "lower"),
    ("families.szemeredi.self_s", "s", "lower"),
    ("families.vdw.self_s", "s", "lower"),
    ("families.density.self_s", "s", "lower"),
    ("gowers.self_s", "s", "lower"),
    ("gowers.profile.evals", "count", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("serialize.parse.self_s", "s", "lower"),
    ("serialize.emit.calls", "count", "lower"),
    ("serialize.emit.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.sweep.points", "count", "higher"),
]


def _bits(v) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for _, c in v.items()), default=0)


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.op = -1
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, name, group, frame, start):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        self.self_s[group] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < KEEP_SPANS:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((frame[0], parent, self.op, name, start - self._t0, dur))
        else:
            self.dropped += 1

    def wrap(self, name, group, fn, count=None):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # yields is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame, start = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, group, frame, start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, group, frame, start)
            self.counts[name] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        import aporbit.cli  # noqa: F401  (loads every layer)
        from aporbit import spaces

        modules = {name: sys.modules[f"aporbit.{name}"] for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") or (layer == "cli" and attr == "_emit")
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(fn)] = self.wrap(name, self._group(layer, attr), fn, _COUNTERS.get(name))
        namespaces = [sys.modules["aporbit"], *modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in replaced:
                    setattr(ns, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]
        for cls in vars(spaces).values():
            if inspect.isclass(cls) and issubclass(cls, spaces.WeightSpec) and "weight" in vars(cls):
                if cls is not spaces.WeightSpec:
                    name = f"spaces.{cls.__name__}.weight"
                    cls.weight = self.wrap(name, "spaces.weight", cls.weight, _count_weight)

    @staticmethod
    def _group(layer, attr):
        name = f"{layer}.{attr}"
        if name in SELF_GROUPS:
            return SELF_GROUPS[name]
        if layer == "recurrence" and attr in SEARCH:
            return "recurrence.search"
        if layer == "recurrence" and attr in ORBIT:
            return "recurrence.orbit"
        if layer == "serialize":
            return "serialize.parse" if attr.startswith("parse_") else "serialize.emit"
        return f"{layer}.other"

    # -- results ----------------------------------------------------------

    def metrics(self, report_bytes: int) -> dict:
        c, s = self.counts, self.self_s

        def layer_self(layer):
            return sum((v for k, v in s.items() if k.split(".")[0] == layer), 0.0)

        witnesses = c["recurrence.witnesses"]
        values = {
            "spaces.self_s": layer_self("spaces"),
            "spaces.apply.calls": c["spaces.apply"],
            "spaces.apply.coeffs": c["spaces.apply.coeffs"],
            "spaces.apply.self_s": s["spaces.apply"],
            "spaces.iterate.steps": c["spaces.iterate.steps"],
            "spaces.weight.calls": c["spaces.weight"],
            "spaces.weight.self_s": s["spaces.weight"],
            "spaces.in_ball.calls": c["spaces.in_ball"],
            "spaces.in_ball.self_s": s["spaces.in_ball"],
            "spaces.coeff_bits.max": c["spaces.coeff_bits.max"],
            "recurrence.self_s": layer_self("recurrence"),
            "recurrence.verify.calls": c["recurrence.verify_return_times"],
            "recurrence.verify.times": c["recurrence.verify.times"],
            "recurrence.verify.self_s": s["recurrence.verify"],
            "recurrence.witnesses": witnesses,
            "recurrence.candidates_per_witness": (
                c["recurrence.verify_return_times"] / witnesses if witnesses else 0.0
            ),
            "recurrence.search.self_s": s["recurrence.search"],
            "recurrence.orbit.self_s": s["recurrence.orbit"],
            "families.self_s": layer_self("families"),
            "families.longest_ap.self_s": s["families.longest_ap"],
            "families.longest_ap.pairs": c["families.longest_ap.pairs"],
            "families.szemeredi.self_s": s["families.szemeredi"],
            "families.vdw.self_s": s["families.vdw"],
            "families.density.self_s": s["families.density"],
            "gowers.self_s": layer_self("gowers"),
            "gowers.profile.evals": c["gowers.growth_profile"],
            "serialize.self_s": layer_self("serialize"),
            "serialize.parse.self_s": s["serialize.parse"],
            "serialize.emit.calls": sum(v for k, v in c.items() if _is_emit(k)),
            "serialize.emit.self_s": s["serialize.emit"],
            "cli.self_s": layer_self("cli"),
            "cli.report_bytes": report_bytes,
            "cli.sweep.points": c["cli.sweep.points"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "op", "name", "start_s", "dur_s"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": fields, "dropped": self.dropped, "spans": self.spans}, fh)


def _is_emit(name: str) -> bool:
    return name.startswith("serialize.") and not name.startswith("serialize.parse_") and name.count(".") == 1


def _count_weight(counts, args, kwargs, result):
    counts["spaces.weight"] += 1


def _count_apply(counts, args, kwargs, result):
    counts["spaces.apply.coeffs"] += len(args[1].support())
    counts["spaces.coeff_bits.max"] = max(counts["spaces.coeff_bits.max"], _bits(result))


def _count_iterate(counts, args, kwargs, result):
    counts["spaces.iterate.steps"] += args[2] if len(args) > 2 else kwargs["n"]


def _count_verify(counts, args, kwargs, result):
    counts["recurrence.verify.times"] += len(args[3] if len(args) > 3 else kwargs["times"])


def _count_witness(counts, args, kwargs, result):
    counts["recurrence.witnesses"] += result is not None


def _count_longest_ap(counts, args, kwargs, result):
    n = len(args[0])
    counts["families.longest_ap.pairs"] += n * (n - 1) // 2


def _count_sweep(counts, args, kwargs, result):
    counts["cli.sweep.points"] += len(result.payload["runs"])


_COUNTERS = {
    "spaces.apply": _count_apply,
    "spaces.iterate": _count_iterate,
    "recurrence.verify_return_times": _count_verify,
    "recurrence.multirec_witness": _count_witness,
    "recurrence.pair_recurrence_search": _count_witness,
    "families.longest_ap": _count_longest_ap,
    "cli.run_sweep": _count_sweep,
}
