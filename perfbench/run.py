"""Benchmark of the asmprism verify checks.

    python3 perfbench/run.py --workload theorem1-n6s --seed 1 --seconds 15 --trace 0

Each run is one closed loop in this single process: the workload's items
are checked one at a time, after one fixed known-answer item.  The
library is imported fresh from ``src/`` for every set-up, so its
process-wide caches start cold, as in one ``asmprism verify`` call.

With ``--trace 0`` the run prints its end-to-end metrics.  With
``--trace 1`` it runs the same loop twice on fresh imports, first
untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last line of output is one JSON object.  The run
exits 1 if any check fails and 2 if the library is missing.

Times are corrected for the machine's speed (see ``Speed``).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

from workloads import KINDS, KNOWN_ASM, Counts, Known, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
LAYERS = ("asm", "perm", "prism", "pipedream", "ideal", "algebra", "bench")
TIMED_SPANS = (
    "asm.enumerate_asms", "asm.asm_join", "asm.asm_meet", "asm.asm_leq", "asm.join_all",
    "perm.min_perm_set", "perm.bigr_of",
    "prism.bigrassmannian_model", "prism.parabolic_model",
    "prism.asm_polynomial.bigr", "prism.asm_polynomial.parabolic",
    "pipedream.schubert_polynomial", "pipedream.delta_facets", "pipedream.verify_bijection",
    "ideal.initial_ideal", "ideal.stanley_reisner_facets", "ideal.multidegree",
    "algebra.poly_sum", "algebra.poly_eq",
)


class LibraryMissing(Exception):
    """The checkout has no asmprism package under src/."""


def load_workloads() -> dict[str, dict]:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_library():
    """Import asmprism from this checkout's src/, dropping any earlier
    import so that every module-level cache starts empty."""
    package = SRC / "asmprism"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no asmprism package at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "asmprism" or m.startswith("asmprism.")]:
        del sys.modules[name]
    lib = importlib.import_module("asmprism")
    if Path(lib.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"asmprism was imported from {lib.__file__}, not {package}")
    return lib


class Speed:
    """Corrects times for the machine's speed.  On a shared host the same
    Python code runs tens of percent slower for seconds at a time, and the
    library slows by the same factor as other Python code.  So a fixed
    pure-Python probe is timed whenever ``EVERY_S`` has passed since the
    last one, between items and between library calls within an item.
    The time between two probes is scaled by ``NOMINAL_S`` over the median
    duration of the ``2 * WINDOW`` probes nearest to it, and the probes' own
    time is left out.  A corrected
    time is how long the work takes when the probe takes ``NOMINAL_S``."""

    NOMINAL_S = 0.001
    EVERY_S = 0.05
    WINDOW = 3

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._clock: list[float] = []
        self.probe()

    def probe(self) -> None:
        t0 = perf_counter()
        table: dict = {}
        for i in range(800):
            key = (i % 13, i % 7, i % 5)
            cells = frozenset((k, i * k % 6) for k in range(6))
            table[key] = table.get(key, 0) + len(cells)
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def maybe_probe(self) -> None:
        if perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.probe()

    def call(self, name, fn, *args):
        """Call into the library untraced."""
        result = fn(*args)
        self.maybe_probe()
        return result

    def corrected(self, t0: float, t1: float) -> float:
        """The corrected length of the interval [t0, t1]."""
        if len(self._clock) != len(self.starts):
            self._clock = [0.0]
            for j in range(1, len(self.starts)):
                self._clock.append(self._clock[-1] + (self.starts[j] - self.ends[j - 1]) * self._rate(j - 1))
        return self._at(t1) - self._at(t0)

    def _rate(self, j: int) -> float:
        """Correction factor between probe j and the next one: the median of
        the nearest probes, as one probe alone is noisy."""
        near = range(max(j - self.WINDOW + 1, 0), min(j + self.WINDOW + 1, len(self.starts)))
        return self.NOMINAL_S / statistics.median(self.ends[k] - self.starts[k] for k in near)

    def _at(self, t: float) -> float:
        j = max(bisect.bisect_right(self.starts, t) - 1, 0)
        return self._clock[j] + max(t - self.ends[j], 0.0) * self._rate(j)

    def relative(self) -> float:
        """The machine's median speed over the run, 1.0 being nominal."""
        return self.NOMINAL_S / statistics.median(e - s for s, e in zip(self.starts, self.ends))


class Tracer:
    """Spans kept in memory, one per call the benchmark makes into the
    library, plus one root span per item.  Each span has a name, start,
    end, parent span (-1 for none) and item id (-1 for set-up)."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.current_item = -1
        self._open = -1

    def call(self, name, fn, *args):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open)
        self.item.append(self.current_item)
        self.start.append(0.0)
        self.end.append(0.0)
        outer, self._open = self._open, idx
        self.start[idx] = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self._open = outer
            self.speed.maybe_probe()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.item[i]}\n")

    def summary(self) -> dict[str, dict]:
        """Speed-corrected totals, calls and longest span per name, and
        per layer the self time over the item loop: a span's duration
        minus the part its child spans cover."""
        dur = [self.speed.corrected(s, e) for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        longest: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            longest[name] = max(longest.get(name, 0.0), dur[i])
            if self.item[i] >= 0:
                self_time[name.split(".", 1)[0]] += own[i]
        return {"total": total, "calls": calls, "longest": longest, "self": self_time}


def setup(workload: Workload, seed: int, seconds: float, call):
    """Import the library and build the run's inputs: ASM(n), then the
    seeded draw.  Returns the library, the items and the set-up's start
    and end."""
    t0 = perf_counter()
    lib = load_library()
    asms = call("asm.enumerate_asms", lambda: list(lib.asm.enumerate_asms(workload.n)))
    items = workload.draw(asms, random.Random(seed), seconds)
    return lib, items, (t0, perf_counter())


def check_loop(lib, workload: Workload, items: list, speed: Speed, tracer: Tracer | None = None):
    """Check the known-answer item, then every drawn item, one at a time.
    Returns each item's start and end, the number failed, the digest of
    the drawn items' rendered outputs, and the work counts when traced."""
    kind = workload.kind
    call = tracer.call if tracer else speed.call
    counts = Counts() if tracer else None
    jobs = [(Known, lib.asm.validate_asm(KNOWN_ASM))] + [(kind, x) for x in items]
    spans: list[tuple[float, float]] = []
    lines: list[str] = []
    failed = 0
    speed.probe()
    for k, (check_kind, item) in enumerate(jobs):
        ok, data = False, None
        t0 = perf_counter()
        try:
            if tracer:
                tracer.current_item = k
                ok, data = call("bench.item", check_kind.check, lib, call, item)
            else:
                ok, data = check_kind.check(lib, call, item)
        except Exception:  # an item that raises is a failed item; the loop goes on
            traceback.print_exc(file=sys.stderr)
        spans.append((t0, perf_counter()))
        speed.maybe_probe()
        if not ok:
            failed += 1
            print(f"FAILED item {k}: {check_kind.__name__} {item!r}", file=sys.stderr)
            continue
        if check_kind is kind:
            lines.append(kind.render(item, data))
        if counts is not None:
            check_kind.count(lib, item, data, counts)
    speed.probe()
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]
    return spans, failed, digest, counts


def known_digest(spec: dict, seed: int, seconds: float) -> str | None:
    known = spec.get("known", {})
    if known.get("seed") == seed and known.get("seconds") == seconds:
        return known["sha256"]
    return None


def end_to_end(setups: list[float], latencies: list[float]) -> dict[str, tuple[float, str]]:
    wall = sum(latencies)
    ms = [x * 1000 for x in latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(latencies) / wall, "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(summary: dict, counts: Counts, wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    total, calls, self_time = summary["total"], summary["calls"], summary["self"]
    out: dict[str, tuple[float, str]] = {f"{name}.s": (total.get(name, 0.0), "s") for name in TIMED_SPANS}
    asm_calls = sum(c for name, c in calls.items() if name.startswith("asm.") and name != "asm.enumerate_asms")
    out["asm.calls"] = (asm_calls, "count")
    out["perm.min_perm_set.calls"] = (calls.get("perm.min_perm_set", 0), "count")
    out["pipedream.schubert_polynomial.calls"] = (calls.get("pipedream.schubert_polynomial", 0), "count")
    slowest = max(summary["longest"].get(f"prism.asm_polynomial.{m}", 0.0) for m in ("bigr", "parabolic"))
    out["prism.asm_polynomial.max_ms"] = (1000 * slowest, "ms")
    for name, value in counts.values.items():
        out[name] = (value, "count")
    full = counts.values["prism.tableaux_full"]
    out["prism.kept_ratio"] = (counts.values["prism.tableaux_kept"] / full if full else 0.0, "frac")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_time[layer], "s")
        out[f"{layer}.share"] = (self_time[layer] / wall, "frac")
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - untraced_wall, "s")
    return out


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object, a report for people, and the
    digest of the drawn items' outputs."""
    workload = Workload(spec["n"], spec["min_items"], spec["items_per_second"], KINDS[spec["kind"]])
    speed = Speed()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(speed.corrected(*t) for t in setups) < SETUP_MIN_S:
        lib, items, took = setup(workload, seed, seconds, speed.call)
        speed.probe()
        setups.append(took)
    spans, failed, digest, _ = check_loop(lib, workload, items, speed)
    latencies = [speed.corrected(*t) for t in spans]
    metrics = end_to_end([speed.corrected(*t) for t in setups], latencies)
    attempted = len(latencies)
    expected = known_digest(spec, seed, seconds)
    if expected is None:
        verdict = "no known answer for this seed"
    elif expected == digest:
        verdict = "known answer matches"
    else:
        verdict = f"DIFFERS from the known answer {expected}"
        failed = attempted
    report = [
        f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
        f"items        {attempted} (1 known-answer + {attempted - 1} drawn, n={workload.n})",
        *(f"{k:<12} {v:.6g} {unit}" for k, (v, unit) in metrics.items()),
        f"failed_frac  {failed / attempted:.6g} ({failed}/{attempted})",
        f"digest       {digest} ({verdict})",
        f"speed        {speed.relative():.3f} of nominal; uncorrected wall {sum(e - s for s, e in spans):.4g} s",
    ]
    if trace:
        traced_speed = Speed()
        tracer = Tracer(traced_speed)
        lib, items, _ = setup(workload, seed, seconds, tracer.call)
        traced_speed.probe()
        t_spans, t_failed, t_digest, counts = check_loop(lib, workload, items, traced_speed, tracer)
        failed += t_failed + (t_digest != digest)
        t_wall = sum(traced_speed.corrected(*t) for t in t_spans)
        metrics = per_layer(tracer.summary(), counts, t_wall, metrics["wall_s"][0])
        path = OUT / f"trace-{name}-seed{seed}.tsv"
        tracer.write(path)
        report.append(f"spans        {len(tracer.names)} written to {path.relative_to(ROOT)}")
        report += [f"{k:<40} {v:.6g} {unit}" for k, (v, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return {"result": result, "report": report, "digest": digest}


def main(argv: list[str] | None = None) -> int:
    specs = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(specs))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, specs[args.workload], args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
