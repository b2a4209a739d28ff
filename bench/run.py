"""End-to-end and per-layer benchmark of troparr.

Usage, from the repository root:

    python3 bench/run.py --workload check --seed 1 --seconds 30 --trace 0
    python3 -m pytest bench/tests -q          # self-test at a tiny size

Each workload is a closed loop: one caller in one process and one thread
hands troparr one generated arrangement file after another and waits for
each answer.  Inputs come in rounds, a fixed mix of shape slices drawn
from ``--seed``.  A run makes a fixed number of whole rounds,
``rounds_for(--seconds)``, so the same seed and ``--seconds`` always
attempt the same operations, and a failure count is the same on every
run of one seed.  Every answer goes through the correctness gate in
``gate.py``.

Times are reported at a reference speed.  On a shared host the CPU speed
one process gets drifts, by up to 2x within a minute on a 2-vCPU VM,
alike for every piece of pure-Python work, so raw times from runs minutes
apart disagree by more than any change worth measuring.  A speed probe (a
fixed piece of exact-fraction and frozenset work, ``speed_probe``) runs
between operations and, from a SIGALRM timer, every ``PROBE_EVERY_S``
inside one; its time inside is taken off the operation's.  Each
operation's time is then scaled by ``PROBE_REF_S`` over the mean time of
the probes in a window around it (``Speedometer``); set-up times are
scaled the same way.  The raw figures are in the report line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run for the per-layer metrics: every traced function (``spans.py``) is
wrapped; round 0 runs each arrangement untraced and traced back to back
for the tracing overhead, the other rounds run traced, and the spans are
written to ``.bench_work/``.  The report line before the last gives
provenance, sample counts, the tail percentile and failures per slice;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import gate
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-ups per timed run; setup_s is their median, so a cold bytecode
#: cache on the first one does not decide it.
SETUPS = 3
#: Rounds every run makes, however short --seconds is, and rounds of
#: inputs generated; a run that makes more reuses them in order.
MIN_ROUNDS = 2
#: Nominal seconds of one round: a round of any workload takes 16-23 s
#: on a 2-vCPU host.
ROUND_S = 20
#: Seconds the speed probe takes at the reference speed; times are
#: reported as they would read at that speed.
PROBE_REF_S = 0.004
#: Interval of the probes inside a piece of work: the CPU speed can
#: change within a 5-s operation, unseen by probes before and after it.
PROBE_EVERY_S = 0.1
#: The probes that set a piece of work's speed are those in its span,
#: widened by PROBE_PAD_S on each side and to at least PROBE_WINDOW_S in
#: all: single probes scatter by ~25%, and the CPU speed drifts over
#: seconds.  Of the windows tried, this one gave repeats of one input the
#: closest times.
PROBE_WINDOW_S = 0.5
PROBE_PAD_S = 0.02
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def speed_probe() -> float:
    """Seconds taken by a fixed piece of the kind of work troparr does:
    exact fractions, tuples and frozensets."""
    t0 = time.perf_counter()
    total, seen = Fraction(0), set()
    for i in range(1, 400):
        total += Fraction(i % 97 - 48, i % 89 + 1) * Fraction(i % 13 + 1, 7)
        seen.add(frozenset((i % 7, i % 11, (i % 13, i % 5))))
    return time.perf_counter() - t0


class Speedometer:
    """Speed probes taken between and inside timed pieces of work, and
    the times of those pieces scaled to the reference speed."""

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self.inside = 0.0

    def probe(self) -> float:
        """One probe; returns its time."""
        t0 = time.perf_counter()
        took = speed_probe()
        self.mids.append(t0 + took / 2)
        self.times.append(took)
        return took

    def _tick(self, *_signal) -> None:
        self.inside += self.probe()

    @contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S within the block; ``inside`` is the
        time the probes took there."""
        self.inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def at_reference(self, start: float, end: float, inside: float = 0.0) -> float:
        """Seconds from ``start`` to ``end``, less ``inside``, at the
        reference speed."""
        pad = max(PROBE_PAD_S, (PROBE_WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self.mids, start - pad)
        hi = bisect.bisect_right(self.mids, end + pad)
        return (end - start - inside) * PROBE_REF_S / statistics.fmean(self.times[lo:hi])


@dataclass(frozen=True)
class Item:
    path: str
    rows: list
    slice: str

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0])


def _cli(lib, argv: list[str]):
    """Run one CLI command in-process; exit code and parsed JSON report."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def op_check(lib, item: Item):
    code, report = _cli(lib, ["check", "--input", item.path, "--json"])
    return gate.check(item.n, item.d, code, report)


def op_flips(lib, item: Item):
    code, report = _cli(lib, ["subdivision", "--input", item.path, "--flips", "--json"])
    return gate.flips(item.n, item.d, code, report)


def op_envelope(lib, item: Item):
    code, report = _cli(lib, ["subdivision", "--input", item.path, "--json"])
    arr = lib.troparr.Arrangement.from_rows(item.rows)
    regular = lib.duality.regular_subdivision(lib.duality.arrangement_heights(arr))
    return gate.envelope(item.n, item.d, code, report, [g.edges for g in regular.maximal_cells])


@dataclass(frozen=True)
class Workload:
    op: Callable
    #: one round: (slice kind, n, d, copies), cheapest slice first
    round: tuple[tuple[str, int, int, int], ...]


# Copies per round put the median inside a band of one slice, with as
# many copies of cheaper slices below it as of dearer ones above, so that
# the median sits at the band's centre for any number of rounds and a
# draw crossing into a neighbouring band moves it by one rank at most.
# The tail rank (TAIL_BEYOND + 1 from the top) lies in the band named
# below for two rounds and more.  A round takes ROUND_S or so.
WORKLOADS = {
    # CLI check: the cubic elimination scan dominates from (4,3) up and
    # is ~90% of a generic (4,4).  Generic rationals at each shape have
    # fixed type counts.  Unfiltered integer draws push degenerate inputs
    # through the same layers and keep the known genericity defect
    # visible as exit-4 failures, mostly at (3,4).  Median: generic
    # (4,3), 12 copies below and 12 above; tail: generic (3,4).
    "check": Workload(op_check, (
        ("integer", 3, 3, 4),
        ("rational", 3, 3, 4),
        ("integer", 4, 3, 4),
        ("rational", 4, 3, 14),
        ("rational", 5, 3, 2),
        ("integer", 3, 4, 3),
        ("rational", 3, 4, 6),
        ("rational", 4, 4, 1),
    )),
    # CLI subdivision --flips: ~4nd full type enumerations per
    # arrangement, so enumerate_realizations dominates.  Constructed
    # single degeneracies (apex on a ray, apex on an apex) at d = 3 and
    # integer draws with an apex on a fan face; the filter uses the
    # generator's own apex types, so fixing troparr's genericity test
    # keeps the set.  Median: apex-on-apex n = 4, 7 copies below, 8
    # above and the integer (4,3) on either side; tail: apex-on-apex
    # n = 5, with the dearer on-ray n = 5 and integer (3,4) above it.
    "flips": Workload(op_flips, (
        ("on_apex", 3, 3, 2),
        ("integer_incident", 3, 3, 2),
        ("on_ray", 3, 3, 3),
        ("integer_incident", 4, 3, 1),
        ("on_apex", 4, 3, 4),
        ("on_ray", 4, 3, 1),
        ("on_apex", 5, 3, 4),
        ("on_ray", 5, 3, 1),
        ("integer_incident", 3, 4, 2),
    )),
    # CLI subdivision plus the regular_subdivision cross-check: the
    # 2^(n d) envelope mask scan dominates at (5,3) and (4,4).  The
    # integer slices have coarse cells, which sends large edge sets
    # through the 2^|E| scan of normalized_volume.  Median: generic
    # (5,3), 6 copies below and 6 above; tail: generic (4,4).
    "envelope": Workload(op_envelope, (
        ("integer", 4, 3, 2),
        ("rational", 4, 3, 2),
        ("integer", 3, 4, 2),
        ("rational", 5, 3, 6),
        ("rational", 4, 4, 6),
    )),
}


def import_library():
    """Fresh import of troparr from this checkout's src/ (never from an
    installed copy)."""
    for name in [k for k in sys.modules if k == "troparr" or k.startswith("troparr.")]:
        del sys.modules[name]
    troparr = importlib.import_module("troparr")
    if Path(troparr.__file__).resolve().parent != SRC / "troparr":
        raise ImportError(f"troparr imported from {troparr.__file__}, not from {SRC}")
    return SimpleNamespace(
        troparr=troparr,
        cli=importlib.import_module("troparr.cli"),
        duality=importlib.import_module("troparr.duality"),
    )


def make_pool(name: str, seed: int, work: Path) -> list[list[Item]]:
    """Generate and write MIN_ROUNDS rounds of input files.

    Within a round the copies of each slice are spread evenly over the
    round, so a slow spell of the machine does not land on one slice.
    """
    rng = random.Random(f"troparr-bench:{name}:{seed}")
    pool = []
    for r in range(MIN_ROUNDS):
        placed = []
        for kind, n, d, copies in WORKLOADS[name].round:
            for c in range(copies):
                rows = gen.draw(rng, kind, n, d)
                path = work / f"r{r:02d}-{len(placed):02d}.json"
                path.write_text(gen.to_json(rows), encoding="utf-8")
                placed.append(((c + 0.5) / copies, Item(str(path), rows, f"{kind} {n}x{d}")))
        pool.append([item for _, item in sorted(placed, key=lambda p: p[0])])
    return pool


def setup(name: str, seed: int, work: Path):
    """Import, input generation and warm-up; returns (lib, pool).

    The warm-up arrangement is of the cheapest slice and the same for
    every seed, so set-up time does not vary with the seed's inputs.
    """
    lib = import_library()
    pool = make_pool(name, seed, work)
    kind, n, d, _ = WORKLOADS[name].round[0]
    rows = gen.draw(random.Random("troparr-bench:warm-up"), kind, n, d)
    path = work / "warm-up.json"
    path.write_text(gen.to_json(rows), encoding="utf-8")
    WORKLOADS[name].op(lib, Item(str(path), rows, "warm-up"))
    return lib, pool


class Loop:
    """Closed loop: one operation at a time, results tallied.  With
    ``probe``, speed probes run before the first operation and after each
    one."""

    def __init__(self, name: str, lib, pool: list[list[Item]], tracer=None, probe=False):
        self.op = WORKLOADS[name].op
        self.lib, self.pool, self.tracer = lib, pool, tracer
        self.speed = Speedometer() if probe else None
        if probe:
            self.speed.probe()
        #: (start, end, time the speed probes took inside) per operation
        self.spans: list[tuple[float, float, float]] = []
        self.status: list[tuple[str, str, str]] = []  # (slice, status, detail)

    def one(self, item: Item) -> None:
        sampling = nullcontext() if self.speed is None else self.speed.sampling()
        t0 = time.perf_counter()
        try:
            with sampling:
                if self.tracer is None:
                    status, detail = self.op(self.lib, item)
                else:
                    with self.tracer.span("bench.operation", op=len(self.status) + 1):
                        status, detail = self.op(self.lib, item)
        except Exception as exc:  # any crash is a counted failure, never a lost input
            status, detail = gate.ERROR, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        inside = 0.0 if self.speed is None else self.speed.inside
        self.spans.append((t0, t1, inside))
        self.status.append((item.slice, status, detail))
        if self.speed is not None:
            self.speed.probe()

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 - inside for t0, t1, inside in self.spans]

    def at_reference(self) -> list[float]:
        """Latencies scaled to the reference speed (raw ones without
        probes)."""
        if self.speed is None:
            return self.latencies
        return [self.speed.at_reference(*span) for span in self.spans]

    def round(self, r: int) -> None:
        for item in self.pool[r % len(self.pool)]:
            self.one(item)

    @property
    def failed(self) -> int:
        return sum(st != gate.OK for _, st, _ in self.status)

    @property
    def wrong(self) -> int:
        return sum(st == gate.WRONG for _, st, _ in self.status)

    def by_slice(self) -> dict:
        """Per slice: attempted, failed, first failure details and the
        median latency in ms at the reference speed."""
        out: dict[str, dict] = {}
        for (sl, st, detail), latency in zip(self.status, self.at_reference()):
            entry = out.setdefault(sl, {"attempted": 0, "failed": 0, "details": [], "ms": []})
            entry["attempted"] += 1
            entry["ms"].append(1000 * latency)
            if st != gate.OK:
                entry["failed"] += 1
                if len(entry["details"]) < 3:
                    entry["details"].append(f"{st}: {detail}")
        for entry in out.values():
            entry["latency_ms_p50"] = statistics.median(entry.pop("ms"))
        return out


def rounds_for(seconds: float) -> int:
    """Rounds a run makes: enough to fill ``seconds`` at ROUND_S a round,
    and at least MIN_ROUNDS.  A fixed count, not a deadline, so that the
    operations attempted do not depend on the machine's speed."""
    return max(MIN_ROUNDS, math.ceil(seconds / ROUND_S))


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """``git describe --always --dirty`` of this checkout, or "unknown"
    outside a repository (the search stops at the checkout's root)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the report with the final result."""
    speed, spans = Speedometer(), []
    for _ in range(1 if trace else SETUPS):
        speed.probe()
        t0 = time.perf_counter()
        with speed.sampling():
            lib, pool = setup(name, seed, work)
        spans.append((t0, time.perf_counter(), speed.inside))
    speed.probe()
    setups = [speed.at_reference(*span) for span in spans]
    raw_setups = [t1 - t0 - inside for t0, t1, inside in spans]
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "loop": "closed, 1 caller, 1 process, 1 thread",
        "round": [f"{copies} x {kind} {n}x{d}" for kind, n, d, copies in WORKLOADS[name].round],
    }
    if trace:
        loop, metrics, details = _traced(name, lib, pool, seconds, seed)
    else:
        loop, metrics, details = _timed(name, lib, pool, seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
        details["samples"]["setup_s"] = len(setups)
        details["setup_samples_s"] = setups
    details["raw_setup_samples_s"] = raw_setups
    details["by_slice"] = loop.by_slice()
    result = {
        "correct": loop.wrong == 0,
        "attempted": len(loop.status),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"provenance": provenance, "details": details, "result": result}


def _timed(name, lib, pool, seconds):
    """End-to-end metrics from ``rounds_for(seconds)`` whole rounds, at
    the reference speed."""
    loop = Loop(name, lib, pool, probe=True)
    rounds = rounds_for(seconds)
    start = time.perf_counter()
    for r in range(rounds):
        loop.round(r)
    elapsed = time.perf_counter() - start
    latencies = loop.at_reference()
    n = len(latencies)
    pct, tail_value = tail(latencies)
    ok = n - loop.failed
    metrics = {
        "throughput_arr_per_s": (ok / sum(latencies), "1/s"),
        "latency_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "latency_ms_tail": (1000 * tail_value, "ms"),
        "verified_frac": (ok / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = dict.fromkeys(metrics, n)
    samples["peak_rss_mb"] = 1
    speed = [PROBE_REF_S / p for p in loop.speed.times]
    details = {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "samples": samples,
        "tail_percentile": pct,
        "failed_frac": loop.failed / n,
        "probe_ref_s": PROBE_REF_S,
        "speed_vs_reference": {"min": min(speed), "median": statistics.median(speed), "max": max(speed)},
        "raw": {
            "throughput_arr_per_s": ok / sum(loop.latencies),
            "latency_ms_p50": 1000 * statistics.median(loop.latencies),
            "latency_ms_tail": 1000 * tail(loop.latencies)[1],
        },
    }
    return loop, metrics, details


def _traced(name, lib, pool, seconds, seed):
    """Per-layer metrics.  Round 0 runs each arrangement untraced and
    traced back to back, alternating which goes first, for the tracing
    overhead; rounds 1 to ``rounds_for(seconds)`` - 1 follow, traced."""
    tracer = spans.Tracer()
    plain, loop = Loop(name, lib, pool), Loop(name, lib, pool, tracer)
    for k, item in enumerate(pool[0]):
        for traced in (k % 2, 1 - k % 2):
            if not traced:
                plain.one(item)
                continue
            tracer.install()
            try:
                loop.one(item)
            finally:
                tracer.uninstall()
    tracer.install()
    try:
        for r in range(1, rounds_for(seconds)):
            loop.round(r)
    finally:
        tracer.uninstall()
    out_path = WORK / f"spans-{name}-{seed}.jsonl"
    tracer.write(out_path)
    metrics = spans.layer_metrics(tracer.summary(), len(loop.status))
    paired = len(plain.latencies)
    metrics["trace.overhead_frac"] = sum(loop.latencies[:paired]) / sum(plain.latencies) - 1
    details = {"spans": str(out_path), "span_count": len(tracer.spans)}
    return loop, {k: (v, layer_unit(k)) for k, v in metrics.items()}, details


def layer_unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_frac") or "_per_" in stat:
        return "ratio"
    return "s/op" if stat.endswith("_s") else "count/op"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "troparr" / "__init__.py").is_file():
        print(f"error: no troparr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report.pop("result")
    print("report: " + json.dumps(report, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
