"""qriemann benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload algebra|derive|counterexample \
        --seed N --seconds S --trace 0|1 [--out DIR]

Run from the repository root; the library is imported from ./src.  Each
workload is a closed loop with one client: the next op starts when the
previous op and its oracle check are done.  Only the op itself is timed.
A run executes a fixed number of whole rounds of ops (see workloads.py),
S times the workload's ROUNDS_PER_SECOND, so that a seed always gives the
same ops and the same failures; it measures about S seconds.

--trace 0 reports the end-to-end metrics; --trace 1 runs one op list three
times (to warm caches, untraced, traced) and reports the per-layer metrics.  The
last line of stdout is the result object; the full record, with the
environment and sample counts, goes to DIR (default perfbench/results).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPEATS = 9
SETUP_CODE = "import qriemann.cli as c; c.build_parser()"
# The CPU of a shared machine runs at a speed that drifts by up to 1.5x over
# milliseconds to minutes.  Each op is therefore preceded by a fixed piece of
# pure-Python exact arithmetic that never touches qriemann, and every time
# the benchmark reports is rescaled by REFERENCE_CALIBRATION_S over the
# rolling median of the nearby calibration times: it is the time the op
# would take on a machine where the calibration takes
# REFERENCE_CALIBRATION_S (about its time on an unloaded 2-vCPU x86-64 VM
# under CPython 3.11).  Raw wall times are kept in the record.
REFERENCE_CALIBRATION_S = 0.00052
CALIBRATION_WINDOW = 10

# A set-up start is rescaled the same way by a bare interpreter start timed
# just before it, which tracks process start-up far better than arithmetic
# does: set-up time times REFERENCE_START_S over the bare start.
REFERENCE_START_S = 0.040

# Rounds measured per second of --seconds: about the rate at which a round
# runs when the calibration takes REFERENCE_CALIBRATION_S.  The op count is
# fixed rather than timed, so `attempted` and `failed` repeat exactly for a
# seed (derive's known defect fails a seed-dependent share of its ops).
ROUNDS_PER_SECOND = {"algebra": 1.25, "derive": 1.9, "counterexample": 0.6}
# A run stops after the round in progress once this many times --seconds
# have passed, so that a much slower program still ends in time; the record
# says so ("cut_short") and the op count is then no longer fixed.
MAX_SECONDS_FACTOR = 2.0

# rounds in a traced run's op list, so that its counts repeat exactly for a
# seed; about five seconds of ops each
TRACE_ROUNDS = {"algebra": 8, "derive": 16, "counterexample": 6}
LAYER_MODULES = ("qcore", "stencil", "evaluator", "counterexample", "verify", "cli")


def load_library():
    """Import qriemann from this checkout's src/, and nowhere else."""
    if not (SRC / "qriemann" / "__init__.py").is_file():
        raise SystemExit(f"error: no qriemann sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import importlib

    package = importlib.import_module("qriemann")
    if Path(package.__file__).resolve().parent != SRC / "qriemann":
        raise SystemExit(f"error: imported qriemann from {package.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"qriemann.{name}") for name in LAYER_MODULES}
    return SimpleNamespace(package=package, **mods)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(mpmath_backend: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath_backend,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def calibration_s() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i * i + 1)
    return time.perf_counter() - t0


def rescaled(times, cals) -> list:
    """Each time times REFERENCE_CALIBRATION_S over the median calibration
    within CALIBRATION_WINDOW samples of it."""
    out = []
    for i, t in enumerate(times):
        near = cals[max(0, i - CALIBRATION_WINDOW): i + CALIBRATION_WINDOW + 1]
        out.append(t * REFERENCE_CALIBRATION_S / statistics.median(near))
    return out


def measure_setup() -> tuple[float, list, list]:
    """Median rescaled time of a fresh interpreter importing qriemann and
    building the CLI parser, run sequentially; one untimed pair first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def start(code: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed: {proc.stderr.decode(errors='replace')[-400:]}")
        return dt

    times, bares = [], []
    for i in range(SETUP_REPEATS + 1):
        bare, setup = start("pass"), start(SETUP_CODE)
        if i:
            times.append(setup)
            bares.append(bare)
    rescaled_starts = [t * REFERENCE_START_S / b for t, b in zip(times, bares)]
    return statistics.median(rescaled_starts), times, bares


class Session:
    """Runs ops and keeps their latencies and check outcomes."""

    def __init__(self, lib, tracer=None):
        self.lib, self.tracer = lib, tracer
        self.latency, self.cal, self.outcome, self.labels = [], [], [], []
        self.failures = []

    def run_op(self, op_id: int, op: dict):
        self.cal.append(calibration_s())
        call = wl.prepare(op, self.lib)
        tracer = self.tracer
        if tracer:
            tracer.begin(op_id, op["label"])
        t0 = time.perf_counter()
        try:
            result, raised = call(), None
        except Exception as exc:  # an op that raises is a failed op, never a crashed run
            result, raised = None, exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(len(result[1]) if op["op"] == "cli" and raised is None else 0)
        if raised is not None:
            klass, detail = wl.ERROR, f"{type(raised).__name__}: {raised}"
        else:
            klass, detail = wl.check(op, result)
        self.latency.append(dt)
        self.outcome.append(klass)
        self.labels.append(op["label"])
        if klass is not None and sum(f["class"] == klass for f in self.failures) < 20:
            self.failures.append({"op": op, "class": klass, "detail": detail})

    def run_rounds(self, rounds, count: int, limit_s: float) -> bool:
        """Run `count` whole rounds, stopping early only after the round in
        progress once `limit_s` have passed; return whether it stopped early."""
        start = time.perf_counter()
        for _ in range(count):
            if time.perf_counter() - start >= limit_s:
                return True
            self.run_list(next(rounds), first_id=self.attempted)
        return False

    def run_list(self, ops, first_id: int = 0):
        for i, op in enumerate(ops, first_id):
            self.run_op(i, op)

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(k is not None for k in self.outcome)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and all(k in (None, wl.VERDICT_MISS) for k in self.outcome)

    def rescaled(self) -> list:
        return rescaled(self.latency, self.cal)

    def summary(self) -> dict:
        lat = self.rescaled()
        busy = sum(lat)
        good = sum(k is None for k in self.outcome)
        deciles = statistics.quantiles(lat, n=10)
        classes = {}
        for k in self.outcome:
            if k is not None:
                classes[k] = classes.get(k, 0) + 1
        return {
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "ops_per_s": len(lat) / busy,
            "goodput_per_s": good / busy,
            "failed_ratio": self.failed / self.attempted,
            "samples": len(lat),
            "samples_above_p90": sum(v > deciles[8] for v in lat),
            "busy_s": busy,
            "raw_busy_s": sum(self.latency),
            "raw_op_p50_ms": statistics.median(self.latency) * 1e3,
            "calibration_median_s": statistics.median(self.cal),
            "failure_classes": classes,
        }


def per_label(session) -> dict:
    out = {}
    for label, dt, k in zip(session.labels, session.latency, session.outcome):
        row = out.setdefault(label, {"ops": 0, "failed": 0, "busy_s": 0.0})
        row["ops"] += 1
        row["failed"] += k is not None
        row["busy_s"] += dt
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "results"))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    lib = load_library()
    import mpmath

    env = environment(mpmath.libmp.BACKEND)
    setup_s, setup_samples, setup_bares = measure_setup()

    rounds = wl.stream(args.workload, args.seed)
    warm = Session(lib)
    warm.run_list(next(rounds))  # let caches fill and lazy set-up finish

    wall0 = time.perf_counter()
    session = Session(lib)
    cut_short = False
    if args.trace:
        from tracing import Tracer

        # the same ops three times: to warm caches, untraced, then traced
        ops = [op for _ in range(TRACE_ROUNDS[args.workload]) for op in next(rounds)]
        Session(lib).run_list(ops)
        session.run_list(ops)
        tracer = Tracer(lib)
        tracer.install()
        try:
            traced = Session(lib, tracer)
            traced.run_list(ops)
        finally:
            tracer.remove()
        layer = tracer.metrics(overhead_ratio=sum(traced.rescaled()) / sum(session.rescaled()))
        sessions = (session, traced)
    else:
        count = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
        cut_short = session.run_rounds(rounds, count, args.seconds * MAX_SECONDS_FACTOR)
        sessions = (session,)
    wall = time.perf_counter() - wall0

    s = session.summary()
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_p90_ms": (s["op_p90_ms"], "ms"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "goodput_per_s": (s["goodput_per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = layer if args.trace else end_to_end
    attempted = sum(x.attempted for x in sessions)
    failed = sum(x.failed for x in sessions)
    correct = all(x.correct for x in sessions)

    env["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "wall_s": wall, "cut_short": cut_short, "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "summary": s, "setup_raw_s": setup_samples,
        "setup_bare_start_s": setup_bares,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **(layer if args.trace else {})}.items()},
        "per_label": per_label(session), "failures": session.failures + (traced.failures if args.trace else []),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        tracer.write_spans(out_dir / f"{stem}.spans.jsonl")

    print(f"# qriemann benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"wall={wall:.1f}s python={env['python']} mpmath={env['mpmath_backend']} nproc={env['nproc']}")
    print(f"# ops={s['samples']} (above p90: {s['samples_above_p90']}) failed={session.failed} "
          f"failed_ratio={session.failed / session.attempted:.4f} classes={s['failure_classes']} "
          f"setup samples={len(setup_samples)}" + (" cut short: over the time limit" if cut_short else ""))
    for name, (value, unit) in reported.items():
        print(f"#   {name:45s} {value:14.6g} {unit}")
    print(f"# record: {out_dir / (stem + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
