"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are run records written by run.py: directories of them or
single files.  Runs pair up by (workload, seed, trace).  For every workload
and metric the report gives each side's median and quartiles, the pairs NEW
won (ties count for neither side) and a verdict:

  improved    NEW won at least 9/10 of at least 10 pairs, and the medians
              differ by more than the distance between BASE's quartiles;
  worse       the same rule the other way round, or (for an end-to-end
              metric) NEW's median is worse than BASE's by more than the
              metric's bound from BENCHMARK.json;
  unresolved  BASE's quartile spread is wider than the bound (or, without a
              bound, the medians differ by more than that spread) and the
              rules above do not decide, unless every NEW run reads better
              than every BASE run;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def metric_specs(benchmark: Path) -> dict:
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, pairs, better: str, bound: float | None) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(new)
    spread = q3 - q1
    gain = sign * (med_b - med_a)
    if len(pairs) >= 10 and abs(gain) > spread:
        if gain > 0 and wins >= 0.9 * len(pairs):
            return "improved", wins
        if gain < 0 and losses >= 0.9 * len(pairs):
            return "worse", wins
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if bound is not None:
        if -gain > bound * abs(med_a) and not all_better:
            return "worse", wins
        if spread > bound * abs(med_a) and not all_better:
            return "unresolved", wins
        return "unchanged", wins
    if abs(gain) > spread and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(base_runs, new_runs, specs) -> list[dict]:
    def index(runs):
        out = {}
        for r in runs:
            out.setdefault((r["workload"], r["trace"]), {}).setdefault(r["seed"], []).append(r)
        return out

    base_idx, new_idx = index(base_runs), index(new_runs)
    rows = []
    for key in sorted(set(base_idx) & set(new_idx)):
        workload, trace = key
        b_seeds, n_seeds = base_idx[key], new_idx[key]
        names = [m for m in specs if any(m in r["metrics"] for rs in b_seeds.values() for r in rs)]
        for name in names:
            base = [r["metrics"][name]["value"] for rs in b_seeds.values() for r in rs if name in r["metrics"]]
            new = [r["metrics"][name]["value"] for rs in n_seeds.values() for r in rs if name in r["metrics"]]
            if not base or not new:
                continue
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for seed in sorted(set(b_seeds) & set(n_seeds))
                     for a, b in zip(b_seeds[seed], n_seeds[seed])]
            spec = specs[name]
            v, wins = verdict(base, new, pairs, spec["better"], spec.get("bound"))
            rows.append({"workload": workload, "trace": trace, "metric": name, "unit": spec["unit"],
                         "base": quartiles(base), "new": quartiles(new), "pairs": len(pairs),
                         "wins": wins, "verdict": v})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs(HERE.parent / "BENCHMARK.json")
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), specs)
    print(f"{'workload':15s} {'metric':42s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'won':>7s}  verdict")
    for r in rows:
        (bq1, bm, bq3), (nq1, nm, nq3) = r["base"], r["new"]
        print(f"{r['workload']:15s} {r['metric']:42s} {bm:10.4g} [{bq1:.4g}, {bq3:.4g}] {'':6s}"
              f"{nm:10.4g} [{nq1:.4g}, {nq3:.4g}] {'':6s}{r['wins']:>3d}/{r['pairs']:<3d}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
