"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--save FILE] [--against FILE]

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints for every end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median, and
the bound from BENCHMARK.json.  A spread above a third of its bound is
flagged ``wide``; above the bound, ``OVER``.

``--save`` writes every run's metrics to FILE as JSON.  ``--against`` reads
such a file from an earlier set and prints, for each metric, how much worse
this set's median is than that set's, as a share of the earlier median; a
worsening beyond the bound is ``OVER``.  The exit code is 1 if anything is
``OVER``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(value: float, bound: float) -> str:
    if value > bound:
        return "OVER"
    return "wide" if value > bound / 3 else "steady"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    saved: dict[str, dict[str, list[float]]] = {}
    verdicts = []
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, {failed}/{attempted} ops failed, "
              f"all correct: {all(r['correct'] for r in results)}")
        saved[workload] = {}
        for name, m in metrics.items():
            values = saved[workload][name] = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdicts.append(verdict(spread, m["bound"]))
            line = (f"  {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:6.3f}  bound {m['bound']:<5} {verdicts[-1]}")
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                verdicts.append("OVER" if worse > m["bound"] else "steady")
                line += f"  | earlier median {before:<12.6g} worse by {worse:+6.3f} {verdicts[-1]}"
            print(line)
        sys.stdout.flush()
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(saved, indent=1))
    overall = next((v for v in ("OVER", "wide") if v in verdicts), "steady")
    print(f"overall: {overall}")
    return 1 if overall == "OVER" else 0


if __name__ == "__main__":
    sys.exit(main())
