"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
there.  This process generates the workload's inputs from the seed,
computes every expected output with the independent oracles in
``oracle.py``, makes one warm-up CLI invocation (so the bytecode cache
exists, as it does for users), and then hands the inputs to one worker
process that runs them in a closed loop for S seconds and samples the
set-up of fresh worker interpreters along the way.  Outputs are checked
against the oracles after the loop.  Times are CPU times scaled to a
reference speed of the host (see ``worker.py``).

With ``--trace 0`` the last line is the end-to-end metrics; with
``--trace 1`` the worker spends half the time untraced and half traced, the
last line holds the per-layer metrics, and all spans are written to
``.bench_out/trace-<workload>-seed<N>.json``.  The lines before the last
one are for people: each metric with its unit, the run's metadata, and the
result of the far-term probes on ``cli-mix``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from common import PAIRS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

OP_CAP_S = 30.0
# Longest a worker may take beyond its --seconds: the last round it starts
# may end past the deadline, and every op is capped at OP_CAP_S.
WORKER_GRACE_S = 90.0


def child_env() -> dict[str, str]:
    """The environment for workers and CLI runs: the checkout's library,
    and bytecode caching on, as an installed package has it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def constraint_keys(name: str, rounds) -> list[tuple[int, int, int]]:
    if name == "cli-mix":
        return [(s, t, 0) for s, t in PAIRS]
    return sorted({op[1] for ops in rounds for op in ops})


def warm_up(env) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "arndt.cli", "residues", "-s", "2", "-t", "3"],
        env=env, cwd=ROOT, check=True, capture_output=True, timeout=60,
    )
    return time.perf_counter() - t0


def run_worker(env, module: str, keys_text: str, job: dict, seconds: int) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), module, keys_text],
        env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(pickle.dumps(job), timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: worker did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return pickle.loads(out)


def matches(expected, outcome) -> bool:
    if expected[0] == "raised":  # the exception's class; its message may vary
        return tuple(outcome[:2]) == expected
    if expected[0] != "exit":
        return tuple(outcome) == expected
    _, code, stdout = expected
    # A traced cli op also carries the in-process main()'s (code, stdout).
    results = [outcome[1:3]] + ([outcome[3:5]] if len(outcome) == 5 else [])
    if outcome[0] != "exit":
        return False
    for got_code, got_out in results:
        if got_code != code:
            return False
        if isinstance(stdout, list):  # whitespace-separated tokens of a table
            if got_out.split() != stdout or not got_out.endswith("\n") or got_out.endswith("\n\n"):
                return False
        elif got_out != stdout:
            return False
    return True


def loop_metrics(records, expected) -> dict:
    """End-to-end figures of one closed loop, over every op it ran, from the
    scaled latencies, and the same figures from plain CPU time (``cpu_``).
    Records are (round index, op index, scaled latency, CPU latency, items,
    outcome)."""
    latencies, cpu, items, failures = [], [], 0, []
    for ri, i, latency, cpu_s, op_items, outcome in records:
        latencies.append(latency)
        cpu.append(cpu_s)
        if matches(expected[ri][i], outcome):
            items += op_items
        else:
            failures.append((outcome, expected[ri][i]))
    latencies.sort()
    n = len(latencies)
    # The highest percentile with at least ten ops beyond it.
    beyond = min(10, n - 1)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "ops": n,
        "items_per_s": items / math.fsum(latencies),
        "cpu_items_per_s": items / math.fsum(cpu),
        "cpu_op_p50_ms": statistics.median(cpu) * 1e3,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": latencies[n - 1 - beyond] * 1e3,
        "tail_pct": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "failures": failures[:3],
    }


def far_term_probes(env, orc) -> list[dict]:
    """The far-term CLI requests, once each, outside the timed loop."""
    report = []
    for argv in workloads.CLI_FAR_TERM_PROBES:
        proc = subprocess.run(
            [sys.executable, "-m", "arndt.cli", *argv],
            env=env, cwd=ROOT, capture_output=True, timeout=OP_CAP_S,
        )
        want = orc.cli(argv, False)
        got = ("exit", proc.returncode, proc.stdout.decode())
        report.append({"argv": " ".join(argv), "exit": proc.returncode,
                       "expected_exit": want[1], "correct": matches(want, got)})
    return report


def per_layer(result: dict, loop: dict, untraced: dict, probes) -> dict[str, float]:
    summary, counters = result["summary"], result["counters"]

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name):
        return summary.get(name, {}).get("s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters.get
    yielded = c("enumeration.arndt_compositions.yielded", 0) + c(
        "enumeration.congruence_compositions.yielded", 0)
    stream_s = secs("enumeration.arndt_compositions") + secs("enumeration.congruence_compositions")
    parts_out = c("bijection.forward.parts_out", 0) + c("bijection.backward.parts_out", 0)
    bij_s = secs("bijection.forward") + secs("bijection.backward")
    m = {}
    for fn in ("sequence.sequence_range", "sequence.export_bfile", "sequence.count_recurrence",
               "sequence.expand", "enumeration.count_brute", "bijection.forward",
               "bijection.backward", "core.residue_system", "core.Composition",
               "cli.process", "cli.main"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.s"] = secs(fn)
    for name in ("sequence.sequence_range.terms", "sequence.export_bfile.bytes",
                 "sequence.count_recurrence.cache_entries", "sequence.expand.terms",
                 "enumeration.count_brute.counted", "enumeration.count_brute.refused",
                 "enumeration.arndt_compositions.yielded",
                 "enumeration.congruence_compositions.yielded",
                 "bijection.forward.parts_in", "bijection.forward.parts_out",
                 "bijection.backward.parts_in", "bijection.backward.parts_out",
                 "cli.stdout_bytes", "cli.exit.0", "cli.exit.1", "cli.exit.2"):
        m[name] = c(name, 0)
    m["sequence.format_s"] = summary.get("sequence.export_bfile", {}).get("self_s", 0.0)
    m["sequence.count_recurrence.terms_per_result"] = ratio(
        c("sequence.count_recurrence.cache_entries", 0), calls("sequence.count_recurrence"))
    m["sequence.result_digits"] = ratio(c("sequence.result_digits", 0), c("sequence.results", 0))
    m["enumeration.arndt_compositions.s"] = secs("enumeration.arndt_compositions")
    m["enumeration.congruence_compositions.s"] = secs("enumeration.congruence_compositions")
    m["enumeration.us_per_yield"] = ratio(stream_s, yielded) * 1e6
    m["bijection.ns_per_part_out"] = ratio(bij_s, parts_out) * 1e9
    m["cli.startup_s"] = ratio(secs("cli.process"), calls("cli.process")) - ratio(
        secs("cli.main"), calls("cli.main"))
    m["cli.import_s"] = result.get("import_s", 0.0)
    probe_misses = sum(not p["correct"] for p in probes)
    m["cli.exit_mismatch"] = loop["failed_exit"] + probe_misses
    for layer in ("core", "enumeration", "bijection", "sequence", "cli"):
        m[f"{layer}.self_s"] = result["layer_self_s"].get(layer, 0.0)
    m["trace.spans"] = len(result["spans"])
    m["trace.overhead_items_per_s"] = loop["items_per_s"] - untraced["items_per_s"]
    return m


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "arndt" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'arndt'}; run from a checkout",
              file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "int_max_str_digits_default": sys.get_int_max_str_digits(),
    }
    # The oracles print exact values of any length; the worker and the CLI
    # keep the interpreter's default limit, as users have it.
    sys.set_int_max_str_digits(0)
    env = child_env()
    module = "arndt.cli" if args.workload == "cli-mix" else "arndt"

    t0 = time.perf_counter()
    rounds = workloads.build(args.workload, args.seed)
    orc = oracle.Oracle()
    expected = [[orc.expect(op) for op in ops] for ops in rounds]
    meta["inputs_and_oracle_s"] = time.perf_counter() - t0
    meta["rounds"] = len(rounds)
    meta["ops_per_round"] = len(rounds[0])

    meta["warm_up_s"] = warm_up(env)
    keys_text = ";".join(",".join(map(str, key)) for key in constraint_keys(args.workload, rounds))

    job = {
        "workload": args.workload, "rounds": rounds, "seconds": args.seconds,
        "trace": args.trace, "cap_s": OP_CAP_S, "env": env, "root": str(ROOT),
    }
    result = run_worker(env, module, keys_text, job, args.seconds)
    loop = loop_metrics(result["records"], expected)
    loop["failed_exit"] = sum(
        1 for ri, i, _, _, _, out in result["records"]
        if out[0] == "exit" and out[1] != expected[ri][i][1]
    )
    meta["wall_s"] = result["wall_s"]
    meta["op_tail"] = f"p{loop['tail_pct']:.2f}, {loop['tail_beyond']} ops beyond, {loop['ops']} ops"
    probes = far_term_probes(env, orc) if args.workload == "cli-mix" else []
    if probes:
        meta["far_term_probes"] = probes

    attempted, failed, failures = loop["attempted"], loop["failed"], loop["failures"]
    if args.trace:
        untraced = loop_metrics(result["untraced_records"], expected)
        meta["traced_items_per_s"] = loop["items_per_s"]
        meta["untraced_items_per_s"] = untraced["items_per_s"]
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        failures += untraced["failures"]
        metrics, units = per_layer(result, loop, untraced, probes), declared_units("per_layer")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        dump = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"meta": meta, "per_layer": metrics, "spans": result["spans"]}))
        meta["trace_file"] = str(dump.relative_to(ROOT))
    else:
        meta["setup_samples_s"] = result["setup_samples_s"]
        meta["unscaled_cpu"] = {
            "setup_s": statistics.median(result["setup_cpu_samples_s"]),
            "items_per_s": loop["cpu_items_per_s"],
            "op_p50_ms": loop["cpu_op_p50_ms"],
        }
        metrics = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "items_per_s": loop["items_per_s"],
            "op_p50_ms": loop["op_p50_ms"],
            "op_tail_ms": loop["op_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    item_unit = workloads.ITEM_UNITS[args.workload]
    notes = {
        "items_per_s": f"{item_unit}, {loop['ops']} ops",
        "op_tail_ms": meta["op_tail"],
        "setup_s": f"median of {len(meta.get('setup_samples_s', []))} fresh workers",
    }
    if not args.trace:
        for name, value in metrics.items():
            print(f"  {name:<14} {value:>14.6g} {units[name]:<8} {notes.get(name, '')}")
    print(f"  {'failed_frac':<14} {failed / attempted:>14.6g} {'ratio':<8} {failed}/{attempted} ops")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<46} {value:>14.6g} {units[name]}")
    for failure in failures:
        print(f"  mismatch: got {str(failure[0])[:160]} expected {str(failure[1])[:160]}")
    for probe in probes:
        state = "ok" if probe["correct"] else "KNOWN DEFECT"
        print(f"  far-term probe [{probe['argv']}]: exit {probe['exit']}, "
              f"expected exit {probe['expected_exit']}: {state}")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
