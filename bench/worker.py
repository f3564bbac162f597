"""Benchmark worker: a fresh interpreter that runs one workload's ops.

    python3 worker.py MODULE KEYS [--setup-only]

MODULE is ``arndt`` or ``arndt.cli``; KEYS lists the constraints to build,
as ``s,t,k;s,t,k;...``.  The worker imports MODULE and builds the
constraints: then it could issue its first op.  With ``--setup-only`` it
prints the CPU time it has used up to that moment (its set-up) and exits.
Otherwise it reads the job (pickled by ``run.py``) from stdin, runs the
rounds in a closed loop, one op at a time, and writes the pickled records
to stdout.  An untraced run also spawns set-up-only workers at even
intervals between ops.

Time is CPU time: an op's latency is the CPU time of this thread in the
library calls (the workloads have no threads and no I/O), and a CLI op's
is the CPU time of its process.  Preemption by other processes is left
out; the program's own costs, such as garbage collection, stay in.  Each
time is also scaled to a reference speed of the host (see
``reference_seconds``); both are recorded.  Digests for the output checks
are taken after the clock stops.  Every op is capped by a wall-clock timer
so that a hang becomes a failed op instead of a stalled run.
"""

import sys
import time


def _setup(module: str, keys_text: str):
    __import__(module)
    import arndt

    keys = [tuple(int(x) for x in key.split(",")) for key in keys_text.split(";")]
    return {key: arndt.ScaledConstraint(*key) for key in keys}


constraints = _setup(sys.argv[1], sys.argv[2])
if "--setup-only" in sys.argv:
    print(repr(time.process_time()))
    sys.exit(0)

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from itertools import islice  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

import arndt  # noqa: E402
import arndt.cli  # noqa: E402
import arndt.sequence  # noqa: E402
from common import LinesDigest, digest_bytes, digest_int, digest_parts  # noqa: E402
from spans import Tracer, layer_self_time, summarize  # noqa: E402

# Public functions the benchmark calls, by layer (the module they live in).
# The composition streams are generators, so their spans are opened around
# the drain instead (see Runner._drain).
LAYER_OF = {
    "export_bfile": "sequence",
    "sequence_range": "sequence",
    "count_recurrence": "sequence",
    "expand": "sequence",
    "build_gf": "sequence",
    "count_brute": "enumeration",
    "forward": "bijection",
    "backward": "bijection",
    "residue_system": "core",
    "Composition": "core",
}

# Library names that other library modules look up at call time; the traced
# run swaps in wrapped versions so that calls between layers get spans too.
NESTED = {
    arndt.sequence: ("sequence_range",),
    arndt.cli: ("forward", "backward", "residue_system", "export_bfile", "sequence_range"),
}

STREAM_CHUNK = 4096
SETUP_SPAWNS = 15

# On a shared virtual machine the CPU itself runs faster or slower, in
# phases of seconds to minutes, and CPU time follows it.  The CPU time of a
# fixed loop, read between ops and every REF_EVERY_S of CPU time inside an
# op, measures that speed; an op's scaled time is its CPU time times
# REF_NOMINAL_S over the mean of the readings before, inside and after it:
# its CPU time at the speed where the loop takes REF_NOMINAL_S, about the
# loop's mean time on an Intel Xeon vCPU of a shared host.  One run of the
# loop varies by about 8% from the next, so each reading is the median of
# REF_RUNS runs.
REF_NOMINAL_S = 0.35e-3
REF_RUNS = 3
REF_EVERY_S = 0.05
_REF_TABLE = {}


def reference_seconds():
    """Median CPU time of REF_RUNS runs of a fixed loop of the kind of work
    the library does: small-int arithmetic, dict stores and short-lived
    tuples and lists.  The garbage collector is paused meanwhile, so that no
    collection of the library's heap is charged to the loop."""
    enabled = gc.isenabled()
    gc.disable()
    runs = []
    for _ in range(REF_RUNS):
        t0 = thread_time()
        acc, table, batch = 0, _REF_TABLE, []
        for i in range(1500):
            acc += i * i % 7
            table[i & 255] = acc
            batch.append((i, acc))
            if len(batch) > 64:
                batch = []
        runs.append(thread_time() - t0)
    if enabled:
        gc.enable()
    return statistics.median(runs)


def scaled(seconds, readings):
    return seconds * REF_NOMINAL_S / statistics.fmean(readings)


class SpeedProbe:
    """Readings of ``reference_seconds`` inside an op, taken by a CPU-time
    timer so that a long op is scaled by the speed it ran at, and a clock
    for the ops that leaves the readings' own CPU time out."""

    def __init__(self):
        self.readings = []
        self.spent = 0.0
        signal.signal(signal.SIGVTALRM, self._on_timer)

    def _on_timer(self, signum, frame):
        t0 = thread_time()
        self.readings.append(reference_seconds())
        self.spent += thread_time() - t0

    def clock(self) -> float:
        return thread_time() - self.spent

    def start(self):
        self.readings = []
        signal.setitimer(signal.ITIMER_VIRTUAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return self.readings


PROBE = SpeedProbe()


class OpTimeout(Exception):
    """An op ran past its time cap."""


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time cap")


class Launcher:
    """CLI invocations run through launcher.py (see there for why)."""

    def __init__(self, env, root):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(os.path.dirname(__file__), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root, text=True,
        )

    def run(self, argv, timeout):
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply.get("timeout"):
            raise OpTimeout("CLI invocation exceeded its time cap")
        return reply

    def close(self) -> float:
        """Peak resident set of any invocation, in MB."""
        self.proc.stdin.close()
        peak_kb = json.loads(self.proc.stdout.readline())["maxrss_kb"]
        self.proc.wait(timeout=60)
        return peak_kb / 1024


class Runner:
    """Runs ops through the library, plain or with a span around each call."""

    def __init__(self, job, tracer=None, launcher=None):
        self.cons = constraints
        self.cap_s = job["cap_s"]
        self.launcher = launcher
        self.tr = tracer
        self.lib = {name: getattr(arndt, name) for name in LAYER_OF}
        self._patched = []
        if tracer is not None:
            self.lib = {
                name: tracer.wrap(f"{LAYER_OF[name]}.{name}", fn)
                for name, fn in self.lib.items()
            }
            for module, names in NESTED.items():
                for name in names:
                    self._patched.append((module, name, getattr(module, name)))
                    setattr(module, name, self.lib[name])

    def close(self):
        for module, name, original in self._patched:
            setattr(module, name, original)
        self._patched = []

    @contextlib.contextmanager
    def _span(self, name):
        if self.tr is None:
            yield
            return
        idx = self.tr.begin(name)
        try:
            yield
        finally:
            self.tr.end(idx)

    def _count(self, name, amount=1):
        if self.tr is not None:
            self.tr.count(name, amount)

    def run(self, op):
        """(CPU seconds, items, outcome) for one op; never raises."""
        kind = op[0]
        started = PROBE.clock()
        signal.setitimer(signal.ITIMER_REAL, self.cap_s)
        try:
            with self._span("bench.op"):
                return getattr(self, "op_" + kind)(op)
        except Exception as exc:  # the loop must go on; the op is recorded as failed
            return PROBE.clock() - started, 0, ("raised", type(exc).__name__, repr(exc)[:200])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def op_bfile(self, op):
        _, key, lo, hi = op
        t0 = PROBE.clock()
        text = self.lib["export_bfile"](self.cons[key], lo, hi)
        dt = PROBE.clock() - t0
        with self._span("bench.check"):
            outcome = ("ok", digest_bytes(text.encode()))
        self._count("sequence.export_bfile.bytes", len(text))
        self._count("sequence.sequence_range.terms", hi - lo + 1)
        return dt, hi - lo + 1, outcome

    def op_nth(self, op):
        _, key, n, method = op
        cons = self.cons[key]
        if method == "recurrence":
            cache = {}
            t0 = PROBE.clock()
            value = self.lib["count_recurrence"](cons, n, cache)
            dt = PROBE.clock() - t0
            self._count("sequence.count_recurrence.cache_entries", len(cache))
            del cache
        else:
            t0 = PROBE.clock()
            series = self.lib["expand"](self.lib["build_gf"](cons), n)
            value = series[n]
            dt = PROBE.clock() - t0
            self._count("sequence.expand.terms", len(series))
            del series
        self._count("sequence.results")
        self._count("sequence.result_digits", int(value.bit_length() * 0.30103) + 1)
        with self._span("bench.check"):
            outcome = ("ok", digest_int(value))
        return dt, 1, outcome

    def _count_brute(self, n, constraint_or_rs):
        try:
            value = self.lib["count_brute"](n, constraint_or_rs)
        except arndt.BruteForceCeilingError:
            self._count("enumeration.count_brute.refused")
            raise
        self._count("enumeration.count_brute.counted", value)
        return value

    def op_count(self, op):
        _, key, n = op
        t0 = PROBE.clock()
        value = self._count_brute(n, self.cons[key])
        return PROBE.clock() - t0, value, ("ok", value)

    def op_count_rs(self, op):
        _, key, n = op
        t0 = PROBE.clock()
        value = self._count_brute(n, self.lib["residue_system"](self.cons[key]))
        return PROBE.clock() - t0, value, ("ok", value)

    def _drain(self, name, t0, stream):
        # Chunks keep memory flat whatever the stream's length; the clock
        # stops while a chunk is digested.
        busy, digest = 0.0, LinesDigest()
        with self._span(f"enumeration.{name}"):
            while True:
                chunk = list(islice(stream, STREAM_CHUNK))
                busy += PROBE.clock() - t0
                if not chunk:
                    break
                with self._span("bench.check"):
                    for c in chunk:
                        digest.add(c.parts)
                t0 = PROBE.clock()
        count, hexdigest = digest.result()
        self._count(f"enumeration.{name}.yielded", count)
        return busy, count, ("ok", (count, hexdigest))

    def op_arndt(self, op):
        _, key, n = op
        t0 = PROBE.clock()
        stream = arndt.arndt_compositions(n, self.cons[key])
        return self._drain("arndt_compositions", t0, stream)

    def op_cong(self, op):
        _, key, n = op
        t0 = PROBE.clock()
        rs = self.lib["residue_system"](self.cons[key])
        stream = arndt.congruence_compositions(n, rs)
        return self._drain("congruence_compositions", t0, stream)

    def op_bij(self, op):
        _, key, parts = op
        cons = self.cons[key]
        t0 = PROBE.clock()
        comp = self.lib["Composition"](parts)
        image = self.lib["forward"](comp, cons)
        back = self.lib["backward"](image, cons)
        dt = PROBE.clock() - t0
        with self._span("bench.check"):
            outcome = ("ok", (digest_parts(image.parts), back.parts == parts))
        self._count("bijection.forward.parts_in", len(parts))
        self._count("bijection.forward.parts_out", len(image))
        self._count("bijection.backward.parts_in", len(image))
        self._count("bijection.backward.parts_out", len(back))
        return dt, len(parts), outcome

    def op_cli(self, op):
        _, argv, _usage_error = op
        with self._span("cli.process"):
            # Half the op's cap, so that the launcher answers before the
            # worker's own timer fires.
            reply = self.launcher.run(argv, self.cap_s / 2)
        dt, stdout = reply["seconds"], reply["stdout"]
        outcome = ("exit", reply["code"], stdout)
        if self.tr is not None:
            self._count(f"cli.exit.{reply['code']}")
            self._count("cli.stdout_bytes", len(stdout.encode()))
            # The same argv in-process, so that interpreter start-up and
            # import can be told apart from the command's own work.
            out, err = io.StringIO(), io.StringIO()
            with self._span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = arndt.cli.main(list(argv))
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
            outcome += (code, out.getvalue())
        return dt, 1, outcome


class SetupSampler:
    """Set-up of fresh workers (see the module docstring), sampled at even
    intervals over a run so that the samples see the same host as the ops."""

    def __init__(self, job):
        self.argv = [sys.executable, __file__, sys.argv[1], sys.argv[2], "--setup-only"]
        self.env, self.root = job["env"], job["root"]
        self.due = [job["seconds"] * j / SETUP_SPAWNS for j in range(SETUP_SPAWNS)]
        self.samples, self.cpu_samples = [], []

    def poll(self, elapsed) -> bool:
        """Take the samples that are due; whether there were any."""
        if not self.due or self.due[0] > elapsed:
            return False
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            before = reference_seconds()
            proc = subprocess.run(self.argv, env=self.env, cwd=self.root, check=True,
                                  capture_output=True, timeout=60)
            cpu_s = float(proc.stdout)
            self.samples.append(scaled(cpu_s, [before, reference_seconds()]))
            self.cpu_samples.append(cpu_s)
        return True


def run_loop(rounds, seconds, runner, tracer=None, sampler=None):
    """Whole rounds, cyclically, until ``seconds`` have passed.  Records are
    (round index, op index, scaled latency, CPU latency, items, outcome)."""
    records = []
    start = perf_counter()
    before = reference_seconds()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        ri = r % len(rounds)
        for i, op in enumerate(rounds[ri]):
            if tracer is not None:
                tracer.op_id = len(records)
            PROBE.start()
            cpu_s, items, outcome = runner.run(op)
            inside = PROBE.stop()
            after = reference_seconds()
            records.append((ri, i, scaled(cpu_s, [before, *inside, after]), cpu_s, items, outcome))
            before = after
            if sampler is not None and sampler.poll(perf_counter() - start):
                before = reference_seconds()
        r += 1
    return records, perf_counter() - start


def import_seconds(env, times=11):
    """Median time a fresh interpreter spends in ``import arndt.cli``, that
    is, an invocation's start-up less that of a bare interpreter."""
    code = "import time; t = time.perf_counter(); import arndt.cli; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, timeout=60).stdout)
        for _ in range(times)
    )


def main():
    job = pickle.load(sys.stdin.buffer)
    for _ in range(20):  # let the interpreter specialise the loop's bytecode
        reference_seconds()
    signal.signal(signal.SIGALRM, _on_alarm)
    launcher = Launcher(job["env"], job["root"]) if job["workload"] == "cli-mix" else None
    result = {}
    if not job["trace"]:
        runner, sampler = Runner(job, launcher=launcher), SetupSampler(job)
        result["records"], result["wall_s"] = run_loop(
            job["rounds"], job["seconds"], runner, sampler=sampler)
        sampler.poll(float("inf"))
        result["setup_samples_s"] = sampler.samples
        result["setup_cpu_samples_s"] = sampler.cpu_samples
    else:
        # Half the time untraced, half traced: their difference in
        # throughput is the tracing overhead.
        half = job["seconds"] / 2
        runner = Runner(job, launcher=launcher)
        result["untraced_records"], _ = run_loop(job["rounds"], half, runner)
        tracer = Tracer()
        runner = Runner(job, tracer, launcher)
        try:
            result["records"], result["wall_s"] = run_loop(job["rounds"], half, runner, tracer)
        finally:
            runner.close()
        summary = summarize(tracer.spans)
        result["summary"] = summary
        result["layer_self_s"] = layer_self_time(summary)
        result["counters"] = dict(tracer.counters)
        result["spans"] = tracer.as_json()
        if launcher is not None:
            result["import_s"] = import_seconds(job["env"])
    if launcher is not None:
        result["peak_rss_mb"] = launcher.close()
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pickle.dump(result, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
