"""Benchmark of the sra package: one workload per run, exact outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
same tree and nowhere else; without it the run fails with exit code 2.

A run makes passes over the workload's fixed job list until ``--seconds``
have gone by, and at least two.  Every pass re-imports ``sra`` and rebuilds its
groups, algebras and functionals, so module caches and memos start empty
each time.  Before the first pass the set-up alone is also made and thrown
away a few times, so ``setup_s`` is a median of many samples.  ``--seed``
fixes the order of the jobs; the inputs themselves are fixed, so their exact
outputs can be compared with ``golden.json``.  A job fails when it raises
(``RecursionError`` included), overruns its time budget or returns an output
that differs from the golden or fails its independent check; the run carries
on either way.

On a shared host the interpreter's speed can swing by half within tens of
seconds (identical eval-words passes took 6.3 s and 10.3 s on a 2-vCPU
virtual machine), and those swings, not the program, would dominate the
spread of raw times.  So a
fixed pure-Python reference loop that calls nothing of ``sra`` is timed
before and after every set-up and every job, and each time is scaled by
``REFERENCE_S`` over the reference loop's time around it: the gated times are
seconds on a host at the speed where that loop takes ``REFERENCE_S``.  A
change to the program moves them in full; the times as measured are printed
beside them, not gated.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs one untraced pass, for the scaled per-rung times,
and one traced pass, for the per-layer metrics and the tracing overhead, and
writes the spans to ``bench/out/``.  The last line of standard output is one JSON
object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time

import jobs as workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

JOB_BUDGET_S = 30.0      # a job running longer fails
TRACED_BUDGET_SCALE = 4  # tracing slows the traced pass down
RUN_DEADLINE_S = 150.0   # no job starts or runs past this point of the run
MIN_PASSES = 2           # passes per run, however long a pass takes
SETUP_SAMPLES = 15       # set-ups made before the passes, besides one per pass
REFERENCE_S = 0.010      # the reference loop's time on a host at reference speed
REFERENCE_ROUNDS = 4000  # size of the reference loop

perf = time.perf_counter


class BudgetExceeded(BaseException):
    """Raised by the interval timer; a BaseException so program code that
    catches Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def reference_loop() -> int:
    """A fixed pure-Python computation of the kind sra spends its time in
    (integer vectors reduced by their gcd, dict updates keyed by tuples)
    that calls nothing of sra, so no change to the program can move it."""
    memo: dict = {}
    vec = [3, 1, 4, 1, 5, 9, 2, 6]
    for i in range(REFERENCE_ROUNDS):
        vec = [(a * 31 + b * 17 + i) % 1000003 for a, b in zip(vec, vec[1:] + vec[:1])]
        g = math.gcd(*vec) or 1
        key = (vec[0] % 61, vec[1] % 7)
        memo[key] = memo.get(key, 0) + vec[2] // g
    return len(memo)


def reference_time() -> float:
    """Median of three timings of the reference loop, with the cycle
    collector off so the program's live objects cannot slow it."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf()
            reference_loop()
            times.append(perf() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def sra_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "sra" or n.startswith("sra.")}


def import_sra(extra):
    """Import sra afresh from SRC; returns (module, seconds)."""
    for name in sra_modules():
        del sys.modules[name]
    t0 = perf()
    sra = importlib.import_module("sra")
    for name in extra:
        importlib.import_module(name)
    return sra, perf() - t0


class Pass:
    def __init__(self):
        self.setups: list[float] = []           # scaled
        self.times: dict[str, float] = {}       # as measured
        self.scaled: dict[str, float] = {}
        self.rungs: dict[str, float] = {}       # scaled
        self.failures: dict[str, str] = {}
        self.incorrect: dict[str, str] = {}


class Runner:
    def __init__(self, workload: str, seed: int, golden: dict, start: float):
        self.workload = workload
        self.golden = golden
        self.expected = golden["digests"][workload]
        self.deadline = start + RUN_DEADLINE_S
        self.extra_imports = workloads.IMPORTS.get(workload, [])
        self.seed = seed
        self.reference_times: list[float] = []

    def reference(self) -> float:
        t = reference_time()
        self.reference_times.append(t)
        return t

    def scale(self, before: float, after: float) -> float:
        """Factor from this host's speed around a timed piece to reference speed."""
        return REFERENCE_S * 2 / (before + after)

    def setup(self, tracer=None):
        sra, import_s = import_sra(self.extra_imports)
        if tracer is not None:
            tracer.install()
            tracer.on = True
            idx = tracer.open("setup")
        t0 = perf()
        job_list = workloads.PREPARE[self.workload](sra, self.golden)
        setup_s = import_s + perf() - t0
        if tracer is not None:
            tracer.close(idx)
        return job_list, setup_s

    def sample_setups(self, n: int) -> list[float]:
        """Time n set-ups, each from a fresh import, keeping none of them."""
        times = []
        for _ in range(n):
            gc.collect()
            before = self.reference()
            setup_s = self.setup()[1]
            times.append(setup_s * self.scale(before, self.reference()))
        gc.collect()
        return times

    def order(self, job_list):
        blocks: dict[str, list] = {}
        for job in job_list:
            blocks.setdefault(job.block, []).append(job)
        names = sorted(blocks)
        random.Random(self.seed).shuffle(names)
        return [job for name in names for job in blocks[name]]

    def run_pass(self, tracer=None) -> Pass:
        result = Pass()
        gc.collect()
        before = self.reference()
        job_list, setup_s = self.setup(tracer)
        after = self.reference()
        result.setups.append(setup_s * self.scale(before, after))
        gc.collect()
        budget_scale = TRACED_BUDGET_SCALE if tracer is not None else 1
        for job in self.order(job_list):
            # Objects left by earlier jobs are frozen out of the cycle
            # collector, so a job's collection pauses do not depend on which
            # jobs the seed ordered before it.
            gc.collect()
            gc.freeze()
            before = after
            self.run_job(job, result, budget_scale, tracer)
            after = self.reference()
            scaled = result.times[job.name] * self.scale(before, after)
            result.scaled[job.name] = scaled
            result.rungs[job.rung] = result.rungs.get(job.rung, 0.0) + scaled
        gc.unfreeze()
        if tracer is not None:
            tracer.on = False
        return result

    def run_job(self, job, result: Pass, scale: float, tracer):
        budget = min(JOB_BUDGET_S * scale, self.deadline - perf())
        if budget <= 0:
            result.times[job.name] = 0.0
            result.failures[job.name] = "not started: run deadline reached"
            return
        depth = len(tracer.stack) if tracer is not None else 0
        if tracer is not None:
            idx = tracer.open(f"job:{job.name}")
        out = None
        t0 = perf()
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                out = job.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            result.failures[job.name] = f"time budget of {budget:.1f} s exceeded"
        except (Exception, SystemExit) as exc:
            result.failures[job.name] = f"{type(exc).__name__}: {str(exc)[:120]}"
        result.times[job.name] = perf() - t0
        if tracer is not None:
            tracer.unwind(depth + 1)
            tracer.close(idx)
            tracer.on = False
        if job.name not in result.failures:
            reason = self.verify(job, out)
            if reason is not None:
                result.failures[job.name] = reason
                result.incorrect[job.name] = reason
            elif tracer is not None and isinstance(out, bytes):
                tracer.extra["cli.json_bytes"] += len(out)   # the CLI's JSON output
        if tracer is not None:
            tracer.on = True

    def verify(self, job, out):
        expected = self.expected.get(job.name)
        try:
            got = job.digest(out)
            if got != expected:
                return f"output {got[:16]} differs from golden {str(expected)[:16]}"
            if job.check is not None:
                return job.check(out)
        except Exception as exc:
            return f"checking the output raised {type(exc).__name__}: {exc}"
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, passes: list[Pass], setups: list[float]) -> dict:
    top = workloads.TOP_RUNG[runner.workload]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    setups = setups + [s for p in passes for s in p.setups]
    return {
        "wall_s": (median([sum(p.scaled.values()) for p in passes]), len(passes)),
        "top_rung_s": (median([p.scaled[top] for p in passes]), len(passes)),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ok_ratio": ((attempted - failed) / attempted, attempted),
    }


def ungated(runner: Runner, passes: list[Pass]) -> dict:
    """Metrics printed with the end-to-end ones but not reported to the gate:
    the median job is a short one whose spread exceeds any usable bound, a
    failure ratio reads 0 on most workloads (ok_ratio carries it), and times
    as measured follow this host's speed as much as the program's."""
    top = workloads.TOP_RUNG[runner.workload]
    times = [t for p in passes for t in p.scaled.values()]
    failed = sum(len(p.failures) for p in passes)
    return {"job_s.p50": (median(times), len(times), "s"),
            "failed_ratio": (failed / len(times), len(times), "ratio"),
            "wall_s.measured": (median([sum(p.times.values()) for p in passes]),
                                len(passes), "s"),
            "top_rung_s.measured": (median([p.times[top] for p in passes]), len(passes), "s"),
            "reference_loop_s": (median(runner.reference_times),
                                 len(runner.reference_times), "s")}


def per_layer(tracer: Tracer, untraced: Pass, traced: Pass) -> dict:
    out = {}
    for name in ("scalar.cyc_mul", "scalar.cyc_inverse", "scalar.eta_mul",
                 "scalar.exact_divide", "linalg.det", "linalg.inverse", "group.mul",
                 "algebra.mul", "algebra.nf_word", "traces.evaluate"):
        out[name + ".calls"] = tracer.calls[name]
    for name in ("scalar.exact_divide", "linalg.det", "linalg.kernel_basis",
                 "linalg.eigen_decompose", "linalg.darboux_basis", "group.build",
                 "group.e_grading", "algebra.mul", "algebra.chart", "traces.solve_glc",
                 "traces.verify_glc", "traces.evaluate", "traces.gram", "expr.parse",
                 "cli.main"):
        out[name + ".s"] = tracer.total_s(name)
    for name in ("group.mul", "algebra.nf_word"):
        calls, distinct = tracer.calls[name], tracer.distinct(name)
        out[name + ".distinct"] = distinct
        out[name + ".hit_ratio"] = 1.0 - distinct / calls if calls else 0.0
    # the determinant and roots: gram minus the fill (evaluate and mul children)
    out["traces.gram.self_s"] = tracer.self_s("traces.gram", {"traces.evaluate", "algebra.mul"})
    # argument handling, algebra set-up glue and JSON encoding
    out["cli.self_s"] = tracer.self_s("cli.main")
    out["cli.json_bytes"] = tracer.extra["cli.json_bytes"]
    out["trace.overhead_s"] = sum(traced.times.values()) - sum(untraced.times.values())
    out["job_s.p50"] = median(list(untraced.scaled.values()))
    for rung_list in workloads.RUNGS.values():
        for rung in rung_list:
            out[rung] = untraced.rungs.get(rung, 0.0)
    return out


def main(argv=None) -> int:
    start = perf()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sra", "__init__.py")):
        print(f"error: no sra package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.dont_write_bytecode = False   # measured imports read bytecode, as an installed package does
    sra, _ = import_sra([])
    if os.path.realpath(sra.__file__) != os.path.realpath(os.path.join(SRC, "sra", "__init__.py")):
        print(f"error: imported sra from {sra.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)

    runner = Runner(args.workload, args.seed, golden, start)
    if args.trace:
        untraced = runner.run_pass()
        tracer = Tracer()
        traced = runner.run_pass(tracer)
        passes = [untraced, traced]
        values = {k: (v, 1) for k, v in per_layer(tracer, untraced, traced).items()}
        declared = spec["per_layer"]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed})
    else:
        setups = runner.sample_setups(SETUP_SAMPLES)
        passes = []
        t_measure = perf()
        while True:
            t0 = perf()
            passes.append(runner.run_pass())
            last = perf() - t0
            if perf() + last > runner.deadline or (
                    len(passes) >= MIN_PASSES and perf() - t_measure >= args.seconds):
                break
        values = end_to_end(runner, passes, setups)
        declared = spec["end_to_end"]

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    incorrect = {n: r for p in passes for n, r in p.incorrect.items()}
    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} jobs attempted, {failed} failed")
    for m in declared:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']:<6} (samples: {samples})")
    if not args.trace:
        for name, (value, samples, unit) in ungated(runner, passes).items():
            print(f"  {name:<28} {value:>14.6g} {unit:<6} (samples: {samples}; not gated)")
    for name, reason in sorted({n: r for p in passes for n, r in p.failures.items()}.items()):
        print(f"  failed job {name}: {reason}")
    print(json.dumps({"correct": not incorrect, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
