"""Record the benchmark's inputs and exact expected outputs in golden.json.

    python3 bench/make_golden.py

Run from the repository root, once, at the commit whose outputs define
correctness; the benchmark then compares every job's output with the digest
recorded here.  The eval-words inputs are drawn from a fixed seed, so
re-running this script reproduces the same file as long as the program's
outputs do not change.  The recursion limit is raised here only, so that
rungs which fail in the benchmark (normal-order k32) still get a golden
value to compare with once they complete.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sra  # noqa: E402
import sra.cli  # noqa: E402,F401
import jobs as workloads  # noqa: E402

POOL_SEED = 20130813
# words per (group, degree) and cyclicity pairs per group
WORDS = {"s3": {4: 4, 6: 4, 8: 3}, "b2": {4: 4, 6: 4, 8: 2},
         "z3": {4: 6, 6: 6, 8: 6}, "z4": {4: 6, 6: 6, 8: 6}}
PAIRS = 4
PAIR_MAX_DEGREE = 3


def eval_inputs() -> dict:
    """Seeded words times group elements, and definite-parity pairs (f, h).

    Every (group, degree) bucket draws from its own stream, so resizing one
    bucket leaves the others unchanged."""
    cases = {}
    for label, (kind, params) in workloads.EVAL_GROUPS.items():
        group = sra.builtin(kind, **params)
        words = [list(group.elements[k].word) for k in group.sorted_keys()]
        n = group.dim
        for degree, count in WORDS[label].items():
            rng = random.Random(f"{POOL_SEED}.{label}.d{degree}")
            cases[f"{label}.d{degree}"] = [
                {"terms": [[1, [rng.randrange(n) for _ in range(degree)], rng.choice(words)]]}
                for _ in range(count)]
        rng = random.Random(f"{POOL_SEED}.{label}.cyc")

        def term(degree):
            return [rng.choice([-2, -1, 1, 2]), [rng.randrange(n) for _ in range(degree)],
                    rng.choice(words)]

        def definite():
            parity = rng.randint(0, 1)
            degrees = [d for d in range(PAIR_MAX_DEGREE + 1) if d % 2 == parity]
            return [term(rng.choice(degrees)) for _ in range(rng.randint(1, 2))]

        cases[f"{label}.cyc"] = [{"f": definite(), "h": definite()} for _ in range(PAIRS)]
    return cases


def main():
    sys.setrecursionlimit(100_000)
    golden = {"pool_seed": POOL_SEED, "eval_inputs": eval_inputs(),
              "digests": {}}
    for workload, prepare in workloads.PREPARE.items():
        digests = golden["digests"][workload] = {}
        for job in prepare(sra, golden):
            out = job.run()
            reason = job.check(out) if job.check is not None else None
            if reason is not None:
                raise SystemExit(f"{workload} {job.name}: independent check failed: {reason}")
            digests[job.name] = job.digest(out)
            print(workload, job.name, digests[job.name][:16], flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
