"""Workloads of the sra benchmark: fixed job lists with exact expected outputs.

Each workload's `prepare` builds, from a freshly imported ``sra``, the
objects that its jobs only read (this is the timed set-up), and returns the
job list.  A job's `run` is the timed call into the program; `digest`
renders its output in the exact form recorded in ``golden.json``; `check` is
a cheap independent test of the same output.  Neither of the last two is
timed.  Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Job:
    __slots__ = ("name", "rung", "run", "digest", "check", "block")

    def __init__(self, name, rung, run, digest, check=None, block=None):
        self.name = name        # key in golden.json
        self.rung = rung        # per-rung detail metric this job's time adds to
        self.run = run          # () -> output; the timed call
        self.digest = digest    # output -> exact rendering compared with the golden
        self.check = check      # output -> failure reason or None; independent
        # Jobs of one block share memos and keep their order; the seed orders
        # the blocks, so a job's time does not depend on the seed.
        self.block = block or name


# -- glc-groups ---------------------------------------------------------------

GLC_GROUPS = [
    ("s4", "doubled-A", {"rank": 4}),
    ("s5", "doubled-A", {"rank": 5}),
    ("b3", "doubled-B", {"rank": 3}),
    ("b4", "doubled-B", {"rank": 4}),
    ("z2xs3", "product", {"factors": [("cyclic", {"n": 2}), ("doubled-A", {"rank": 3})]}),
]


def _glc_job(sra, label, kind, params):
    def run():
        group = sra.builtin(kind, **params)
        counts = group.kappa_counts()
        algebra = sra.Algebra(group)
        fns = [sra.solve_glc(algebra, kappa, verify=True) for kappa in (1, -1)]
        return group, counts, fns

    def digest(out):
        _, counts, fns = out
        return sha256(json.dumps({"counts": list(counts),
                                  "functionals": [sra.functional_to_json(f) for f in fns]}))

    def check(out):
        # (T, S) by a second route: g has no eigenvalue kappa iff det(g - kappa) != 0
        group, counts, _ = out
        m = group.exponent
        ident = sra.Matrix.identity(group.dim, m)
        brute = []
        for kappa in (1, -1):
            shift = ident.scaled(sra.Cyclotomic.from_rational(kappa, m))
            brute.append(sum(1 for rep in group.class_rep
                             if not sra.det(group.elements[rep].matrix - shift).is_zero()))
        if tuple(brute) != tuple(counts):
            return f"kappa_counts {tuple(counts)} but eigenvalue count {tuple(brute)}"
        return None

    return Job(label, f"glc.{label}.s", run, digest, check)


def prepare_glc_groups(sra, golden):
    return [_glc_job(sra, label, kind, params) for label, kind, params in GLC_GROUPS]


# -- gram-scan ------------------------------------------------------------------

GRAM_JOBS = [
    ("z2_d4", ["--builtin", "cyclic", "--n", "2", "--kappa", "both", "--degree", "4"]),
    ("z3_d2", ["--builtin", "cyclic", "--n", "3", "--kappa", "both", "--degree", "2"]),
    ("s3_d0", ["--builtin", "doubled-A", "--rank", "3", "--degree", "0"]),
    ("b2_d0", ["--builtin", "doubled-B", "--rank", "2", "--degree", "0"]),
]

Z2_D4_ROOTS = {Fraction(r) for r in (-5, -3, -1, 1, 3, 5)}


def _gram_job(sra, label, args):
    argv = ["--json", "gram"] + args

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = sra.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sra {' '.join(argv)} exited with {code}")
        return buf.getvalue().encode()

    def check(out):
        if label != "z2_d4":
            return None
        for kappa, report in json.loads(out)["kappa"].items():
            roots = {Fraction(r) for r in report["rational_roots"] or ()}
            if roots != Z2_D4_ROOTS:
                return f"Z_2 d = 4 kappa {kappa}: rational roots {sorted(roots)}"
        return None

    return Job(label, f"gram.{label}.s", run, lambda out: hashlib.sha256(out).hexdigest(), check)


def prepare_gram_scan(sra, golden):
    return [_gram_job(sra, label, args) for label, args in GRAM_JOBS]


# -- eval-words -------------------------------------------------------------------

EVAL_GROUPS = {
    "s3": ("doubled-A", {"rank": 3}),
    "b2": ("doubled-B", {"rank": 2}),
    "z3": ("cyclic", {"n": 3}),
    "z4": ("cyclic", {"n": 4}),
}


def trace_value_json(sra, value) -> str:
    """Exact rendering of a TraceValue: P_i -> [(eta exponent, coefficient)]."""
    return json.dumps({f"P{i}": [[list(e), sra.literal(c)] for e, c in poly.sorted_terms()]
                       for i, poly in sorted(value.coeffs.items())}, sort_keys=True)


def build_element(sra, algebra, terms):
    """Sum of coeff * a_(l1) ... a_(lk) * g_(w1) ... g_(wj) over the terms
    [coeff, letters, generator word]; letters are zero-based."""
    group = algebra.group
    out = algebra.zero()
    for coeff, letters, gword in terms:
        el = algebra.one()
        for gi in gword:
            el = el * algebra.group_element(group.generator_keys[gi])
        for i in reversed(letters):
            el = algebra.generator(i) * el
        out = out + el.scaled(coeff)
    return out


def _parity(terms) -> int:
    return len(terms[0][1]) % 2


def _eval_batch(sra, label, group_label, batch, algebra, fns):
    """One job: every word of one group and degree (or its cyclicity pairs),
    evaluated by both kappa-functionals."""
    def run():
        out = []
        for case in batch:
            if "h" in case:
                f = build_element(sra, algebra, case["f"])
                h = build_element(sra, algebra, case["h"])
                fh, hf = f * h, h * f
                out.append([(fn.evaluate(fh), fn.evaluate(hf)) for fn in fns])
            else:
                el = build_element(sra, algebra, case["terms"])
                out.append([fn.evaluate(el) for fn in fns])
        return out

    def digest(out):
        rows = []
        for vals in out:
            rows.append([[trace_value_json(sra, v) for v in pair] if isinstance(pair, tuple)
                         else trace_value_json(sra, pair) for pair in vals])
        return sha256(json.dumps(rows))

    def check(out):
        # cyclicity: sp(f h) = kappa^(p(f) p(h)) sp(h f)
        for case, vals in zip(batch, out):
            if "h" not in case:
                continue
            odd = _parity(case["f"]) * _parity(case["h"])
            for fn, (fh, hf) in zip(fns, vals):
                if fh != hf.scaled(fn.kappa if odd else 1):
                    return f"{label}: cyclicity fails for kappa {fn.kappa}"
        return None

    return Job(label, f"eval.{group_label}.s", run, digest, check, block=group_label)


def prepare_eval_words(sra, golden):
    cases = golden["eval_inputs"]
    jobs = []
    for group_label, (kind, params) in EVAL_GROUPS.items():
        group = sra.builtin(kind, **params)
        algebra = sra.Algebra(group)
        fns = [sra.solve_glc(algebra, kappa, verify=False) for kappa in (1, -1)]
        for label in sorted(cases):
            if label.startswith(group_label + "."):
                jobs.append(_eval_batch(sra, label, group_label, cases[label], algebra, fns))
    return jobs


# -- normal-order -----------------------------------------------------------------

NORMAL_ORDER = ([("k%d" % k, "z2", "a2^%d*a1^%d" % (k, k)) for k in (10, 15, 20, 25, 32)]
                + [("b2_p%d" % k, "b2", "(a1+a3*g0+a2*g1)^%d" % k) for k in range(1, 7)])


def prepare_normal_order(sra, golden):
    groups = {"z2": sra.builtin("cyclic", n=2), "b2": sra.builtin("doubled-B", rank=2)}
    jobs = []
    for label, group_label, text in NORMAL_ORDER:
        # a fresh algebra per rung, so each rung's time does not depend on job order
        algebra = sra.Algebra(groups[group_label])
        jobs.append(Job(label, f"normal_order.{label}.s",
                        lambda text=text, algebra=algebra: sra.parse(text, algebra),
                        lambda out: sha256(sra.print_element(out))))
    return jobs


PREPARE = {
    "glc-groups": prepare_glc_groups,
    "gram-scan": prepare_gram_scan,
    "eval-words": prepare_eval_words,
    "normal-order": prepare_normal_order,
}

# The largest job of each workload, reported as top_rung_s.  normal-order's
# largest rung k32 fails at this commit, so its top rung is the largest one
# that completes.
TOP_RUNG = {"glc-groups": "b4", "gram-scan": "z2_d4", "eval-words": "s3.d8",
            "normal-order": "k25"}

RUNGS = {
    "glc-groups": [f"glc.{label}.s" for label, _, _ in GLC_GROUPS],
    "gram-scan": [f"gram.{label}.s" for label, _ in GRAM_JOBS],
    "eval-words": [f"eval.{g}.s" for g in EVAL_GROUPS],
    "normal-order": [f"normal_order.{label}.s" for label, _, _ in NORMAL_ORDER],
}

IMPORTS = {"gram-scan": ["sra.cli"]}
