"""Command-line front end: group analysis, trace/supertrace counts, ground
level solving, trace evaluation, eta=0 cross-checks, Gram scans, and the
property self-test suite.  All arithmetic lives in the library; every
subcommand is a thin adapter with deterministic (optionally JSON) output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .scalar import DEFAULT_CAP, literal, parse_rational, render_eta
from .group import BUILTINS, builtin, load_group, save_group
from .algebra import Algebra
from .traces import (
    InconsistentGLCError,
    _check_basis_size,
    _eta_poly_json,
    _trace_value_json,
    confluence_failures,
    cyclicity_failures,
    even_monomials,
    format_trace_value as _tv_human,
    gram,
    oracle_mismatches,
    solve_glc,
    verify_glc,
)
from .expr import GRAMMAR, parse, print_element

# every domain error of the package is a ValueError; a file that cannot be
# read is an OSError
DOMAIN_ERRORS = (ValueError, OSError, ZeroDivisionError, InconsistentGLCError)


def _add_group_args(p: argparse.ArgumentParser):
    p.add_argument("--group", metavar="FILE", help="group definition file (JSON)")
    p.add_argument("--builtin", choices=list(BUILTINS), help="builtin group constructor")
    p.add_argument("--n", type=int, help="parameter n for cyclic/dihedral")
    p.add_argument("--rank", type=int,
                   help="doubled-A: the n of S_n (builds A_(n-1)); doubled-B: the rank")
    p.add_argument("--factors", metavar="SPEC",
                   help="product factors, e.g. 'cyclic:2,cyclic:3' or 'doubled-A:3'")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="closure element cap (default %(default)s)")


def _parse_factor(spec: str):
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    if kind not in BUILTINS or kind == "product":
        raise ValueError(f"unknown product factor {spec!r}")
    try:
        return kind, {BUILTINS[kind]: int(arg)}
    except ValueError:
        raise ValueError(f"product factor {spec!r} is not of the form kind:N, "
                         f"such as 'cyclic:2'") from None


def _make_group(args):
    if bool(args.group) == bool(args.builtin):
        raise ValueError("choose exactly one of --group FILE or --builtin NAME")
    if args.group:
        return load_group(args.group, cap=args.cap)
    kind, param = args.builtin, BUILTINS[args.builtin]
    value = getattr(args, param)
    if value is None or value == "":
        raise ValueError(f"--builtin {kind} needs --{param}")
    if kind == "product":
        value = [_parse_factor(s) for s in value.split(",")]
    return builtin(kind, cap=args.cap, **{param: value})


def _kappas(arg: str):
    if arg == "both":
        return (1, -1)
    return (int(arg),)


def _emit(payload: dict, args, human_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _group_header(group):
    return {
        "group": group.name,
        "order": len(group),
        "N": group.N,
        "cyclotomic_order": group.exponent,
        "classes": len(group.classes),
        "reflections": len(group.reflections),
        "eta_variables": group.n_eta,
    }


# -- subcommands -----------------------------------------------------------


def cmd_group(args):
    group = _make_group(args)
    classes = []
    for i, cls in enumerate(group.classes):
        rep = group.class_rep[i]
        classes.append({
            "label": f"C{i}",
            "size": len(cls),
            "rep_order": group.elements[rep].order,
            "E_plus": group.e_grading(rep, +1)[0],
            "E_minus": group.e_grading(rep, -1)[0],
            "is_reflection_class": i in group.eta_vars,
            "eta_variable": group.eta_vars.get(i),
        })
    payload = _group_header(group)
    payload["class_table"] = classes
    payload["klein"] = group.klein() is not None
    lines = [f"group {group.name}: |G| = {len(group)}, N = {group.N}, "
             f"m = {group.exponent}, Klein operator: "
             f"{'present' if payload['klein'] else 'absent'}",
             f"{len(group.classes)} conjugacy classes, "
             f"{len(group.reflections)} reflections in {group.n_eta} classes",
             "label  size  order  E+  E-  eta"]
    for c in classes:
        eta = f"eta{c['eta_variable']}" if c["eta_variable"] is not None else "-"
        lines.append(f"{c['label']:<6} {c['size']:<5} {c['rep_order']:<6} "
                     f"{c['E_plus']:<3} {c['E_minus']:<3} {eta}")
    if args.save:
        save_group(group, args.save)
        lines.append(f"saved group file to {args.save}")
        payload["saved"] = args.save
    _emit(payload, args, lines)
    return 0


def cmd_counts(args):
    group = _make_group(args)
    t_count, s_count = group.kappa_counts()
    payload = _group_header(group)
    payload.update({"traces": t_count, "supertraces": s_count})
    _emit(payload, args, [
        f"group {group.name}: |G| = {len(group)}",
        f"independent traces      T = {t_count}",
        f"independent supertraces S = {s_count}",
    ])
    return 0


def cmd_glc(args):
    group = _make_group(args)
    algebra = Algebra(group, t=parse_rational("--t", args.t))
    payload = _group_header(group)
    payload["kappa"] = {}
    lines = [f"group {group.name}: ground level conditions"]
    for kappa in _kappas(args.kappa):
        fn = solve_glc(algebra, kappa, verify=not args.no_verify)
        payload["kappa"][str(kappa)] = fn.to_dict()
        word = "trace" if kappa == 1 else "supertrace"
        lines.append(f"kappa = {kappa:+d} ({word}): {fn.nparams} free parameter(s): "
                     + ", ".join(f"P{i}=sp(C{ci})" for i, ci in enumerate(fn.free_classes)))
        for ci in range(len(group.classes)):
            lines.append(f"  sp(C{ci}) = {_tv_human(fn.table[ci])}")
        if not args.no_verify:
            lines.append("  all redundant ground level equations vanish identically")
    _emit(payload, args, lines)
    return 0


def cmd_eval(args):
    group = _make_group(args)
    algebra = Algebra(group, t=parse_rational("--t", args.t))
    payload = _group_header(group)
    payload["expr"] = args.expr
    payload["kappa"] = {}
    lines = []
    f = parse(args.expr, algebra)
    lines.append(f"expr: {print_element(f)}")
    for kappa in _kappas(args.kappa):
        fn = solve_glc(algebra, kappa, verify=False)
        val = fn.evaluate(f)
        entry = {"free_classes": [f"C{ci}" for ci in fn.free_classes],
                 "value": _trace_value_json(val)}
        if group.eta_assignment is not None and group.n_eta:
            # a "symbolic" eta stays a variable of the values at the point
            point = [group.eta_assignment.get(i) for i in range(group.n_eta)]
            at_eta = {f"P{i}": c.substitute(point) for i, c in sorted(val.coeffs.items())}
            entry["eta_point"] = ["symbolic" if x is None else str(x) for x in point]
            entry["value_at_eta"] = {
                k: _eta_poly_json(c) if None in point else literal(c.constant_term())
                for k, c in at_eta.items()}
        payload["kappa"][str(kappa)] = entry
        word = "tr" if kappa == 1 else "str"
        lines.append(f"kappa = {kappa:+d}: {word}(expr) = {_tv_human(val)}")
        if "value_at_eta" in entry:
            # at_eta runs in parameter order (P2 before P10); vanishing values are left out
            at = ", ".join(f"{k}: {render_eta(c)[0]}" for k, c in at_eta.items()
                           if not c.is_zero())
            lines.append(f"  at eta = ({', '.join(entry['eta_point'])}): {at or '0'}")
    _emit(payload, args, lines)
    return 0


def cmd_oracle_check(args):
    group = _make_group(args)
    algebra = Algebra(group)
    payload = _group_header(group)
    payload["max_degree"] = args.max_degree
    payload["kappa"] = {}
    lines = [f"group {group.name}: eta=0 oracle cross-check, degree <= {args.max_degree}"]
    # one evaluation per comparison, so their count, unlike a Gram basis
    # (whose work is its square), is held to the closure's cap
    _check_basis_size(group, args.max_degree, DEFAULT_CAP,
                      f"oracle comparison count at --max-degree {args.max_degree}")
    exponents = even_monomials(group.dim, args.max_degree)
    ok = True
    for kappa in _kappas(args.kappa):
        fn = solve_glc(algebra, kappa, verify=False)
        checked, mismatches = oracle_mismatches(fn, exponents)
        payload["kappa"][str(kappa)] = {"checked": checked, "mismatches": len(mismatches)}
        lines.append(f"kappa = {kappa:+d}: {checked} comparisons, {len(mismatches)} mismatches")
        lines.extend(f"  mismatch: exponent {list(exp)} on {label}" for exp, label in mismatches)
        ok = ok and not mismatches
    _emit(payload, args, lines)
    return 0 if ok else 1


def cmd_gram(args):
    group = _make_group(args)
    algebra = Algebra(group, t=parse_rational("--t", args.t))
    payload = _group_header(group)
    payload["kappa"] = {}
    lines = []
    assignment = None
    if args.assignment:
        assignment = [parse_rational("--assignment", x) for x in args.assignment.split(",")]
        # one value per free parameter, whose number T_G or S_G depends on kappa
        nparams = dict(zip((1, -1), group.kappa_counts()))
        for kappa in _kappas(args.kappa):
            if len(assignment) != nparams[kappa]:
                raise ValueError(f"--assignment gives {len(assignment)} value(s), but kappa = "
                                 f"{kappa:+d} has {nparams[kappa]} free parameter(s)")
    for kappa in _kappas(args.kappa):
        fn = solve_glc(algebra, kappa, verify=False)
        report = gram(fn, args.degree, assignment=assignment,
                      compute_determinant=not args.no_determinant)
        payload["kappa"][str(kappa)] = report.to_dict()
        lines.append(f"kappa = {kappa:+d}: Gram matrix on {len(report.basis)} basis "
                     f"elements (degree <= {args.degree})")
        if report.determinant is not None:
            lines.append(f"  det = {render_eta(report.determinant)[0]}")
            if report.rational_roots is not None:
                roots = ", ".join(str(r) for r in report.rational_roots) or "(none)"
                lines.append(f"  rational roots: {roots}")
    _emit(payload, args, lines)
    return 0


def cmd_selftest(args):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    rng = random.Random(args.seed)
    specs = [s.strip() for s in args.groups.split(",")]
    payload = {"seed": args.seed, "groups": {}}
    lines = [f"selftest: seed = {args.seed}, samples = {args.samples}"]
    failures = 0
    for spec in specs:
        kind, params = _parse_factor(spec)
        group = builtin(kind, **params)
        algebra = Algebra(group)
        inv_ok = not group.invariant_failures()
        report = {"group_invariants": inv_ok}
        for kappa in (1, -1):
            label = f"kappa{kappa:+d}"
            fn = solve_glc(algebra, kappa, verify=False)
            try:
                verify_glc(fn)
                glc_ok = True
            except InconsistentGLCError:
                glc_ok = False
            cyc_ok = not cyclicity_failures(fn, rng, args.samples, 3)
            conf_ok = not confluence_failures(fn, rng, args.samples, (2, 4))
            report[label] = {"glc_verified": glc_ok, "cyclicity": cyc_ok,
                             "confluence": conf_ok}
            if not (glc_ok and cyc_ok and conf_ok):
                failures += 1
        if not inv_ok:
            failures += 1
        payload["groups"][spec] = report
        lines.append(f"{spec}: invariants {'ok' if inv_ok else 'FAIL'}; " + "; ".join(
            f"{k}: glc {'ok' if v['glc_verified'] else 'FAIL'}, "
            f"cyclicity {'ok' if v['cyclicity'] else 'FAIL'}, "
            f"confluence {'ok' if v['confluence'] else 'FAIL'}"
            for k, v in report.items() if k.startswith("kappa")))
    _emit(payload, args, lines)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sra",
        description="Exact traces and supertraces on symplectic reflection algebras.")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="group info: classes, reflections, gradings")
    _add_group_args(sp)
    sp.add_argument("--save", metavar="FILE", help="write the group definition file")
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("counts", help="numbers of independent traces and supertraces")
    _add_group_args(sp)
    sp.set_defaults(func=cmd_counts)

    sp = sub.add_parser("glc", help="solve the ground level conditions")
    _add_group_args(sp)
    sp.add_argument("--kappa", choices=["1", "-1", "both"], default="both")
    sp.add_argument("--t", default="1", help="structure constant t (rational, default 1)")
    sp.add_argument("--no-verify", action="store_true",
                    help="skip the redundant-equation verification pass")
    sp.set_defaults(func=cmd_glc)

    sp = sub.add_parser(
        "eval", help="evaluate the kappa-trace of an expression",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="expression grammar:\n" + GRAMMAR)
    _add_group_args(sp)
    sp.add_argument("--kappa", choices=["1", "-1", "both"], default="both")
    sp.add_argument("--t", default="1")
    sp.add_argument("--expr", required=True, help="expression, e.g. 'a1*a2*g0 + 3/2'")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("oracle-check",
                        help="compare evaluate at eta=0 with the closed-form oracle")
    _add_group_args(sp)
    sp.add_argument("--kappa", choices=["1", "-1", "both"], default="both")
    sp.add_argument("--max-degree", type=int, default=4)
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("gram", help="Gram matrix of the bilinear form B_sp")
    _add_group_args(sp)
    sp.add_argument("--kappa", choices=["1", "-1", "both"], default="-1")
    sp.add_argument("--t", default="1")
    sp.add_argument("--degree", type=int, default=0, help="degree cutoff d")
    sp.add_argument("--assignment", help="free-parameter values, e.g. '1,0'")
    sp.add_argument("--no-determinant", action="store_true")
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("selftest", help="run the property suites at configurable sizes")
    sp.add_argument("--groups", default="cyclic:2,cyclic:3,doubled-A:3",
                    help="comma-separated builtin specs (default %(default)s)")
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_selftest)

    return p


# argparse reads the value of "--t -1/2" as an option, so a value with one
# leading minus sign is attached to these options as "--t=-1/2" before parsing
_SIGNED_VALUE_OPTIONS = ("--expr", "--assignment", "--t")


def _attach_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
