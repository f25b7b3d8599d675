"""Command-line front end.

Documents travel as JSON on stdin/stdout so subcommands compose:

    cdgalab preset HEIS6_Z6 | cdgalab invariants
    cdgalab preset T6 | cdgalab cohomology
    cdgalab preset SASAKI7_S2CUBE | cdgalab massey --select a1 --select a1 --select a2

Reports print as text by default; `--format json` switches to the JSON
schema.  When the input document carries a group action, ring-level commands
work in the invariant (quotient) complex unless `--total` is given.  Exit
codes: 0 success, 1 validation/parse errors, 2 for an INCONCLUSIVE or
UNKNOWN outcome under `--strict`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from .cohomology import CohomClass, CohomologyRing, cohomology
from .errors import CdgaError, ParseError
from .lefschetz import lefschetz_test, universal_obstruction
from .massey import INCONCLUSIVE, MasseyReport, a_massey, higher_massey, triple_massey
from .minmodel import UNKNOWN, build_minimal_model, formality_verdict, s_formality_check
from .models import FIXED_PRESETS, PARAMETRIC_PRESETS, preset_document
from .serialize import (
    _rational,
    algebra_part,
    cohomology_report,
    document_from_json,
    document_to_json,
    dumps,
    element_from_json,
    element_to_json,
)
from .symmetry import invariant_cohomology
from .verify import run_all


def _load_document(args) -> dict:
    try:
        if getattr(args, "input", None):
            with open(args.input) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise ParseError("the input is not JSON", reason=exc.msg,
                         line=exc.lineno, column=exc.colno) from None
    if args.cap is not None:
        algebra_part(doc)["degree_cap"] = args.cap
    return doc


def _context(args):
    """Parse a document into (spec, action, classes, volume, meta, ring)."""
    doc = _load_document(args)
    spec, action, classes, volume, meta = document_from_json(doc)
    use_invariant = action is not None and not getattr(args, "total", False)
    max_degree = getattr(args, "max_degree", None)
    if max_degree is None:
        max_degree = meta.get("dim", spec.degree_cap - 1)
    if use_invariant:
        ring = invariant_cohomology(action, max_degree, volume=volume)
    else:
        ring = cohomology(spec, max_degree, volume=volume,
                          group_order=1)
    return spec, action, classes, volume, meta, ring


def _select_class(ring: CohomologyRing, classes, token: str) -> CohomClass:
    token = token.strip()
    if token.startswith("{"):
        try:
            data = json.loads(token)
            degree, values = data["degree"], data.get("coords", [])
            if (type(degree) is not int or not 0 <= degree <= ring.max_degree
                    or type(values) is not list):
                raise TypeError
            values = [_rational(v) for v in values]
        except (ValueError, TypeError, KeyError, ParseError):
            raise ParseError("a class selector needs an integer degree from 0 to the "
                             "max degree and a list of numbers as coords",
                             selector=token, max_degree=ring.max_degree) from None
        if len(values) > ring.betti[degree]:
            raise ParseError("coordinate vector does not fit the ring",
                             degree=degree, dimension=ring.betti[degree])
        coords = enumerate(map(ring.field.rational, values))
        return CohomClass(ring, degree, {i: c for i, c in coords if not c.is_zero()})
    if token not in classes:
        raise ParseError(f"no class named '{token}' in the document",
                         known=sorted(classes))
    return ring.class_of(classes[token])


def _massey_report_json(ring, rep: MasseyReport) -> dict:
    doc = {
        "kind": rep.kind,
        "defined": rep.defined,
        "verdict": rep.verdict,
        "degree": rep.degree,
        "representative": None,
        "representative_nonzero": rep.representative_nonzero,
        "indeterminacy_dimension": rep.indeterminacy_dimension,
        "indeterminacy": [element_to_json(cls.rep_element())
                          for cls in rep.indeterminacy],
        "obstruction": rep.obstruction,
        "certificate": rep.certificate,
        "notes": rep.notes,
    }
    if rep.representative is not None:
        doc["representative"] = element_to_json(rep.representative.rep_element())
    return doc


def _print_massey(ring, rep: MasseyReport, args) -> int:
    if args.format == "json":
        sys.stdout.write(dumps(_massey_report_json(ring, rep)))
    else:
        print(f"kind:     {rep.kind}")
        print(f"defined:  {rep.defined}")
        print(f"verdict:  {rep.verdict}")
        if rep.representative is not None:
            print(f"degree:   {rep.degree}")
            print(f"representative: {rep.representative.rep_element().render()}")
            print(f"indeterminacy dimension: {rep.indeterminacy_dimension}")
        if rep.obstruction:
            print(f"obstruction: {rep.obstruction}")
        for note in rep.notes:
            print(f"note: {note}")
    if args.strict and rep.verdict == INCONCLUSIVE:
        return 2
    return 0


def cmd_preset(args) -> int:
    params = {}
    for kv in args.param or ():
        key, _, value = kv.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            raise ParseError("preset parameters are key=integer", param=key,
                             got=value) from None
    doc = preset_document(args.name, **params)
    sys.stdout.write(dumps(doc))
    return 0


def cmd_validate(args) -> int:
    doc = _load_document(args)
    spec, action, classes, volume, meta = document_from_json(doc)
    out = {
        "valid": True,
        "is_minimal": spec.flags.is_minimal,
        "is_connected": spec.flags.is_connected,
        "has_odd_only_generators": spec.flags.has_odd_only_generators,
        "action_order": action.order if action else None,
    }
    if args.format == "json":
        sys.stdout.write(dumps(out))
    else:
        for key, value in out.items():
            print(f"{key}: {value}")
    return 0


def cmd_cohomology(args, invariant=False) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    if invariant and action is None:
        raise ParseError("the document carries no group action")
    report = cohomology_report(ring, pairing_degree=args.pairing)
    if args.format == "json":
        sys.stdout.write(dumps(report))
    else:
        print("betti: " + " ".join(str(b) for b in report["betti"]))
        if report["pairing_ok"] is not None:
            print(f"pairing_ok: {report['pairing_ok']}")
        for k in range(ring.max_degree + 1):
            reps = [ring.slices.to_element(k, rep).render() for rep in ring.reps(k)]
            if reps:
                print(f"H^{k}:")
                for r in reps:
                    print(f"  {r}")
    return 0


def cmd_massey(args) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    selected = [_select_class(ring, classes, tok) for tok in args.select]
    if len(selected) != 3:
        raise ParseError("triple products take exactly three --select arguments")
    rep = triple_massey(ring, *selected)
    return _print_massey(ring, rep, args)


def cmd_amassey(args) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    a = _select_class(ring, classes, args.a)
    bs = [_select_class(ring, classes, tok) for tok in args.b]
    rep = a_massey(ring, a, bs, budget=args.budget)
    return _print_massey(ring, rep, args)


def cmd_higher_massey(args) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    selected = [_select_class(ring, classes, tok) for tok in args.select]
    rep = higher_massey(ring, selected, budget=args.budget)
    return _print_massey(ring, rep, args)


def cmd_lefschetz(args) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    n = args.half_dim if args.half_dim is not None else \
        meta.get("half_dim", meta.get("dim", ring.max_degree) // 2)
    if args.universal:
        if args.degree is None:
            raise ParseError("--universal needs --degree")
        witnesses = universal_obstruction(ring, args.degree, n=n)
        if args.format == "json":
            sys.stdout.write(dumps({
                "degree": args.degree,
                "half_dim": n,
                "witnesses": [element_to_json(c.rep_element()) for c in witnesses],
            }))
        else:
            print(f"universal witnesses at degree {args.degree}: {len(witnesses)}")
            for c in witnesses:
                print(f"  {c.rep_element().render()}")
        return 0
    if not args.omega:
        raise ParseError("either --omega or --universal is required")
    omega = _select_class(ring, classes, args.omega)
    report = lefschetz_test(ring, omega, n)
    if args.format == "json":
        sys.stdout.write(dumps({
            "half_dim": report.half_dim,
            "overall": report.overall,
            "per_degree": [{
                "degree": v.degree, "power": v.power, "rank": v.rank,
                "source_dim": v.source_dim, "target_dim": v.target_dim,
                "isomorphism": v.isomorphism,
                "kernel": [element_to_json(c.rep_element()) for c in v.kernel],
            } for v in report.per_degree],
        }))
    else:
        print(f"overall: {'pass' if report.overall else 'fail'}")
        for v in report.per_degree:
            status = "iso" if v.isomorphism else "NOT iso"
            print(f"L^{v.power}: H^{v.degree} ({v.source_dim}) -> "
                  f"H^{2 * report.half_dim - v.degree} ({v.target_dim}) "
                  f"rank {v.rank}  {status}")
            for c in v.kernel:
                print(f"  kernel: {c.rep_element().render()}")
    return 0


def cmd_circle_bundle(args) -> int:
    from .models import circle_bundle
    doc = _load_document(args)
    spec, action, classes, volume, meta = document_from_json(doc)
    if args.euler in classes:
        euler = classes[args.euler]
    else:
        euler = element_from_json(json.loads(args.euler), spec)
    total = circle_bundle(spec, euler, gen_name=args.gen_name)
    carried = {name: total.element(elem) for name, elem in classes.items()}
    sys.stdout.write(dumps(document_to_json(total, classes=carried)))
    return 0


def cmd_tensor(args) -> int:
    from .models import tensor
    doc = _load_document(args)
    spec, _, _, _, _ = document_from_json(doc)
    with open(args.with_) as fh:
        other_doc = json.load(fh)
    other, _, _, _, _ = document_from_json(other_doc)
    sys.stdout.write(dumps(document_to_json(tensor(spec, other))))
    return 0


def cmd_minimal_model(args) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    mm = build_minimal_model(ring, args.bound)
    rep = None if args.s_formality is None else s_formality_check(mm, args.s_formality)
    zero, dg = mm.model.zero(), mm.model.differential.get
    doc = {
        "bound": mm.bound,
        "identity": mm.identity,
        "generators": [{
            "name": g.name,
            "degree": g.degree,
            "differential": element_to_json(dg(gi, zero)),
            "psi": element_to_json(ring.slices.to_element(*mm.psi[gi])),
        } for gi, g in enumerate(mm.model.generators)],
        "cn_split": {str(k): {"C": c, "N": n}
                     for k, (c, n) in sorted(mm.cn_split.items())},
    }
    if args.format == "json":
        if rep is not None:
            doc["s_formality"] = {"s": rep.s, "status": rep.status, "route": rep.route}
        sys.stdout.write(dumps(doc))
    else:
        print(f"bound: {mm.bound}")
        for gi, g in enumerate(doc["generators"]):
            print(f"{g['name']} (degree {g['degree']}): d = {dg(gi, zero).render()}")
        if rep is not None:
            print(f"s-formality (s={args.s_formality}): {rep.status} via {rep.route}")
    return 2 if rep is not None and args.strict and rep.status == "INCONCLUSIVE" else 0


def cmd_formality(args) -> int:
    spec, action, classes, volume, meta, ring = _context(args)
    dim = args.poincare_dim if args.poincare_dim is not None else meta.get("dim")
    report = formality_verdict(ring, poincare_dimension=dim,
                               simply_connected=args.simply_connected,
                               budget=args.budget)
    out = {"verdict": report.verdict, "route": report.route,
           "certificate": report.certificate}
    if report.witness is not None:
        out["witness"] = _massey_report_json(ring, report.witness)
    if args.format == "json":
        sys.stdout.write(dumps(out))
    else:
        print(f"verdict: {report.verdict}")
        print(f"route:   {report.route}")
        for key, value in report.certificate.items():
            print(f"{key}: {value}")
        if report.witness is not None:
            print(f"witness: {report.witness.kind} verdict "
                  f"{report.witness.verdict}")
    if args.strict and report.verdict == UNKNOWN:
        return 2
    return 0


def cmd_verify_paper(args) -> int:
    results = run_all(property_cases=args.cases)
    width = max(len(r.key) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.key.ljust(width)}  {r.description}")
        if args.verbose or not r.passed:
            for d in r.details:
                print(f"      {d}")
        failed = failed or not r.passed
    print()
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 1 if failed else 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args gives a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="cdgalab",
        description="Exact cohomology, Massey products, Lefschetz tests and "
                    "minimal models for finitely presented CDGAs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_degree=True):
        p.add_argument("--input", help="input document (default: stdin)")
        p.add_argument("--cap", type=int, help="override the degree cap")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 on INCONCLUSIVE/UNKNOWN outcomes")
        p.add_argument("--budget", type=int, default=400,
                       help="search budget for product scans")
        p.add_argument("--total", action="store_true",
                       help="ignore the action; work in the total complex")
        if max_degree:
            p.add_argument("--max-degree", type=int,
                           help="compute cohomology through this degree")

    p = sub.add_parser("preset", help="emit a named preset document")
    p.add_argument("name", help="one of " + ", ".join(
        sorted(FIXED_PRESETS + PARAMETRIC_PRESETS)))
    p.add_argument("--param", action="append", help="e.g. --param n=4")
    p.set_defaults(fn=cmd_preset)

    p = sub.add_parser("validate", help="validate an algebra document")
    common(p, max_degree=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cohomology", help="Betti numbers and representatives")
    common(p)
    p.add_argument("--pairing", type=int,
                   help="check duality pairing against this top degree")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("invariants", help="invariant (quotient) cohomology")
    common(p)
    p.add_argument("--pairing", type=int)
    p.set_defaults(fn=lambda a: cmd_cohomology(a, invariant=True))

    p = sub.add_parser("massey", help="triple Massey product")
    common(p)
    p.add_argument("--select", action="append", required=True,
                   help="class name or {\"degree\":d,\"coords\":[...]}")
    p.set_defaults(fn=cmd_massey)

    p = sub.add_parser("amassey", help="a-Massey product")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", action="append", required=True)
    p.set_defaults(fn=cmd_amassey)

    p = sub.add_parser("higher-massey", help="order 4..6 Massey product")
    common(p)
    p.add_argument("--select", action="append", required=True)
    p.set_defaults(fn=cmd_higher_massey)

    p = sub.add_parser("lefschetz", help="hard-Lefschetz tests")
    common(p)
    p.add_argument("--omega", help="degree-2 class selector")
    p.add_argument("--half-dim", type=int)
    p.add_argument("--universal", action="store_true")
    p.add_argument("--degree", type=int)
    p.set_defaults(fn=cmd_lefschetz)

    p = sub.add_parser("circle-bundle", help="adjoin a circle generator")
    common(p, max_degree=False)
    p.add_argument("--euler", required=True,
                   help="class name or inline element expression")
    p.add_argument("--gen-name", default="x")
    p.set_defaults(fn=cmd_circle_bundle)

    p = sub.add_parser("tensor", help="graded tensor with a second document")
    common(p, max_degree=False)
    p.add_argument("--with", dest="with_", required=True,
                   help="path to the second algebra document")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("minimal-model", help="bounded Sullivan minimal model")
    common(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--s-formality", type=int,
                   help="also run the s-formality check at this s")
    p.set_defaults(fn=cmd_minimal_model)

    p = sub.add_parser("formality", help="formality verdict")
    common(p)
    p.add_argument("--poincare-dim", type=int)
    p.add_argument("--simply-connected", action="store_true")
    p.set_defaults(fn=cmd_formality)

    p = sub.add_parser("verify-paper",
                       help="run the built-in verification suite")
    p.add_argument("--cases", type=int, default=1000,
                   help="cases per randomized property suite")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 0) < 0:
            raise ParseError("the budget must not be negative", budget=args.budget)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, inside the try
        return code
    except BrokenPipeError:
        # The reader left early: send what is still buffered to devnull, so
        # that the flush at exit raises nothing (the Python docs' SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CdgaError as exc:
        diag = {"error": exc.code, "message": str(exc), "details": exc.details}
        print(json.dumps(diag, default=str), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
