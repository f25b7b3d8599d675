"""Command-line front end.

Documents travel as JSON on stdin/stdout so subcommands compose:

    cdgalab preset HEIS6_Z6 | cdgalab invariants
    cdgalab preset T6 | cdgalab cohomology
    cdgalab preset SASAKI7_S2CUBE | cdgalab massey --select a1 --select a1 --select a2

Reports print as text by default; `--format json` switches to the JSON
schema.  When the input document carries a group action, ring-level commands
work in the invariant (quotient) complex unless `--total` is given.  Exit
codes: 0 success, 1 validation/parse errors, 2 for an INCONCLUSIVE or
UNKNOWN outcome under `--strict`, and 2 for a usage error (an option the
command does not take, a missing required one), as argparse exits.
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
    vector_to_json,
)
from .symmetry import invariant_cohomology
from .verify import run_all


def _read_json(path: Optional[str]):
    """The JSON value of the file at path, or of stdin when path is None."""
    named = {} if path is None else {"path": path}
    try:
        if path is None:  # stdin's bytes, when it has them, decode as a file's do
            raw = getattr(sys.stdin, "buffer", None)
            return json.load(sys.stdin) if raw is None else json.loads(raw.read().decode("utf-8"))
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            return json.load(fh)
    except OSError as exc:
        raise ParseError("the input file cannot be read", path=path,
                         reason=exc.strerror) from None
    except json.JSONDecodeError as exc:
        raise ParseError("the input is not JSON", reason=exc.msg, line=exc.lineno,
                         column=exc.colno, **named) from None
    except UnicodeDecodeError as exc:
        raise ParseError("the input is not UTF-8 text", reason=exc.reason, position=exc.start,
                         **named) from None


def _document(args):
    """document_from_json's (spec, action, classes, volume, meta) of the input, under --cap."""
    doc = _read_json(args.input)
    if args.cap is not None:
        algebra_part(doc)["degree_cap"] = args.cap
    return document_from_json(doc)


def _context(args):
    """(ring, classes, meta) of the input: the invariant ring when the document
    carries an action, unless --total; through --max-degree, else its dim."""
    spec, action, classes, volume, meta = _document(args)
    if action is None and args.command == "invariants":
        raise ParseError("the document carries no group action")
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = meta.get("dim", spec.degree_cap - 1)
    if action is not None and not args.total:
        return invariant_cohomology(action, max_degree, volume=volume), classes, meta
    return cohomology(spec, max_degree, volume=volume), classes, meta


def _emit(args, report, text, undecided: bool = False) -> int:
    """Write report() as JSON under --format json, else the lines text() yields;
    each is built only under its format, and in full before a byte is written.

    The exit code: 2 for an undecided outcome under --strict, else 0.
    """
    out = dumps(report()) if args.format == "json" else "".join(f"{line}\n" for line in text())
    sys.stdout.write(out)
    return 2 if undecided and args.strict else 0


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


def _class_json(cls: CohomClass) -> list:
    return vector_to_json(cls.ring.slices, cls.degree, cls.rep_vec())


def _massey_report_json(rep: MasseyReport) -> dict:
    return {
        "kind": rep.kind,
        "defined": rep.defined,
        "verdict": rep.verdict,
        "degree": rep.degree,
        "representative": None if rep.representative is None
        else _class_json(rep.representative),
        "representative_nonzero": rep.representative_nonzero,
        "indeterminacy_dimension": rep.indeterminacy_dimension,
        "indeterminacy": [_class_json(cls) for cls in rep.indeterminacy],
        "obstruction": rep.obstruction,
        "certificate": rep.certificate,
        "notes": rep.notes,
    }


def _emit_massey(args, rep: MasseyReport) -> int:
    def text():
        yield f"kind:     {rep.kind}"
        yield f"defined:  {rep.defined}"
        yield f"verdict:  {rep.verdict}"
        if rep.representative is not None:
            yield f"degree:   {rep.degree}"
            yield f"representative: {rep.representative.rep_element().render()}"
            yield f"indeterminacy dimension: {rep.indeterminacy_dimension}"
        if rep.obstruction:
            yield f"obstruction: {rep.obstruction}"
        yield from (f"note: {note}" for note in rep.notes)
    return _emit(args, lambda: _massey_report_json(rep), text, rep.verdict == INCONCLUSIVE)


def cmd_preset(args) -> int:
    params = {}
    for kv in args.param or ():
        key, _, value = kv.partition("=")
        try:
            value = int(value)
        except ValueError:
            raise ParseError("preset parameters are key=integer", param=key,
                             got=value) from None
        if key in params:
            raise ParseError(f"preset parameter '{key}' is given more than once",
                             param=key, got=[params[key], value])
        params[key] = value
    doc = preset_document(args.name, **params)
    sys.stdout.write(dumps(doc))
    return 0


def cmd_validate(args) -> int:
    spec, action, _, _, _ = _document(args)
    report = {
        "valid": True,
        "is_minimal": spec.flags.is_minimal,
        "is_connected": spec.flags.is_connected,
        "has_odd_only_generators": spec.flags.has_odd_only_generators,
        "action_order": action.order if action else None,
    }
    return _emit(args, lambda: report, lambda: (f"{key}: {value}" for key, value in report.items()))


def cmd_cohomology(args) -> int:
    ring, _, _ = _context(args)

    def text():
        pairing_ok = None if args.pairing is None else ring.pairing_nondegenerate(args.pairing)
        yield "betti: " + " ".join(str(b) for b in ring.betti)
        if pairing_ok is not None:
            yield f"pairing_ok: {pairing_ok}"
        for k in range(ring.max_degree + 1):
            if ring.reps(k):
                yield f"H^{k}:"
                yield from (f"  {ring.slices.to_element(k, rep).render()}"
                            for rep in ring.reps(k))
    return _emit(args, lambda: cohomology_report(ring, pairing_degree=args.pairing), text)


def cmd_massey(args) -> int:
    ring, classes, _ = _context(args)
    selected = [_select_class(ring, classes, tok) for tok in args.select]
    if len(selected) != 3:
        raise ParseError("triple products take exactly three --select arguments")
    return _emit_massey(args, triple_massey(ring, *selected))


def cmd_amassey(args) -> int:
    ring, classes, _ = _context(args)
    a = _select_class(ring, classes, args.a)
    bs = [_select_class(ring, classes, tok) for tok in args.b]
    return _emit_massey(args, a_massey(ring, a, bs, budget=args.budget))


def cmd_higher_massey(args) -> int:
    ring, classes, _ = _context(args)
    selected = [_select_class(ring, classes, tok) for tok in args.select]
    return _emit_massey(args, higher_massey(ring, selected, budget=args.budget))


def cmd_lefschetz(args) -> int:
    ring, classes, meta = _context(args)
    n = args.half_dim if args.half_dim is not None else \
        meta.get("half_dim", meta.get("dim", ring.max_degree) // 2)
    if args.universal:
        if args.degree is None:
            raise ParseError("--universal needs --degree")
        witnesses = universal_obstruction(ring, args.degree, n=n)
        return _emit(args, lambda: {"degree": args.degree, "half_dim": n,
                                    "witnesses": [_class_json(c) for c in witnesses]},
                     lambda: [f"universal witnesses at degree {args.degree}: {len(witnesses)}",
                              *(f"  {c.rep_element().render()}" for c in witnesses)])
    if not args.omega:
        raise ParseError("either --omega or --universal is required")
    omega = _select_class(ring, classes, args.omega)
    result = lefschetz_test(ring, omega, n)

    def text():
        yield f"overall: {'pass' if result.overall else 'fail'}"
        for v in result.per_degree:
            status = "iso" if v.isomorphism else "NOT iso"
            yield (f"L^{v.power}: H^{v.degree} ({v.source_dim}) -> "
                   f"H^{2 * result.half_dim - v.degree} ({v.target_dim}) "
                   f"rank {v.rank}  {status}")
            yield from (f"  kernel: {c.rep_element().render()}" for c in v.kernel)
    return _emit(args, lambda: {
        "half_dim": result.half_dim,
        "overall": result.overall,
        "per_degree": [{
            "degree": v.degree, "power": v.power, "rank": v.rank,
            "source_dim": v.source_dim, "target_dim": v.target_dim,
            "isomorphism": v.isomorphism,
            "kernel": [_class_json(c) for c in v.kernel],
        } for v in result.per_degree],
    }, text)


def cmd_circle_bundle(args) -> int:
    from .models import circle_bundle
    spec, _, classes, _, _ = _document(args)
    if args.euler in classes:
        euler = classes[args.euler]
    else:
        try:
            euler = json.loads(args.euler)
        except json.JSONDecodeError:
            raise ParseError("--euler is neither a class of the document nor a JSON "
                             "element expression", got=args.euler,
                             known=sorted(classes)) from None
        euler = element_from_json(euler, spec)
    total = circle_bundle(spec, euler, gen_name=args.gen_name)
    carried = {name: total.element(elem) for name, elem in classes.items()}
    sys.stdout.write(dumps(document_to_json(total, classes=carried)))
    return 0


def cmd_tensor(args) -> int:
    from .models import tensor
    spec = _document(args)[0]
    other = document_from_json(_read_json(args.with_))[0]
    sys.stdout.write(dumps(document_to_json(tensor(spec, other))))
    return 0


def cmd_minimal_model(args) -> int:
    ring, _, _ = _context(args)
    mm = build_minimal_model(ring, args.bound)
    rep = None if args.s_formality is None else s_formality_check(mm, args.s_formality)
    zero, dg = mm.model.zero(), mm.model.differential.get

    def report():
        out = {
            "bound": mm.bound,
            "identity": mm.identity,
            "generators": [{
                "name": g.name,
                "degree": g.degree,
                "differential": element_to_json(dg(gi, zero)),
                "psi": vector_to_json(ring.slices, *mm.psi[gi]),
            } for gi, g in enumerate(mm.model.generators)],
            "cn_split": {str(k): {"C": c, "N": n}
                         for k, (c, n) in sorted(mm.cn_split.items())},
        }
        if rep is not None:
            out["s_formality"] = {"s": rep.s, "status": rep.status, "route": rep.route}
        return out

    def text():
        yield f"bound: {mm.bound}"
        for gi, g in enumerate(mm.model.generators):
            yield f"{g.name} (degree {g.degree}): d = {dg(gi, zero).render()}"
        if rep is not None:
            yield f"s-formality (s={args.s_formality}): {rep.status} via {rep.route}"
    return _emit(args, report, text, rep is not None and rep.status == INCONCLUSIVE)


def cmd_formality(args) -> int:
    ring, _, meta = _context(args)
    dim = args.poincare_dim if args.poincare_dim is not None else meta.get("dim")
    result = formality_verdict(ring, poincare_dimension=dim,
                               simply_connected=args.simply_connected, budget=args.budget)

    def report():
        witness = {} if result.witness is None else {"witness": _massey_report_json(result.witness)}
        return {"verdict": result.verdict, "route": result.route,
                "certificate": result.certificate, **witness}

    def text():
        yield f"verdict: {result.verdict}"
        yield f"route:   {result.route}"
        yield from (f"{key}: {value}" for key, value in result.certificate.items())
        if result.witness is not None:
            yield f"witness: {result.witness.kind} verdict {result.witness.verdict}"
    return _emit(args, report, text, result.verdict == UNKNOWN)


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

    def command(name, fn, summary, ring=True, strict=False, budget=False):
        """A subcommand with the document options and, as flagged, the ones it reads."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--input", help="input document (default: stdin)")
        p.add_argument("--cap", type=int, help="override the degree cap")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if ring:
            p.add_argument("--total", action="store_true",
                           help="ignore the action; work in the total complex")
            p.add_argument("--max-degree", type=int,
                           help="compute cohomology through this degree")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 2 on INCONCLUSIVE/UNKNOWN outcomes")
        if budget:
            p.add_argument("--budget", type=int, default=400,
                           help="search budget for product scans")
        return p

    p = sub.add_parser("preset", help="emit a named preset document")
    p.add_argument("name", help="one of " + ", ".join(
        sorted(FIXED_PRESETS + PARAMETRIC_PRESETS)))
    p.add_argument("--param", action="append", help="e.g. --param n=4")
    p.set_defaults(fn=cmd_preset)

    command("validate", cmd_validate, "validate an algebra document", ring=False)
    for name, summary in (("cohomology", "Betti numbers and representatives"),
                          ("invariants", "invariant (quotient) cohomology")):
        command(name, cmd_cohomology, summary).add_argument(
            "--pairing", type=int, help="check duality pairing against this top degree")

    p = command("massey", cmd_massey, "triple Massey product", strict=True)
    p.add_argument("--select", action="append", required=True,
                   help="class name or {\"degree\":d,\"coords\":[...]}")

    p = command("amassey", cmd_amassey, "a-Massey product", strict=True, budget=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", action="append", required=True)

    p = command("higher-massey", cmd_higher_massey, "order 4..6 Massey product",
                strict=True, budget=True)
    p.add_argument("--select", action="append", required=True)

    p = command("lefschetz", cmd_lefschetz, "hard-Lefschetz tests")
    p.add_argument("--omega", help="degree-2 class selector")
    p.add_argument("--half-dim", type=int)
    p.add_argument("--universal", action="store_true")
    p.add_argument("--degree", type=int)

    # --format is kept on the two document commands: their output is a
    # document under either value.
    p = command("circle-bundle", cmd_circle_bundle, "adjoin a circle generator", ring=False)
    p.add_argument("--euler", required=True,
                   help="class name or inline element expression")
    p.add_argument("--gen-name", default="x")

    p = command("tensor", cmd_tensor, "graded tensor with a second document", ring=False)
    p.add_argument("--with", dest="with_", required=True,
                   help="path to the second algebra document")

    p = command("minimal-model", cmd_minimal_model, "bounded Sullivan minimal model",
                strict=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--s-formality", type=int,
                   help="also run the s-formality check at this s")

    p = command("formality", cmd_formality, "formality verdict", strict=True, budget=True)
    p.add_argument("--poincare-dim", type=int)
    p.add_argument("--simply-connected", action="store_true")

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
