"""Which cdgalab functions the traced run wraps, and the per-layer metrics.

Every layer of the engine is a module.  Its public functions are wrapped in
spans, except the CycScalar operations, which run millions of times and are
only counted.  The metric names and the end-to-end metric each one should
move are listed in perfbench/layers.json.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Dict

from tracer import Tracer

SPANNED = {
    "linalg": ["kernel_image", "Echelon.add", "Echelon.reduce", "Echelon.solve",
               "Echelon.contains", "Echelon.basis_rows"],
    "algebra": ["Element.__mul__", "Element.d", "AlgebraSpec.validate",
                "AlgebraSpec.__init__"],
    "chains": ["FreeSlices.d_vec", "FreeSlices.from_element", "FreeSlices.mul_vec",
               "SubcomplexSlices.d_vec", "SubcomplexSlices.from_element",
               "SubcomplexSlices.mul_vec"],
    "cohomology": ["CohomologyRing.__init__", "CohomologyRing.cup",
                   "CohomologyRing.class_of", "CohomologyRing.is_exact"],
    "symmetry": ["invariant_complex", "averaging_projector", "invariant_cohomology",
                 "fixed_subspace_of_cohomology", "burnside_invariant_dimension",
                 "GroupActionSpec.validate"],
    "massey": ["triple_massey", "a_massey", "higher_massey"],
    "lefschetz": ["lefschetz_test", "universal_obstruction"],
    "minmodel": ["build_minimal_model", "massey_scan", "formality_verdict",
                 "s_formality_check"],
    "serialize": ["document_from_json", "dumps"],
    "models": ["preset", "preset_document"],
    "cli": ["main"],
}

COUNTED = {  # CycScalar attribute -> counter
    "__mul__": "scalars.mul", "__rmul__": "scalars.mul",
    "__add__": "scalars.add", "__radd__": "scalars.add",
    "inverse": "scalars.inverse",
}

VERIFY_KEYS = [
    "heis6-betti", "orbifold6-cohomology", "symplectic-forms",
    "lefschetz-universal", "amassey-8dim", "sasaki7-triple-massey",
    "sasaki-general-n", "formal-sasakian-minmodel", "quasi-regular-bundle",
    "kahler-shadows", "property-battery",
]


def _entry_bits(rows) -> int:
    bits = 0
    for row in rows:
        for scalar in row.values():
            for c in scalar.coeffs:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANNED and count the CycScalar operations."""
    counts = tracer.counts

    def after(name):
        """Counters that need the arguments or the result of a call."""
        if name == "linalg.kernel_image":
            def hook(args, result):
                counts["linalg.kernel_image_cols"] += args[1]
        elif name == "linalg.Echelon.add":
            def hook(args, result):
                counts["linalg.echelon_grew"] += bool(result)
        elif name == "linalg.Echelon.basis_rows":
            def hook(args, result):
                bits = _entry_bits(result)
                if bits > tracer.maxima.get("linalg.max_entry_bits", 0):
                    tracer.maxima["linalg.max_entry_bits"] = bits
        elif name == "algebra.AlgebraSpec.__init__":
            def hook(args, result):
                if tracer.open_names["minmodel.build_minimal_model"]:
                    counts["minmodel.spec_rebuilds"] += 1
        elif name == "cohomology.CohomologyRing.__init__":
            def hook(args, result):
                ring = args[0]
                counts["cohomology.slice_dim_sum"] += sum(
                    ring.slices.dim(k) for k in range(ring.max_degree + 1))
        elif name == "cohomology.CohomologyRing.cup":
            def hook(args, result):
                counts["cohomology.cup_zero"] += result.is_zero()
        elif name in ("massey.triple_massey", "massey.a_massey", "massey.higher_massey"):
            def hook(args, result):
                counts["massey.evaluations"] += 1
                counts["massey.nonzero"] += result.verdict == "NONZERO"
                if tracer.open_names["minmodel.massey_scan"]:
                    counts["minmodel.scan_evaluations"] += 1
        elif name == "minmodel.build_minimal_model":
            def hook(args, result):
                counts["minmodel.generators"] += len(result.model.generators)
        elif name == "serialize.dumps":
            def hook(args, result):
                counts["serialize.report_bytes"] += len(result)
        else:
            hook = None
        return hook

    for layer, attrs in SPANNED.items():
        module = importlib.import_module(f"cdgalab.{layer}")
        for attr in attrs:
            name = f"{layer}.{attr}"

            def make(fn, name=name):
                return tracer.spanned(name, fn, after(name))
            if "." in attr:
                cls_name, method = attr.split(".")
                tracer.wrap_method(getattr(module, cls_name), method, make)
            else:
                tracer.wrap_function(module, attr, make)

    scalars = importlib.import_module("cdgalab.scalars")
    for attr, key in COUNTED.items():
        tracer.wrap_method(scalars.CycScalar, attr,
                           lambda fn, key=key: tracer.counted(key, fn))


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_ratio", "1"), ("_bits", "bits"),
                         ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return name
    return "count"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric, from the spans and counters of one traced pass."""
    calls: Dict[str, int] = {}
    for nid in tracer.name_id:
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
    own = tracer.self_time_by_name()
    total = tracer.duration_by_name()
    c = tracer.counts

    def n(name):
        return calls.get(name, 0)

    def self_s(*names):
        return sum(own.get(name, 0.0) for name in names)

    def layer_s(layer):
        return self_s(*(f"{layer}.{a}" for a in SPANNED[layer]))

    def ratio(num, den):
        return num / den if den else 0.0

    massey_calls = n("massey.triple_massey") + n("massey.a_massey") + n("massey.higher_massey")
    out = {
        "scalars.mul_count": c["scalars.mul"],
        "scalars.add_count": c["scalars.add"],
        "scalars.inverse_count": c["scalars.inverse"],
        "linalg.kernel_image_count": n("linalg.kernel_image"),
        "linalg.kernel_image_cols": c["linalg.kernel_image_cols"],
        "linalg.echelon_add_count": n("linalg.Echelon.add"),
        "linalg.echelon_grew_ratio": ratio(c["linalg.echelon_grew"], n("linalg.Echelon.add")),
        "linalg.reduce_count": n("linalg.Echelon.reduce"),
        "linalg.solve_count": n("linalg.Echelon.solve"),
        "linalg.max_entry_bits": tracer.maxima.get("linalg.max_entry_bits", 0),
        "linalg.self_s": layer_s("linalg"),
        "algebra.element_mul_count": n("algebra.Element.__mul__"),
        "algebra.element_d_count": n("algebra.Element.d"),
        "algebra.validate_count": n("algebra.AlgebraSpec.validate"),
        "algebra.validate_self_s": self_s("algebra.AlgebraSpec.validate"),
        "algebra.self_s": layer_s("algebra"),
        "chains.d_vec_count": n("chains.FreeSlices.d_vec") + n("chains.SubcomplexSlices.d_vec"),
        "chains.from_element_count": (n("chains.FreeSlices.from_element")
                                      + n("chains.SubcomplexSlices.from_element")),
        "chains.mul_vec_count": (n("chains.FreeSlices.mul_vec")
                                 + n("chains.SubcomplexSlices.mul_vec")),
        "chains.self_s": layer_s("chains"),
        "cohomology.ring_count": n("cohomology.CohomologyRing.__init__"),
        "cohomology.slice_dim_sum": c["cohomology.slice_dim_sum"],
        "cohomology.ring_self_s": self_s("cohomology.CohomologyRing.__init__"),
        "cohomology.cup_count": n("cohomology.CohomologyRing.cup"),
        "cohomology.cup_zero_ratio": ratio(c["cohomology.cup_zero"],
                                           n("cohomology.CohomologyRing.cup")),
        "cohomology.cup_self_s": self_s("cohomology.CohomologyRing.cup"),
        "cohomology.class_of_count": n("cohomology.CohomologyRing.class_of"),
        "symmetry.invariant_complex_count": n("symmetry.invariant_complex"),
        "symmetry.projector_count": n("symmetry.averaging_projector"),
        "symmetry.self_s": layer_s("symmetry"),
        "massey.triple_count": n("massey.triple_massey"),
        "massey.a_count": n("massey.a_massey"),
        "massey.nonzero_ratio": ratio(c["massey.nonzero"], massey_calls),
        "massey.self_s": layer_s("massey"),
        "lefschetz.call_count": n("lefschetz.lefschetz_test") + n("lefschetz.universal_obstruction"),
        "lefschetz.self_s": layer_s("lefschetz"),
        "minmodel.build_count": n("minmodel.build_minimal_model"),
        "minmodel.generators": c["minmodel.generators"],
        "minmodel.spec_rebuilds": c["minmodel.spec_rebuilds"],
        "minmodel.build_self_s": self_s("minmodel.build_minimal_model"),
        "minmodel.scan_evaluations": c["minmodel.scan_evaluations"],
        "minmodel.scan_self_s": self_s("minmodel.massey_scan"),
        "minmodel.formality_self_s": self_s("minmodel.formality_verdict"),
        "serialize.parse_self_s": self_s("serialize.document_from_json"),
        "serialize.dumps_self_s": self_s("serialize.dumps"),
        "serialize.report_bytes": c["serialize.report_bytes"],
        "models.preset_self_s": self_s("models.preset", "models.preset_document"),
        "cli.job_count": n("cli.main"),
        "cli.self_s": layer_s("cli"),
    }
    for key in VERIFY_KEYS:
        out[f"verify.{key}_s"] = total.get(f"verify.{key}", 0.0)
    return out
