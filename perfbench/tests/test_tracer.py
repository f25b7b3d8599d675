"""Tracer arithmetic, and that its wrappers leave the engine untouched after use."""

import importlib

import cdgalab
import layers
from cdgalab import lefschetz, linalg, models
from tracer import Tracer


def add_span(tracer, name, start, end, parent):
    tracer.open(name)
    sid = len(tracer.start) - 1
    tracer.start[sid], tracer.end[sid], tracer.parent[sid] = start, end, parent
    tracer._stack.pop()
    tracer.open_names[name] -= 1
    return sid


def test_self_time_subtracts_exactly_the_child_spans():
    t = Tracer("cdgalab")
    root = add_span(t, "job", 0.0, 10.0, -1)
    a = add_span(t, "cohomology.cup", 1.0, 4.0, root)
    b = add_span(t, "chains.d_vec", 5.0, 9.0, root)
    c = add_span(t, "linalg.Echelon.add", 6.0, 8.0, b)
    d = add_span(t, "linalg.Echelon.add", 8.0, 8.5, b)
    assert t.self_times() == [3.0, 3.0, 1.5, 2.0, 0.5]
    assert t.self_time_by_name()["linalg.Echelon.add"] == 2.5
    assert t.duration_by_name()["job"] == 10.0
    assert sum(t.self_times()) == t.end[root] - t.start[root]
    assert (a, c, d) == (1, 3, 4)


def test_nested_live_spans_record_their_parents():
    t = Tracer("cdgalab")
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    assert list(t.parent) == [-1, outer]
    own = t.self_times()
    assert abs(own[outer] + own[inner] - (t.end[outer] - t.start[outer])) < 1e-12


def _ring():
    bundle = models.preset("HEIS6")
    return cdgalab.cohomology(bundle.spec, 6)


def _attributes(tracer):
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) for owner, attr, _ in tracer._patches]


def test_wrappers_are_removed_after_the_traced_run():
    t = Tracer("cdgalab")
    originals = {}
    layers.install(t)
    for owner, attr, original in t._patches:
        originals[(owner, attr)] = original
    wrapped = _attributes(t)
    assert all(value is not originals[(o, a)] for o, a, value in wrapped)

    ring = _ring()
    ring.cup(ring.rep_class(1, 0), ring.rep_class(1, 1))
    spans, counts = len(t.start), dict(t.counts)
    assert spans > 0 and counts["scalars.mul"] > 0

    t.uninstall()
    assert not t.installed
    for (owner, attr), original in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)

    ring = _ring()
    ring.cup(ring.rep_class(1, 0), ring.rep_class(1, 1))
    assert len(t.start) == spans and dict(t.counts) == counts


def test_every_function_reference_in_the_package_is_wrapped():
    t = Tracer("cdgalab")
    layers.install(t)
    try:
        cohomology_module = importlib.import_module("cdgalab.cohomology")
        assert cohomology_module.kernel_image is linalg.kernel_image
        assert lefschetz.kernel_image is linalg.kernel_image
        assert linalg.kernel_image.__wrapped__ is not None
    finally:
        t.uninstall()
    assert not hasattr(linalg.kernel_image, "__wrapped__")
