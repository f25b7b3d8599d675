"""A degree with no incoming image takes its kernel echelon as its representatives.

The reference is the loop this replaces: every degree reduces the kernel
basis of d by the previous image and spans the residuals again, and the
kernels come from ``ref_kernel_image``, which eliminates zero columns too.
A subspace has one reduced row-echelon form, so both must give the same rows
in every degree, with or without an image.  Sharing the kernel echelon is
safe only while no query writes to it, also when a d = 0 ring reads the
kernel off its slices as unit rows; the last test checks both.
"""

import pytest

from cdgalab.cohomology import cohomology
from cdgalab.linalg import Echelon, span
from cdgalab.minmodel import massey_scan
from cdgalab.models import FIXED_PRESETS, preset
from cdgalab.symmetry import invariant_cohomology

from test_echelon_oracle import ref_kernel_image

PRESETS = [(name, {}) for name in FIXED_PRESETS] + [("CPN", {"m": 3}),
                                                    ("SASAKI_CPN_S2", {"n": 4})]


def _rings(name, params):
    """The free ring through cap - 1 and, with an action, the invariant ring."""
    bundle = preset(name, **params)
    rings = [("free", cohomology(bundle.spec, bundle.spec.degree_cap - 1))]
    if bundle.action is not None:
        rings.append(("invariant", invariant_cohomology(bundle.action,
                                                        bundle.spec.degree_cap - 1)))
    return rings


def ref_degree(ring, k):
    """The representative echelon of H^k: the kernel reduced by the image, spanned."""
    field, slices = ring.field, ring.slices

    def kernel_image(j):
        return ref_kernel_image(field, slices.dim(j), lambda i: slices.d_col(j, i))

    kernel = kernel_image(k)[0]
    image = kernel_image(k - 1)[1] if k > 0 else Echelon(field)
    residuals = (image.reduce(kvec)[0] for kvec in kernel.basis_rows())
    return span(field, (r for r in residuals if r))


@pytest.mark.parametrize("name, params", PRESETS, ids=[n for n, _ in PRESETS])
def test_representatives_match_reduce_then_span(name, params):
    for kind, ring in _rings(name, params):
        for k in range(ring.max_degree + 1):
            ref = ref_degree(ring, k)
            reps, ech = ring._degree(k)
            assert ring.reps(k) == reps == ref.basis_rows(), (kind, k)
            assert ech._rows == ref._rows, (kind, k)


def _snapshot(ring):
    """Copies of the rows and holder sets of every kernel echelon and every
    representative echelon (scalars are immutable)."""
    echelons = {("kernel", k): kernel for k, (kernel, _) in ring._d.items()}
    echelons.update({("reps", k): ech for k, (_, ech) in ring._degrees.items()})
    return {key: ({p: (dict(row), src) for p, (row, src) in ech._rows.items()},
                  {col: set(ps) for col, ps in ech._holders.items()})
            for key, ech in echelons.items()}


@pytest.mark.parametrize("name", ["T6", "HEIS6_Z6"])
def test_queries_leave_the_shared_kernel_echelons_unchanged(name):
    ring = dict(_rings(name, {}))["invariant" if name == "HEIS6_Z6" else "free"]
    echelons = [ring._degree(k)[1] for k in range(ring.max_degree + 1)]
    assert any(ech is ring._d[k][0] for k, ech in enumerate(echelons))
    if ring.slices.zero_d:  # T6: every kernel is read off the slice as its unit rows
        one = ring.field.one
        assert all(ech.basis_rows() == [{i: one} for i in range(ring.slices.dim(k))]
                   for k, ech in enumerate(echelons))
    before = _snapshot(ring)
    assert len(before) == len(ring._d) + len(echelons)
    n = ring.max_degree
    for p in range(n + 1):
        for q in range(n + 1 - p):
            for i in range(ring.betti[p]):
                for j in range(ring.betti[q]):
                    prod = ring.cup(ring.rep_class(p, i), ring.rep_class(q, j))
                    assert ring.class_of(prod.rep_vec(), p + q) == prod
                    assert ring.is_exact(prod.rep_vec(), p + q) == (None if prod.coords else {})
    massey_scan(ring)
    assert _snapshot(ring) == before
