"""Echelon and kernel_image against dense Gauss-Jordan elimination.

The reference works on dense lists of Fraction coefficient tuples, with the
Fraction arithmetic of tests/test_scalar_oracle.py, over Q and Q(zeta_3).
Random sparse matrices get forced dependent columns (random combinations of
other columns), so kernels are never trivial by accident.  Pivots, basis
rows, solutions and kernel rows must agree exactly: the reduced row-echelon
form of a row space is unique, and so is the solution supported on the
pivot columns.

``ref_kernel_image`` is the kernel_image loop before zero columns skipped
elimination: every column, zero or not, is reduced by the image and its
kernel vector added through ``Echelon.add``.  ``ref_reduce`` and
``ref_coordinates`` never take the unit-row paths: every elimination step
is a full accumulate, and coordinates always come after a reduction.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cdgalab.linalg import Echelon, kernel_image, span, vec_iadd
from cdgalab.scalars import CycField
from test_scalar_oracle import ref_add, ref_from_poly, ref_inverse, ref_mul, ref_neg


def ref_rref(n: int, rows: list, ncols: int):
    """(pivot columns, nonzero rows) of the reduced row-echelon form."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if any(m[i][c])), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = ref_inverse(n, m[r][c])
        m[r] = [ref_mul(n, inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and any(m[i][c]):
                f = m[i][c]
                m[i] = [ref_add(x, ref_neg(ref_mul(n, f, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


def sparse(row) -> dict:
    return {c: x for c, x in enumerate(row) if any(x)}


def coeffs_of(vec: dict) -> dict:
    return {c: s.coeffs for c, s in vec.items()}


def transpose(cols: list, nrows: int) -> list:
    return [[col[r] for col in cols] for r in range(nrows)]


def ref_solve(n: int, cols: list, target: list, nrows: int):
    """The solution of sum x_i cols[i] = target on the pivot columns, or None."""
    pivots, rows = ref_rref(n, transpose(cols + [target], nrows), len(cols) + 1)
    if len(cols) in pivots:
        return None
    return {p: row[-1] for p, row in zip(pivots, rows) if any(row[-1])}


def ref_kernel(n: int, cols: list, nrows: int) -> list:
    """RREF rows of the null space of the matrix with columns ``cols``."""
    s = len(cols)
    one = ref_from_poly(n, [1])
    zero = tuple(Fraction(0) for _ in one)
    pivots, rows = ref_rref(n, transpose(cols, nrows), s)
    null = []
    for f in range(s):
        if f in pivots:
            continue
        vec = [zero] * s
        vec[f] = one
        for p, row in zip(pivots, rows):
            vec[p] = ref_neg(row[f])
        null.append(vec)
    return [sparse(r) for r in ref_rref(n, null, s)[1]]


@st.composite
def matrices(draw):
    """(modulus, number of rows, dense columns, a target) with dependent columns."""
    n = draw(st.sampled_from([1, 3]))
    d = CycField.get(n).degree
    nrows = draw(st.integers(1, 7))
    small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    zero = (Fraction(0),) * d

    def scalar():
        return tuple(draw(small) for _ in range(d))

    def sparse_col():
        return [scalar() if draw(st.booleans()) else zero for _ in range(nrows)]

    cols = [sparse_col() for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.integers(0, len(cols) - 1), min_size=1, max_size=3))
        combo = [zero] * nrows
        for j in picks:
            c = scalar()
            combo = [ref_add(x, ref_mul(n, c, y)) for x, y in zip(combo, cols[j])]
        cols.insert(draw(st.integers(0, len(cols))), combo)
    # A target in the column span, or (most likely) outside it.
    if draw(st.booleans()):
        target = cols[draw(st.integers(0, len(cols) - 1))]
    else:
        target = sparse_col()
    return n, nrows, cols, target


def engine_vec(field: CycField, dense: list) -> dict:
    return {c: field.from_poly(list(x)) for c, x in sparse(dense).items()}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_matches_gauss_jordan(case):
    n, nrows, cols, target = case
    field = CycField.get(n)
    ech = Echelon(field)
    for i, col in enumerate(cols):
        ech.add(engine_vec(field, col), source={i: field.one})
    pivots, rows = ref_rref(n, cols, nrows)
    assert ech.pivots() == pivots
    assert ech.rank == len(pivots)
    assert [coeffs_of(r) for r in ech.basis_rows()] == [sparse(r) for r in rows]
    expected = ref_solve(n, cols, target, nrows)
    got = ech.solve(engine_vec(field, target))
    assert (got is None) == (expected is None)
    assert ech.contains(engine_vec(field, target)) == (expected is not None)
    if got is not None:
        assert coeffs_of(got) == expected


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_image_matches_gauss_jordan(case):
    n, nrows, cols, target = case
    field = CycField.get(n)
    kernel, image = kernel_image(field, len(cols), lambda i: engine_vec(field, cols[i]))
    assert [coeffs_of(r) for r in kernel.basis_rows()] == ref_kernel(n, cols, nrows)
    assert [coeffs_of(r) for r in image.basis_rows()] == \
        [sparse(r) for r in ref_rref(n, cols, nrows)[1]]
    assert kernel.rank + image.rank == len(cols)
    expected = ref_solve(n, cols, target, nrows)
    got = image.solve(engine_vec(field, target))
    assert (got is None) == (expected is None)
    if got is not None:
        assert coeffs_of(got) == expected


# -- the column index: which stored rows hold each non-pivot column -----------

@st.composite
def row_batches(draw):
    """(modulus, columns, rows, a split point, other rows, a probe) over Q or Q(zeta_12)."""
    n = draw(st.sampled_from([1, 12]))
    d = CycField.get(n).degree
    ncols = draw(st.integers(1, 8))
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    zero = (Fraction(0),) * d

    def row():
        return [tuple(draw(small) for _ in range(d)) if draw(st.integers(0, 2)) == 0
                else zero for _ in range(ncols)]

    rows = [row() for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 3))):  # dependent rows, so some inserts do not grow
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append([ref_add(x, y) for x, y in zip(rows[a], rows[b])])
    split = draw(st.integers(0, len(rows)))
    others = [row() for _ in range(draw(st.integers(1, 5)))]
    return n, ncols, rows, split, others, row()


def holders_from_rows(ech) -> dict:
    out = {}
    for pivot, (row, _) in ech._rows.items():
        for col in row:
            if col != pivot:
                out.setdefault(col, set()).add(pivot)
    return out


def check_against_reference(ech, n, rows, ncols):
    assert [coeffs_of(r) for r in ech.basis_rows()] == \
        [sparse(r) for r in ref_rref(n, rows, ncols)[1]]
    assert {col: ps for col, ps in ech._holders.items() if ps} == holders_from_rows(ech)


def snapshot(ech, probe):
    residual, src = ech.reduce(probe, source={})
    got = ech.solve(probe)
    return ([(p, list(row.items()), list(src_.items())) for p, (row, src_) in ech._rows.items()],
            list(residual.items()), list(src.items()), got and list(got.items()))


@settings(max_examples=200, deadline=None)
@given(row_batches())
def test_column_index_matches_the_rows(case):
    n, ncols, rows, split, others, probe = case
    field = CycField.get(n)
    ech = Echelon(field)
    for i, row in enumerate(rows[:split]):
        ech.add(engine_vec(field, row), source={i: field.one})
        check_against_reference(ech, n, rows[:i + 1], ncols)
    probe = engine_vec(field, probe)
    before = snapshot(ech, probe)
    twin = ech.copy()
    for j, row in enumerate(others):
        twin.add(engine_vec(field, row), source={len(rows) + j: field.one})
        check_against_reference(twin, n, rows[:split] + others[:j + 1], ncols)
        assert snapshot(ech, probe) == before
    for i, row in enumerate(rows[split:], start=split):
        ech.add(engine_vec(field, row), source={i: field.one})
        check_against_reference(ech, n, rows[:i + 1], ncols)


# -- zero columns enter the kernel as e_i --------------------------------------

def ref_kernel_image(field: CycField, dim_src: int, apply):
    """kernel_image with every column eliminated, zero columns included."""
    image = Echelon(field)
    kernel = Echelon(field)
    one = field.one
    for i in range(dim_src):
        residual, src = image.reduce(apply(i), source={i: one})
        if not image._insert(residual, src):
            src[i] = src.pop(i)
            kernel.add(src)
    return kernel, image


@st.composite
def matrices_with_zero_columns(draw):
    """(modulus, rows, dense columns, an extra source row): zero columns first, in
    the middle and last, or no nonzero column at all."""
    n, nrows, cols, _ = draw(matrices())
    d = CycField.get(n).degree
    zero = [(Fraction(0),) * d] * nrows

    def zeros():
        return [zero] * draw(st.integers(1, 2))

    if draw(st.booleans()):
        mid = draw(st.integers(0, len(cols)))
        cols = zeros() + cols[:mid] + zeros() + cols[mid:] + zeros()
    else:
        cols = [zero] * draw(st.integers(1, 6))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    extra = [tuple(draw(small) for _ in range(d)) for _ in cols]
    return n, nrows, cols, extra


def check_kernel_image(kernel, image, want_kernel, want_image):
    """Rows and sources as the reference's (kernel sources None), holders as the rows say."""
    assert kernel._rows == want_kernel._rows
    assert all(src is None for _, src in kernel._rows.values())
    assert image._rows == want_image._rows
    for ech in (kernel, image):
        assert {col: ps for col, ps in ech._holders.items() if ps} == holders_from_rows(ech)


@settings(max_examples=200, deadline=None)
@given(matrices_with_zero_columns())
def test_zero_columns_give_the_eliminated_kernel(case):
    n, nrows, cols, extra = case
    field = CycField.get(n)
    got = kernel_image(field, len(cols), lambda i: engine_vec(field, cols[i]))
    ref = ref_kernel_image(field, len(cols), lambda i: engine_vec(field, cols[i]))
    check_kernel_image(*got, *ref)
    assert [coeffs_of(r) for r in got[0].basis_rows()] == ref_kernel(n, cols, nrows)
    # The kernel stays a working echelon: one more row lands as in the reference.
    got[0].add(engine_vec(field, extra))
    ref[0].add(engine_vec(field, extra))
    check_kernel_image(*got, *ref)


# -- unit rows: eliminated by a pop, read off by position ---------------------

def ref_reduce(ech, row, source=None):
    """Echelon.reduce with every step accumulated in full, against unit rows too."""
    row = dict(row)
    src = dict(source) if source is not None else None
    for col in sorted(c for c in row if c in ech._rows):
        prow, psrc = ech._rows[col]
        c = -row[col]
        vec_iadd(row, prow, c)  # row[col] + c * 1 is zero, so the sum drops it
        if src is not None and psrc is not None:
            vec_iadd(src, psrc, c)
    return row, src


def ref_coordinates(ech, vec):
    """Coordinates after a full reduction, read at every pivot in turn."""
    if ref_reduce(ech, vec)[0]:
        return None
    return {j: vec[p] for j, p in enumerate(sorted(ech._rows)) if p in vec}


def items(vec):
    return None if vec is None else list(vec.items())


def check_unit_paths(ech, probes):
    """reduce and coordinates as the reference gives them, in the same dict order."""
    for probe in probes:
        got, want = ech.reduce(probe, source={}), ref_reduce(ech, probe, source={})
        assert [items(v) for v in got] == [items(v) for v in want]
        assert items(ech.coordinates(probe)) == items(ref_coordinates(ech, probe))


@st.composite
def unit_batches(draw):
    """(modulus, rows, other rows, probes, columns, source rows, source probes): most
    rows are a multiple of some e_p, the rest sparse, so echelons enter and leave the
    all-unit state; zero and unit columns give kernel_image's direct rows."""
    n = draw(st.sampled_from([1, 3]))
    d = CycField.get(n).degree
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    zero = (Fraction(0),) * d

    def scalar():
        return tuple(draw(small) for _ in range(d))

    def row(width):
        if draw(st.integers(0, 2)):  # a multiple of e_p, zero if the scalar is
            p, c = draw(st.integers(0, width - 1)), scalar()
            return [c if i == p else zero for i in range(width)]
        return [scalar() if draw(st.booleans()) else zero for _ in range(width)]

    def rows(width, lo, hi):
        return [row(width) for _ in range(draw(st.integers(lo, hi)))]

    ncols, nsrc = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    base = rows(ncols, 1, 8)
    probes = rows(ncols, 2, 5) + [[ref_add(x, y) for x, y in zip(base[0], base[-1])]]
    return (n, base, rows(ncols, 0, 4), probes,
            rows(ncols, nsrc, nsrc), rows(nsrc, 0, 4), rows(nsrc, 2, 5))


@settings(max_examples=300, deadline=None)
@given(unit_batches())
def test_unit_rows_match_the_full_elimination(case):
    n, base, others, probes, cols, srcs, src_probes = case
    field = CycField.get(n)
    probes = [engine_vec(field, p) for p in probes]
    src_probes = [engine_vec(field, p) for p in src_probes]
    ech = Echelon(field)
    for i, row in enumerate(base):
        ech.add(engine_vec(field, row), source={i: field.one})
        check_unit_paths(ech, probes)
    twin = ech.copy()
    check_unit_paths(twin, probes)
    for j, row in enumerate(others):
        twin.add(engine_vec(field, row), source={len(base) + j: field.one})
        check_unit_paths(twin, probes)
        check_unit_paths(ech, probes)
    kernel, image = kernel_image(field, len(cols), lambda i: engine_vec(field, cols[i]))
    check_unit_paths(image, probes)
    check_unit_paths(kernel, src_probes)
    for row in srcs:  # the kernel stays a working echelon after its direct rows
        kernel.add(engine_vec(field, row))
        check_unit_paths(kernel, src_probes)


def test_a_non_unit_row_leaves_the_unit_path():
    field = CycField.get(1)
    one, two = field.one, field.rational(2)
    ech = span(field, [{0: two}, {2: one}])
    assert ech.coordinates({0: one, 2: two}) == {0: one, 1: two}
    assert ech.coordinates({0: one, 1: one}) is None  # 1 is not a pivot
    assert ech._positions == {0: 0, 2: 1}
    ech.add({1: one, 3: one})
    assert ech.coordinates({1: one, 3: one}) == {1: one}
    assert ech.coordinates({1: one}) is None
    assert ech._positions is False
    check_unit_paths(ech, [{1: one, 3: two}, {0: two, 1: two, 3: two}, {3: one}])


def test_back_substitution_that_leaves_a_unit_row_enters_the_unit_path():
    field = CycField.get(3)
    one, zeta = field.one, field.from_poly([0, 1])
    ech = span(field, [{0: one, 1: zeta}])
    assert ech.coordinates({0: one}) is None
    assert ech._positions is False
    ech.add({1: one})  # back-substitution leaves row 0 as e_0
    assert ech.basis_rows() == [{0: one}, {1: one}]
    assert ech.coordinates({0: one, 1: zeta}) == {0: one, 1: zeta}
    assert ech._positions == {0: 0, 1: 1}
    check_unit_paths(ech, [{0: zeta}, {1: one, 2: one}, {}])


@settings(max_examples=100, deadline=None)
@given(unit_batches())
def test_reduce_never_returns_the_callers_dicts(case):
    """With or without an entry at a pivot, the residuals are new dicts: a caller
    may write to them (kernel_image moves a source key) and its input stays."""
    n, base, _, probes, *_ = case
    field = CycField.get(n)
    ech = Echelon(field)
    for i, row in enumerate([None] + base):  # the empty echelon eliminates nothing
        if row is not None:
            ech.add(engine_vec(field, row), source={i: field.one})
        for probe in [engine_vec(field, p) for p in probes] + [{}]:
            source = {len(base) + 1: field.one}
            before = items(probe), items(source)
            residual, src = ech.reduce(probe, source)
            assert residual is not probe and src is not source
            residual[-1] = src[-1] = field.one
            assert (items(probe), items(source)) == before
            assert ech.reduce(probe)[1] is None
