"""Input documents for the `ladder` workload, built with plain fractions.

Each rung is the Chevalley-Eilenberg complex of a nilpotent Lie algebra,
written as a cdgalab combined document (docs/FORMATS.md).  Standard rungs
use the usual basis, whose structure constants are all +-1.  Rebased rungs
apply a seeded unipotent change of basis f_i = e_i + c_i e_{i+1} to the
degree-1 generators and rewrite every differential in the new basis.  The
seed draws each c_i (a small rational, times a power of zeta_N on a
cyclotomic rung); the positions are fixed, so every seed gives the same
fill-in and a similar amount of elimination, and only the coefficients
differ.  The algebra is isomorphic, so the Betti table does not change, but
the structure constants become dense and exact elimination has real
coefficient growth to work through.

Nothing here calls the engine: scalars are Fractions, or polynomials in
zeta_N with Fraction coefficients that are left unreduced, which the
document format accepts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# A quadratic form: {(i, j): coefficient} with i < j over generator indices.
Quadratic = Dict[Tuple[int, int], object]


def heisenberg(n: int) -> Tuple[List[str], List[Quadratic]]:
    """H(n): x_1..x_n, y_1..y_n, z with dz = sum x_i y_i."""
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)] + ["z"]
    diff: List[Quadratic] = [{} for _ in names]
    diff[2 * n] = {(i, n + i): 1 for i in range(n)}
    return names, diff


def filiform(n: int) -> Tuple[List[str], List[Quadratic]]:
    """L(n): e_1..e_n with de_k = e_1 e_{k-1} for k >= 3."""
    names = [f"e{i}" for i in range(1, n + 1)]
    diff: List[Quadratic] = [{} for _ in names]
    for k in range(2, n):
        diff[k] = {(0, k - 1): 1}
    return names, diff


def free_two_step(m: int) -> Tuple[List[str], List[Quadratic]]:
    """N(m): e_1..e_m and e_ij (i < j) with de_ij = e_i e_j."""
    names = [f"e{i}" for i in range(1, m + 1)]
    diff: List[Quadratic] = [{} for _ in names]
    for i in range(m):
        for j in range(i + 1, m):
            names.append(f"e{i + 1}{j + 1}")
            diff.append({(i, j): 1})
    return names, diff


FAMILIES = {"H": heisenberg, "L": filiform, "N": free_two_step}


# -- scalars: polynomials in zeta with Fraction coefficients, little-endian --

def _poly(c) -> List[Fraction]:
    return list(c) if isinstance(c, list) else [Fraction(c)]


def _padd(a, b):
    a, b = _poly(a), _poly(b)
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _pmul(a, b):
    a, b = _poly(a), _poly(b)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pneg(a):
    return [-x for x in _poly(a)]


def _is_zero(a) -> bool:
    return not any(_poly(a))


def _scalar_json(c, zeta: int):
    """A scalar literal; powers of zeta are folded with zeta^N = 1."""
    p = [Fraction(0)] * zeta
    for k, x in enumerate(_poly(c)):
        p[k % zeta] += x
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if zeta == 1:
        return str(p[0])
    return {"zeta": zeta, "poly": [str(x) for x in p]}


# -- the rebasing -------------------------------------------------------------

def _draw_basis_change(n: int, rng: random.Random, zeta: int):
    """N with a random entry at (i, i + 1) for every row but the last."""
    nil: Dict[Tuple[int, int], list] = {}
    for i in range(n - 1):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        nil[(i, i + 1)] = [Fraction(0)] * (rng.randrange(zeta) if zeta > 1 else 0) + [c]
    return nil


def _inverse_unipotent(n: int, nil) -> List[List[list]]:
    """(I + N)^-1 = sum_p (-N)^p, with N nilpotent."""
    ident = [[[Fraction(int(i == j))] for j in range(n)] for i in range(n)]
    result = [row[:] for row in ident]
    power = ident
    for _ in range(n - 1):
        nxt = [[[Fraction(0)] for _ in range(n)] for _ in range(n)]
        for (k, j), c in nil.items():
            for i in range(n):
                if not _is_zero(power[i][k]):
                    nxt[i][j] = _padd(nxt[i][j], _pmul(power[i][k], _pneg(c)))
        power = nxt
        if all(_is_zero(x) for row in power for x in row):
            break
        result = [[_padd(result[i][j], power[i][j]) for j in range(n)] for i in range(n)]
    return result


def rebase(diff: Sequence[Quadratic], nil) -> List[Quadratic]:
    """Differentials of f = (I + N) e, written in the f basis."""
    n = len(diff)
    inv = _inverse_unipotent(n, nil)
    rows: Dict[int, List[Tuple[int, list]]] = {i: [(i, [Fraction(1)])] for i in range(n)}
    for (i, j), c in nil.items():
        rows[i].append((j, c))

    def e_in_f(k):
        return [(m, inv[k][m]) for m in range(n) if not _is_zero(inv[k][m])]

    out: List[Quadratic] = []
    for i in range(n):
        acc: Dict[Tuple[int, int], list] = {}
        for j, a in rows[i]:
            for (k, l), c in diff[j].items():
                coeff = _pmul(a, c)
                # e_k e_l = sum_{m, p} B_km B_lp f_m f_p, folded onto m < p
                for m, bkm in e_in_f(k):
                    for p, blp in e_in_f(l):
                        if m == p:
                            continue
                        term = _pmul(coeff, _pmul(bkm, blp))
                        key = (m, p) if m < p else (p, m)
                        if m > p:
                            term = _pneg(term)
                        acc[key] = _padd(acc.get(key, [Fraction(0)]), term)
        out.append({key: c for key, c in sorted(acc.items()) if not _is_zero(c)})
    return out


def document(names: Sequence[str], diff: Sequence[Quadratic], zeta: int = 1,
             description: str = "") -> dict:
    """The combined document of a CE complex; degree_cap is the dimension + 1."""
    differential = {}
    for i, quad in enumerate(diff):
        if quad:
            differential[names[i]] = [
                {"coeff": _scalar_json(c, zeta), "monomial": [names[a], names[b]]}
                for (a, b), c in sorted(quad.items())]
    return {
        "algebra": {
            "zeta": zeta,
            "degree_cap": len(names) + 1,
            "generators": [{"name": g, "degree": 1} for g in names],
            "differential": differential,
            "relations": [],
        },
        "dim": len(names),
        "description": description,
    }


def rung_document(family: str, size: int, seed=None, zeta: int = 1) -> dict:
    """One rung: the standard basis when `seed` is None, else a rebased one.

    The basis change is drawn from a generator seeded by (seed, family,
    size, zeta), so each rung's draw does not depend on which others run.
    """
    names, diff = FAMILIES[family](size)
    label = f"{family}({size})"
    if seed is None:
        return document(names, diff, 1, f"{label}, standard basis")
    rng = random.Random(f"{seed}:{family}:{size}:{zeta}")
    nil = _draw_basis_change(len(names), rng, zeta)
    return document(names, rebase(diff, nil), zeta,
                    f"{label}, rebased with seed {seed} over Q(zeta_{zeta})")
