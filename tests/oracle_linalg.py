"""Brute-force oracles used only by the test suite.

These are deliberately independent of the package implementation: Smith
divisors are recovered from gcds of k-by-k minors (determinantal divisors)
with exact Bareiss determinants, and ranks over GF(p) come from a separate
mod-p echelon, which the tests check Z ranks, Smith divisors and homology
against (universal coefficients). Saturated sublattices of Z^n have a
Hermite basis (`saturate_rows`, the kernel of the kernel put in `row_hnf`
form) and a primitive Plücker vector from Bareiss minors
(`plucker_oracle`), which the tests check are two faithful keys of the
same lattices. Bareiss elimination lives only here: the package takes
every minor and determinant from the Laplace expansion `zsymbols.minors`,
which the tests check against `bareiss_det`. Subspaces of F_q^n are
checked against their explicit vector sets. The partition complex's
isomorphism onto the subset poset is rechecked by sorting each cell's
labels and applying the face rule of each image chain.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from titshom.building import Subspace, Vector, vec_add, vec_scale
from titshom.complexes import canonical_generator
from titshom.errors import IdentityViolation
from titshom.fqfield import FieldTable
from titshom.intmat import SparseIntMatrix, add_term
from titshom.partsix import ZSetComplex, ordered_partition_count
from titshom.snf import saturation
from titshom.zsymbols import rows_as_columns


def bareiss_det(mat) -> int:
    """Exact determinant of a square matrix by fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_divisors(dense: list[list[int]]) -> list[int]:
    """d_k = gcd of all k-by-k minors, for k = 1..rank (stops at rank)."""
    m = len(dense)
    n = len(dense[0]) if m else 0
    out: list[int] = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                minor = bareiss_det([[dense[r][c] for c in csel] for r in rsel])
                g = gcd(g, minor)
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g)
    return out


def snf_divisors_oracle(dense: list[list[int]]) -> list[int]:
    dd = determinantal_divisors(dense)
    out = []
    prev = 1
    for d in dd:
        out.append(d // prev)
        prev = d
    return out


def abelian_invariants_oracle(rel_rows: list[list[int]], n_gens: int) -> tuple[int, list[int]]:
    """(free rank, torsion) of Z^n_gens modulo the row span of rel_rows.

    Used as an independent presentation-based homology oracle.
    """
    if not rel_rows:
        return n_gens, []
    dense = [row[:] for row in rel_rows]
    divs = snf_divisors_oracle(dense)
    betti = n_gens - len(divs)
    torsion = [d for d in divs if d > 1]
    return betti, torsion


def row_hnf(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite form of the row lattice: positive pivots, entries
    above each pivot reduced into [0, pivot)."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(work)) if work[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][c]))
            work[r], work[i0] = work[i0], work[r]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][c]:
                    q = work[i][c] // work[r][c]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c]:
                        done = False
            if done:
                break
        if r < len(work) and work[r][c]:
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            p = work[r][c]
            for j in range(r):
                q = work[j][c] // p
                if q:
                    work[j] = [x - q * y for x, y in zip(work[j], work[r])]
            r += 1
            if r == len(work):
                break
    return tuple(tuple(row) for row in work[:r])


def saturate_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the saturation of the row span inside Z^n: the
    kernel of the kernel, from `snf.saturation` of the rows as columns."""
    sat = saturation(rows_as_columns(rows))
    return row_hnf([tuple(col.get(i, 0) for i in range(sat.n_rows)) for col in sat.cols])


def plucker_oracle(rows) -> tuple[int, ...]:
    """k x k Bareiss minors of k independent rows, over every column set in
    combinations order, divided by their gcd, first nonzero positive."""
    k, n = len(rows), len(rows[0])
    minors = [
        bareiss_det([[row[c] for c in cols] for row in rows]) for cols in combinations(range(n), k)
    ]
    g = gcd(*minors)
    if next(m for m in minors if m) < 0:
        g = -g
    return tuple(m // g for m in minors)


def rank_mod_p(a: SparseIntMatrix, p: int) -> int:
    """Rank of a over GF(p), for p prime, by a separate mod-p echelon."""
    cols = [{r: v % p for r, v in col.items() if v % p} for col in a.cols]
    return len(_echelon_mod_p(cols, p))


def _echelon_mod_p(cols: list[dict[int, int]], p: int) -> list[tuple[int, int]]:
    """Pivots (row, col), in row order, of a column echelon over GF(p)."""
    rowidx: dict[int, set[int]] = {}
    for c, col in enumerate(cols):
        for r in col:
            rowidx.setdefault(r, set()).add(c)

    def axpy(dst: int, src: int, mult: int) -> None:
        dcol = cols[dst]
        for r, v in cols[src].items():
            w = (dcol.get(r, 0) + mult * v) % p
            if w:
                if r not in dcol:
                    rowidx.setdefault(r, set()).add(dst)
                dcol[r] = w
            elif r in dcol:
                del dcol[r]
                rowidx[r].discard(dst)

    active = set(range(len(cols)))
    pivots: list[tuple[int, int]] = []
    max_row = max(rowidx) + 1 if rowidx else 0
    for r in range(max_row):
        cands = [c for c in rowidx.get(r, ()) if c in active]
        if not cands:
            continue
        src = min(cands, key=lambda c: len(cols[c]))
        inv = pow(cols[src][r], -1, p)
        for c in cands:
            if c != src:
                axpy(c, src, (-cols[c][r] * inv) % p)
        active.discard(src)
        pivots.append((r, src))
    return pivots


def span_vectors(ft: FieldTable, basis: Subspace) -> frozenset[Vector]:
    """Every vector of the subspace (q^dim of them)."""
    if not basis:
        return frozenset()
    width = len(basis[0])
    out = {tuple([0] * width)}
    for row in basis:
        nxt = set()
        for v in out:
            for c in range(ft.q):
                nxt.add(vec_add(ft, v, vec_scale(ft, c, row)))
        out = nxt
    return frozenset(out)


def face_rule(chain: tuple) -> dict[tuple, int]:
    """Boundary of an order-complex chain: drop entry j with sign (-1)^j."""
    return {chain[:j] + chain[j + 1 :]: -1 if j & 1 else 1 for j in range(len(chain))}


def poset_iso_oracle(zc: ZSetComplex) -> dict:
    """`partsix.zcomplex_poset_iso` by sorting and by chain arithmetic.

    Each cell's sign is `canonical_generator` of its concatenated blocks, and
    each column, pushed through the map, must equal `face_rule` of its image
    chain. The rank table and the messages are the fast check's, except
    that a label repeated inside one block gets sign 0 here and so fails the
    square rather than the strict-chain test.
    """
    if zc.cx.degrees != list(range(-1, zc.d - 1)):
        raise IdentityViolation(f"degrees {zc.cx.degrees} are not -1..{zc.d - 2}")
    unit_bit = {x: 1 << i for i, u in enumerate(zc.units) for x in u}
    below: list = []
    for deg in zc.cx.degrees:
        images, seen = [], set()
        for lab in zc.cx.basis[deg]:
            acc, chain = 0, ()
            for blk in lab[:-1]:
                for x in blk:
                    acc |= unit_bit[x]
                chain += (acc,)
            # the prefixes only grow, so the chain is strict when neighbours differ
            if not all(a != b for a, b in zip((0,) + chain, chain + ((1 << zc.d) - 1,))):
                raise IdentityViolation(f"poset map image of {lab} is not a strict chain")
            if chain in seen:
                raise IdentityViolation(f"poset map not injective at {lab}")
            seen.add(chain)
            images.append((canonical_generator(tuple(x for blk in lab for x in blk))[1], chain))
        if len(images) != ordered_partition_count(zc.d, deg + 2):
            raise IdentityViolation(f"poset map not onto in degree {deg}")
        cols = zc.cx.boundary_at(deg).cols
        for lab, (eps, chain), col in zip(zc.cx.basis[deg], images, cols):
            through: dict = {}
            for i, v in col.items():
                sign, face = below[i]
                add_term(through, face, eps * sign * v)
            if through != face_rule(chain):
                raise IdentityViolation(f"poset map fails to commute at {lab}")
        below = images
    return {d: zc.cx.dim(d) for d in zc.cx.degrees}
