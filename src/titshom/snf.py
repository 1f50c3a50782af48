"""Exact elimination over Z and F_p: Smith form, kernels, cokernels.

All integer elimination uses unimodular row/column operations only, so
divisors, kernels, and cokernel invariants are exact. One column-echelon
engine (`_ColumnEngine`) serves ranks, kernels, lattice solves and the first
phase of every divisors-only Smith form:

1. Echelon. Column operations bring A to a column echelon E = A*V. The
   minor of E on its pivot rows and pivot columns is lower triangular with
   the pivots on its diagonal. If every pivot is +-1 that minor is +-1, so
   the gcd of the r x r minors of A is 1 and all r divisors are 1; the
   result is certified without further work.
2. Full Smith form (`_RowColEngine`), for a non-unit echelon pivot and for
   every call that asks for transforms. Pivots prefer units and low
   Markowitz fill count ((nnz(row)-1)*(nnz(col)-1)); non-unit pivots shrink
   via nearest-integer Euclid steps, which bounds coefficient growth. The
   gcd/lcm fix-up that makes the diagonal a divisibility chain runs over the
   non-unit pivots only, since a unit divides everything.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .intmat import SparseIntMatrix


# -- coefficient rings -------------------------------------------------------


class CoefficientRing:
    __slots__ = ("tag", "p")

    def __init__(self, tag: str, p: int | None = None):
        self.tag = tag
        self.p = p

    def __repr__(self) -> str:
        return self.tag if self.p is None else f"GF({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoefficientRing) and (self.tag, self.p) == (other.tag, other.p)

    def __hash__(self) -> int:
        return hash((self.tag, self.p))


ZZ = CoefficientRing("ZZ")
QQ = CoefficientRing("QQ")


@lru_cache(maxsize=None)
def GF(p: int) -> CoefficientRing:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    return CoefficientRing("GF", p)


def _nearest_quotient(a: int, b: int) -> int:
    """q minimizing |a - q*b| for b != 0 (ties round up)."""
    if b < 0:
        return -_nearest_quotient(a, -b)
    return (2 * a + b) // (2 * b)


# -- row-major elimination engine (for SNF) ---------------------------------


class _RowColEngine:
    """Mutable elimination state with optional transform tracking.

    Invariant kept throughout: a finished pivot row has a single nonzero
    entry (its pivot column) and vice versa, so later operations never
    touch finished rows or columns.
    """

    def __init__(self, a: SparseIntMatrix, track_u: bool, track_v: bool):
        self.m, self.n = a.shape
        self.rows: list[dict[int, int]] = [dict(row) for row in a.rows]
        self.colidx: dict[int, set[int]] = {}
        for r, row in enumerate(self.rows):
            for c in row:
                self.colidx.setdefault(c, set()).add(r)
        self.u_rows = [{i: 1} for i in range(self.m)] if track_u else None
        self.v_cols = [{i: 1} for i in range(self.n)] if track_v else None
        # positions that gained or changed a nonzero value since last drain;
        # the pivot heap needs these to stay complete
        self.dirty: list[tuple[int, int]] = []

    # row ops (left transform)

    def row_axpy(self, dst: int, src: int, mult: int) -> None:
        if mult == 0:
            return
        drow = self.rows[dst]
        dirty = self.dirty
        for c, v in self.rows[src].items():
            w = drow.get(c, 0) + mult * v
            if w:
                if c not in drow:
                    self.colidx.setdefault(c, set()).add(dst)
                drow[c] = w
                dirty.append((dst, c))
            elif c in drow:
                del drow[c]
                self.colidx[c].discard(dst)
        if self.u_rows is not None:
            udst = self.u_rows[dst]
            for c, v in self.u_rows[src].items():
                w = udst.get(c, 0) + mult * v
                if w:
                    udst[c] = w
                elif c in udst:
                    del udst[c]

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        for c in set(self.rows[i]) | set(self.rows[j]):
            s = self.colidx[c]
            has_i, has_j = i in s, j in s
            if has_i != has_j:
                if has_i:
                    s.discard(i)
                    s.add(j)
                else:
                    s.discard(j)
                    s.add(i)
            self.dirty.append((i, c))
            self.dirty.append((j, c))
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]
        if self.u_rows is not None:
            self.u_rows[i], self.u_rows[j] = self.u_rows[j], self.u_rows[i]

    def negate_row(self, i: int) -> None:
        self.rows[i] = {c: -v for c, v in self.rows[i].items()}
        if self.u_rows is not None:
            self.u_rows[i] = {c: -v for c, v in self.u_rows[i].items()}

    # column ops (right transform)

    def col_axpy(self, dst: int, src: int, mult: int) -> None:
        if mult == 0:
            return
        dirty = self.dirty
        for r in list(self.colidx.get(src, ())):
            row = self.rows[r]
            w = row.get(dst, 0) + mult * row[src]
            if w:
                if dst not in row:
                    self.colidx.setdefault(dst, set()).add(r)
                row[dst] = w
                dirty.append((r, dst))
            elif dst in row:
                del row[dst]
                self.colidx[dst].discard(r)
        if self.v_cols is not None:
            vdst = self.v_cols[dst]
            for r, v in self.v_cols[src].items():
                w = vdst.get(r, 0) + mult * v
                if w:
                    vdst[r] = w
                elif r in vdst:
                    del vdst[r]

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        rows_i = self.colidx.get(i, set())
        rows_j = self.colidx.get(j, set())
        for r in rows_i | rows_j:
            row = self.rows[r]
            vi, vj = row.get(i), row.get(j)
            if vi is not None:
                del row[i]
            if vj is not None:
                del row[j]
            if vj is not None:
                row[i] = vj
            if vi is not None:
                row[j] = vi
            self.dirty.append((r, i))
            self.dirty.append((r, j))
        self.colidx[i], self.colidx[j] = set(rows_j), set(rows_i)
        if self.v_cols is not None:
            self.v_cols[i], self.v_cols[j] = self.v_cols[j], self.v_cols[i]

    def negate_col(self, c: int) -> None:
        for r in self.colidx.get(c, ()):
            self.rows[r][c] = -self.rows[r][c]
        if self.v_cols is not None:
            self.v_cols[c] = {r: -v for r, v in self.v_cols[c].items()}

    def col_pair_transform(self, c1: int, c2: int, a: int, b: int, s: int, t: int) -> None:
        """(col c1, col c2) <- (a*c1 + b*c2, s*c1 + t*c2); a*t - b*s = +-1."""
        for r in self.colidx.get(c1, set()) | self.colidx.get(c2, set()):
            row = self.rows[r]
            v1, v2 = row.get(c1, 0), row.get(c2, 0)
            n1, n2 = a * v1 + b * v2, s * v1 + t * v2
            for c, nv in ((c1, n1), (c2, n2)):
                if nv:
                    row[c] = nv
                    self.colidx.setdefault(c, set()).add(r)
                    self.dirty.append((r, c))
                elif c in row:
                    del row[c]
                    self.colidx[c].discard(r)
        if self.v_cols is not None:
            w1, w2 = self.v_cols[c1], self.v_cols[c2]
            keys = set(w1) | set(w2)
            new1, new2 = {}, {}
            for r in keys:
                v1, v2 = w1.get(r, 0), w2.get(r, 0)
                n1, n2 = a * v1 + b * v2, s * v1 + t * v2
                if n1:
                    new1[r] = n1
                if n2:
                    new2[r] = n2
            self.v_cols[c1], self.v_cols[c2] = new1, new2


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@dataclass(frozen=True)
class SNFResult:
    divisors: tuple[int, ...]
    left: SparseIntMatrix | None
    right: SparseIntMatrix | None

    @property
    def rank(self) -> int:
        return len(self.divisors)


def smith_normal_form(a: SparseIntMatrix, transforms: bool = False) -> SNFResult:
    """Diagonalize by unimodular row/column operations.

    Returns positive divisors d_1 | d_2 | ... | d_r. With transforms=True the
    result also carries U (rows x rows) and V (cols x cols) with U*A*V equal
    to the diagonal matrix of divisors padded with zeros.

    Without transforms, one column-echelon pass runs first; when all its
    pivots are units, the unit-diagonal triangular pivot minor certifies
    that every divisor is 1 and the result is returned at once. Otherwise,
    and always with transforms, the row/column engine computes the full
    form, with its divisibility fix-up restricted to the non-unit pivots.
    """
    if not transforms:
        echelon = _ColumnEngine(a, track_v=False)
        echelon_pivots, _ = echelon.reduce()
        if all(echelon.cols[c][r] in (1, -1) for r, c in echelon_pivots):
            return SNFResult((1,) * len(echelon_pivots), None, None)

    eng = _RowColEngine(a, track_u=transforms, track_v=transforms)
    rows, colidx = eng.rows, eng.colidx
    done_rows: set[int] = set()
    done_cols: set[int] = set()
    pivots: list[tuple[int, int]] = []

    heap: list[tuple[tuple[int, int, int], int, int]] = []

    def priority(r: int, c: int, v: int) -> tuple[int, int, int]:
        av = -v if v < 0 else v
        return (0 if av == 1 else 1, (len(rows[r]) - 1) * (len(colidx[c]) - 1), av)

    for r, row in enumerate(rows):
        for c, v in row.items():
            heapq.heappush(heap, (priority(r, c, v), r, c))

    def pivot_cleanup(r: int, c: int) -> None:
        # Alternate column and row clearing; pivot magnitude strictly drops
        # whenever a remainder survives, so this terminates.
        while True:
            # clear column c
            while True:
                others = [r2 for r2 in colidx.get(c, ()) if r2 != r]
                if not others:
                    break
                v = rows[r][c]
                for r2 in others:
                    q = _nearest_quotient(rows[r2][c], v)
                    eng.row_axpy(r2, r, -q)
                rem = [(abs(rows[r2][c]), r2) for r2 in others if c in rows[r2]]
                if not rem:
                    break
                eng.swap_rows(r, min(rem)[1])
            # clear row r
            refill = False
            while True:
                others = [c2 for c2 in rows[r] if c2 != c]
                if not others:
                    break
                v = rows[r][c]
                for c2 in others:
                    q = _nearest_quotient(rows[r][c2], v)
                    eng.col_axpy(c2, c, -q)
                rem = [(abs(rows[r][c2]), c2) for c2 in others if c2 in rows[r]]
                if not rem:
                    break
                eng.swap_cols(c, min(rem)[1])
                refill = True
            if len(colidx.get(c, ())) <= 1 and not refill:
                break

    while heap:
        pri, r, c = heapq.heappop(heap)
        if r in done_rows or c in done_cols:
            continue
        v = rows[r].get(c)
        if not v:
            continue
        cur = priority(r, c, v)
        if cur != pri:
            heapq.heappush(heap, (cur, r, c))
            continue
        pivot_cleanup(r, c)
        done_rows.add(r)
        done_cols.add(c)
        pivots.append((r, c))
        # cleanup may have created entries at fresh positions
        for r2, c2 in eng.dirty:
            if r2 in done_rows or c2 in done_cols:
                continue
            v2 = rows[r2].get(c2)
            if v2:
                heapq.heappush(heap, (priority(r2, c2, v2), r2, c2))
        eng.dirty.clear()

    # divisibility fixup on the diagonal: (d_i, d_j) -> (gcd, lcm) via one
    # unimodular column pair transform plus two row operations. A unit
    # divides every pivot, so units can stay where they are: only the
    # non-unit pivots take part, and sorting puts the units first and keeps
    # the chain of the rest.
    chain = [(r, c) for r, c in pivots if rows[r][c] not in (1, -1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(chain)):
            ri, ci = chain[i]
            for j in range(i + 1, len(chain)):
                rj, cj = chain[j]
                di, dj = rows[ri][ci], rows[rj][cj]
                if dj % di == 0:
                    continue
                changed = True
                g, x, y = _ext_gcd(di, dj)
                eng.row_axpy(ri, rj, 1)
                eng.col_pair_transform(ci, cj, x, y, -(dj // g), di // g)
                eng.row_axpy(rj, ri, -(y * dj) // g)

    divisors: list[int] = []
    for r, c in pivots:
        if rows[r][c] < 0:
            eng.negate_row(r)
        divisors.append(rows[r][c])

    order = sorted(range(len(pivots)), key=lambda i: divisors[i])
    divisors_sorted = tuple(divisors[i] for i in order)

    left = right = None
    if transforms:
        # permute pivots onto the leading diagonal in divisor order
        perm = [list(pivots[i]) for i in order]
        for k in range(len(perm)):
            r = perm[k][0]
            if r != k:
                eng.swap_rows(k, r)
                for p in perm:
                    if p[0] == k:
                        p[0] = r
                    elif p[0] == r:
                        p[0] = k
            c = perm[k][1]
            if c != k:
                eng.swap_cols(k, c)
                for p in perm:
                    if p[1] == k:
                        p[1] = c
                    elif p[1] == c:
                        p[1] = k
        assert all(p == [k, k] for k, p in enumerate(perm))
        assert eng.u_rows is not None and eng.v_cols is not None
        left = SparseIntMatrix(eng.m, eng.m, [dict(x) for x in eng.u_rows])
        right = SparseIntMatrix.from_columns(eng.n, [dict(x) for x in eng.v_cols])
    return SNFResult(divisors_sorted, left, right)


# -- column-major engine (kernels, echelon solving) --------------------------


class _ColumnEngine:
    def __init__(self, a: SparseIntMatrix, track_v: bool):
        self.m, self.n = a.shape
        self.cols: list[dict[int, int]] = a.columns()
        self.rowidx: dict[int, set[int]] = {}
        for c, col in enumerate(self.cols):
            for r in col:
                self.rowidx.setdefault(r, set()).add(c)
        self.v_cols = [{i: 1} for i in range(self.n)] if track_v else None

    def col_axpy(self, dst: int, src: int, mult: int) -> None:
        if mult == 0:
            return
        dcol = self.cols[dst]
        rowidx = self.rowidx  # holds every row that src has an entry in
        for r, v in self.cols[src].items():
            old = dcol.get(r)
            if old is None:
                dcol[r] = mult * v
                rowidx[r].add(dst)
                continue
            w = old + mult * v
            if w:
                dcol[r] = w
            else:
                del dcol[r]
                rowidx[r].discard(dst)
        if self.v_cols is not None:
            vdst = self.v_cols[dst]
            for r, v in self.v_cols[src].items():
                w = vdst.get(r, 0) + mult * v
                if w:
                    vdst[r] = w
                else:
                    del vdst[r]

    def reduce(self) -> tuple[list[tuple[int, int]], list[int]]:
        """Column echelon by unimodular column ops.

        Returns (pivots, free_cols): pivots is a list of (row, col) in row
        order; free_cols are columns that ended identically zero. After this
        runs, every free column is zero and each pivot column's topmost
        nonzero row is its pivot row.
        """
        active = set(range(self.n))
        pivots: list[tuple[int, int]] = []
        for r in range(self.m):
            cands = [c for c in self.rowidx.get(r, ()) if c in active]
            if not cands:
                continue
            while len(cands) > 1:
                # unit source clears everything in one pass
                src = min(cands, key=lambda c: (abs(self.cols[c][r]) != 1, abs(self.cols[c][r]), len(self.cols[c])))
                sv = self.cols[src][r]
                for c in cands:
                    if c == src:
                        continue
                    q = _nearest_quotient(self.cols[c][r], sv)
                    self.col_axpy(c, src, -q)
                cands = [c for c in self.rowidx.get(r, ()) if c in active]
            pivot = cands[0]
            active.discard(pivot)
            pivots.append((r, pivot))
        free = sorted(c for c in active if not self.cols[c])
        leftover = [c for c in active if self.cols[c]]
        if leftover:  # pragma: no cover - impossible by the invariant above
            raise AssertionError("active column with residue after reduction")
        return pivots, free


def rank(a: SparseIntMatrix, ring: CoefficientRing = ZZ) -> int:
    if ring.tag == "GF":
        return _rank_mod_p(a, ring.p)  # type: ignore[arg-type]
    eng = _ColumnEngine(a, track_v=False)
    pivots, _ = eng.reduce()
    return len(pivots)


def kernel_basis(a: SparseIntMatrix, ring: CoefficientRing = ZZ) -> SparseIntMatrix:
    """Columns form a basis of ker(a) acting on column vectors.

    Over ZZ the basis spans a saturated lattice: with V tracking column ops,
    E = A*V is column echelon and the V-columns over zero E-columns span
    {x : A x = 0} exactly (any kernel x = V*y forces y supported on the zero
    columns since the nonzero ones are echelon-independent). QQ reuses the
    integral basis; GF(p) reduces mod p.
    """
    if ring.tag == "GF":
        return _kernel_mod_p(a, ring.p)  # type: ignore[arg-type]
    eng = _ColumnEngine(a, track_v=True)
    _, free = eng.reduce()
    assert eng.v_cols is not None
    return SparseIntMatrix.from_columns(a.n_cols, [eng.v_cols[c] for c in free])


def nullity(a: SparseIntMatrix, ring: CoefficientRing = ZZ) -> int:
    return a.n_cols - rank(a, ring)


def cokernel_invariants(a: SparseIntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion divisors > 1) of Z^rows / column-span(a)."""
    res = smith_normal_form(a)
    betti = a.n_rows - res.rank
    torsion = tuple(d for d in res.divisors if d > 1)
    return betti, torsion


def saturation(a: SparseIntMatrix) -> SparseIntMatrix:
    """Basis (columns) of the saturation of the column lattice of a."""
    ann = kernel_basis(a.transpose())
    return kernel_basis(ann.transpose())


def is_saturated(a: SparseIntMatrix) -> bool:
    """True iff the column lattice of a is saturated in Z^rows."""
    want = rank(a)
    sat = saturation(a)
    # equal lattices iff every saturation basis vector solves over a
    solver = LatticeSolver(a)
    return rank(sat) == want and all(solver.solve(col) is not None for col in sat.columns())


class LatticeSolver:
    """Solve K*x = b exactly over Z for a fixed column-independent K."""

    def __init__(self, k: SparseIntMatrix):
        self.k = k
        eng = _ColumnEngine(k, track_v=True)
        pivots, free = eng.reduce()
        if free:
            raise ValueError("columns of K are dependent")
        self.pivots = pivots  # (row, col) with strictly increasing rows
        self.echelon_cols = eng.cols
        assert eng.v_cols is not None
        self.w_cols = eng.v_cols

    def solve(self, b: dict[int, int]) -> dict[int, int] | None:
        residual = dict(b)
        y: dict[int, int] = {}
        for r, c in self.pivots:
            v = residual.get(r)
            if not v:
                continue
            h = self.echelon_cols[c][r]
            if v % h:
                return None
            t = v // h
            y[c] = t
            for rr, hv in self.echelon_cols[c].items():
                w = residual.get(rr, 0) - t * hv
                if w:
                    residual[rr] = w
                elif rr in residual:
                    del residual[rr]
        if residual:
            return None
        x: dict[int, int] = {}
        for c, t in y.items():
            for i, v in self.w_cols[c].items():
                w = x.get(i, 0) + t * v
                if w:
                    x[i] = w
                elif i in x:
                    del x[i]
        return x


# -- mod-p elimination -------------------------------------------------------


def _rank_mod_p(a: SparseIntMatrix, p: int) -> int:
    cols = [{r: v % p for r, v in col.items() if v % p} for col in a.columns()]
    return len(_echelon_mod_p(cols, p)[0])


def _kernel_mod_p(a: SparseIntMatrix, p: int) -> SparseIntMatrix:
    cols = [{r: v % p for r, v in col.items() if v % p} for col in a.columns()]
    v_cols = [{i: 1} for i in range(len(cols))]
    pivots, free = _echelon_mod_p(cols, p, v_cols)
    return SparseIntMatrix.from_columns(a.n_cols, [v_cols[c] for c in free])


def _echelon_mod_p(
    cols: list[dict[int, int]], p: int, v_cols: list[dict[int, int]] | None = None
) -> tuple[list[tuple[int, int]], list[int]]:
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
        if v_cols is not None:
            vd = v_cols[dst]
            for r, v in v_cols[src].items():
                w = (vd.get(r, 0) + mult * v) % p
                if w:
                    vd[r] = w
                elif r in vd:
                    del vd[r]

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
    free = sorted(c for c in active if not cols[c])
    return pivots, free
