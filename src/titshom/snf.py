"""Exact elimination over Z: Smith form, ranks, kernels, cokernels.

All integer elimination uses unimodular column operations only, so
divisors, kernels, and cokernel invariants are exact. One column-echelon
engine (`_ColumnEngine`) serves ranks, kernels, lattice solves and Smith
divisors. It brings A to a column echelon E = A*V: in each row, in order,
nearest-integer Euclid steps between the still-active columns leave one
pivot, and a unit pivot clears the row in one sweep.

Smith divisors (`smith_normal_form`) alternate echelons of a matrix and of
the transpose of its pivot columns, in the spirit of Kannan-Bachem, until
one of two certificates holds:

- every pivot is +-1: the pivot-row by pivot-column minor of E is lower
  triangular with a unit diagonal, so the gcd of the r x r minors is 1 and
  all r divisors are 1;
- every pivot column holds only its pivot: E is diagonal up to a
  permutation, and gcd/lcm steps on the non-unit pivots give the chain.

The GF(p) rank that the tests check Z ranks, Smith divisors and homology
against is no part of this module: it is a separate echelon among the test
oracles (`tests/oracle_linalg.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .intmat import SparseIntMatrix, add_chain, linear_extend


def _nearest_quotient(a: int, b: int) -> int:
    """q minimizing |a - q*b| for b != 0 (ties round up)."""
    if b < 0:
        return -_nearest_quotient(a, -b)
    return (2 * a + b) // (2 * b)


@dataclass(frozen=True)
class SNFResult:
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def smith_normal_form(a: SparseIntMatrix) -> SNFResult:
    """Smith divisors d_1 | d_2 | ... | d_r of a, all positive.

    Each pass runs the column echelon E = M*V of the current matrix M
    (M = a at first). If every pivot is +-1 the divisors are r ones. If
    every pivot column holds only its pivot, E is diagonal up to a
    permutation and the divisors follow from its pivots by gcd/lcm. Else
    the next M is the transpose of E's pivot columns. Passes are unimodular,
    so the divisors never change.

    The loop ends. After a pass, let p be the first pivot, in row order,
    whose column holds more than p; by the echelon shape every earlier
    pivot is alone in its row and column, and stays so. In the next pass
    the row of p, now p's column, is the first row with more than one
    entry, and p's own entry in it sits in a singleton column. If p divides
    that row, the (non-unit, |v|, nnz) tie-break picks the singleton
    column and the row clears in one sweep, leaving p alone; otherwise the
    row's pivot becomes a gcd smaller than |p|. So each pass either adds a
    leading lone pivot or shrinks the first pivot after them.
    """
    m = a
    while True:
        eng = _ColumnEngine(m, track_v=False)
        pivots, _ = eng.reduce()
        cols = eng.cols
        values = [cols[c][r] for r, c in pivots]
        if all(v in (1, -1) for v in values):
            return SNFResult((1,) * len(values))
        if all(len(cols[c]) == 1 for _, c in pivots):
            return SNFResult(_diagonal_divisors(values))
        m = SparseIntMatrix(m.n_rows, len(pivots), [cols[c] for _, c in pivots]).transpose()


def _diagonal_divisors(values: list[int]) -> tuple[int, ...]:
    """Smith divisors of a diagonal matrix with these nonzero entries.

    (d_i, d_j) -> (gcd, lcm) is unimodular on a diagonal; after row i of
    the double loop, d_i holds the gcd of d_i..d_end, so each prime's
    exponents end sorted. A unit divides everything, so units stay out.
    """
    chain = [abs(v) for v in values if v not in (1, -1)]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return (1,) * (len(values) - len(chain)) + tuple(chain)


# -- column-major engine (ranks, kernels, solving, Smith passes) -------------


class _ColumnEngine:
    def __init__(self, a: SparseIntMatrix, track_v: bool):
        self.m, self.n = a.shape
        self.cols: list[dict[int, int]] = [dict(c) for c in a.cols]  # reduce mutates them
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
            add_chain(self.v_cols[dst], self.v_cols[src], mult)

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


def rank(a: SparseIntMatrix) -> int:
    eng = _ColumnEngine(a, track_v=False)
    pivots, _ = eng.reduce()
    return len(pivots)


def kernel_basis(a: SparseIntMatrix) -> SparseIntMatrix:
    """Columns form a basis of ker(a) acting on column vectors.

    The basis spans a saturated lattice: with V tracking column ops,
    E = A*V is column echelon and the V-columns over zero E-columns span
    {x : A x = 0} exactly (any kernel x = V*y forces y supported on the zero
    columns since the nonzero ones are echelon-independent).
    """
    eng = _ColumnEngine(a, track_v=True)
    _, free = eng.reduce()
    assert eng.v_cols is not None
    return SparseIntMatrix(a.n_cols, len(free), [eng.v_cols[c] for c in free])


def nullity(a: SparseIntMatrix) -> int:
    return a.n_cols - rank(a)


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
    """True iff the column lattice of a is saturated in Z^rows.

    Z^rows / lattice is torsion-free exactly when every Smith divisor is 1.
    """
    return all(d == 1 for d in smith_normal_form(a).divisors)


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
        residual: dict[int, int] = {}
        add_chain(residual, b, 1)  # drops explicit zero entries of b
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
            add_chain(residual, self.echelon_cols[c], -t)
        if residual:
            return None
        return linear_extend(y, self.w_cols.__getitem__)
