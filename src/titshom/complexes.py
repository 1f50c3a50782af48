"""Finitely generated chain complexes of free Z-modules.

A complex stores one basis list per degree and one boundary matrix per
degree d (mapping degree d to degree d-1, columns indexed by the degree-d
basis). Builders write each generator's boundary as a stored column, and
assembly always checks boundary-squared-is-zero column by column.

A boundary rule maps one generator to its boundary, a sparse chain in the
format of `titshom.intmat`, for `linear_extend` and `assemble_complex`
alike. A canonical generator word is the pair (tokens, sign), with
(None, 0) for a word that repeats a token.

Homology runs in two phases. Coreduction first removes pairs (a, b) in
which a is the only remaining face of b and the incidence is +-1; the
cells left over are critical, and Morse boundaries between them, read
off gradient paths, make a much smaller complex with the same homology;
faces are read from the stored columns, and only cofaces are listed.
`smith_normal_form` then runs on those Morse boundaries only, so torsion
stays exact. In the buildings checked here every critical cell sits in
the top degree, so no Smith form runs at all. Cokernels, cycle spaces and
coinvariants call the elimination core directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from itertools import count
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import BudgetExceeded, DDNotZero, DegreeOutOfRange
from .intmat import SparseIntMatrix, add_term
from .snf import kernel_basis, smith_normal_form

Label = Hashable

# cells an enumeration may produce before it raises BudgetExceeded
CELL_BUDGET = 2_000_000


def check_cells(cells: int, what: str) -> None:
    """Raise BudgetExceeded when `cells` cells of `what` exceed CELL_BUDGET.

    Every enumeration calls this with a count it has before allocating the
    cells; the constant is read at call time, so patching it reaches them all.
    """
    if cells > CELL_BUDGET:
        raise BudgetExceeded(f"{cells} {what} exceed budget {CELL_BUDGET}")


def canonical_generator(tokens: Sequence) -> tuple[tuple | None, int]:
    """Sort tokens, tracking permutation parity: (sorted tokens, sign).

    Tokens must be mutually comparable. The parity is computed by counting
    inversions; a repeated token gives the zero generator (None, 0).
    """
    items = list(tokens)
    n = len(items)
    sign = 1
    # insertion sort; counts inversions exactly, n is always small here
    for i in range(1, n):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
        if j > 0 and items[j] == items[j - 1]:
            return None, 0
    return tuple(items), sign


def merge_canonical(a: tuple, b: tuple) -> tuple[tuple | None, int]:
    """`canonical_generator(a + b)` for two blocks already in canonical form.

    Each block must be a sorted tuple without repeats. The sign is the
    parity of the pairs x in a, y in b with x > y, counted by bisection
    unless one block lies wholly below the other; a token in both blocks
    gives (None, 0).
    """
    na = len(a)
    if not na or not b or a[-1] < b[0]:
        return a + b, 1
    if b[-1] < a[0]:
        return b + a, -1 if na * len(b) & 1 else 1
    inversions = 0
    for y in b:
        i = bisect_left(a, y)
        if i < na and a[i] == y:
            return None, 0
        inversions += na - i
    return tuple(sorted(a + b)), -1 if inversions & 1 else 1


@dataclass(frozen=True)
class HomologyGroup:
    betti: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class ChainComplexZ:
    """Bases plus boundary maps; degree range may include negatives."""

    def __init__(self, basis: dict[int, list[Label]], boundary: dict[int, SparseIntMatrix]):
        self.basis = basis
        self.boundary = boundary
        self.degrees = sorted(basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def boundary_at(self, d: int) -> SparseIntMatrix:
        b = self.boundary.get(d)
        return b if b is not None else SparseIntMatrix(self.dim(d - 1), self.dim(d))


def assemble_complex(
    bases: dict[int, list[Label]],
    rule: Callable[[Label], dict[Label, int]],
) -> ChainComplexZ:
    """Build boundary matrices from a per-generator rule and verify d o d = 0.

    The rule maps a label to its boundary as a sparse chain {lower label:
    coefficient}, the form `add_term` builds and `linear_extend` applies;
    its labels must already be canonical basis members of the next degree
    down. Degrees with no lower neighbour get a zero map.
    """
    degrees = sorted(bases)
    index: dict[int, dict[Label, int]] = {
        d: {lab: i for i, lab in enumerate(bases[d])} for d in degrees
    }
    boundary: dict[int, SparseIntMatrix] = {}
    for d in degrees:
        lower = index.get(d - 1, {})
        cols = []
        for lab in bases[d]:
            col = {}
            for low, coeff in rule(lab).items():
                if coeff == 0:
                    continue
                try:
                    col[lower[low]] = coeff
                except KeyError:
                    raise KeyError(f"boundary of {lab!r} hits unknown generator {low!r}") from None
            cols.append(col)
        boundary[d] = SparseIntMatrix(len(lower), len(cols), cols)
    return check_dd(ChainComplexZ(bases, boundary))


def check_dd(cx: ChainComplexZ) -> ChainComplexZ:
    """Return cx, or raise DDNotZero naming the first generator where d o d != 0.

    d_{d-1} is applied to each column of d_d in turn; no product is stored.
    While every product v * w in a column is +-1 (over Z, while v and w
    both are), only the rows of the +1 products and of the -1 products are
    listed, and the column's image is zero when the two sorted lists are
    equal. A column with any other product sums its products in a dict.
    """
    for d in cx.degrees:
        if d - 1 not in cx.basis:
            continue
        low = cx.boundary_at(d - 1).cols
        for c, col in enumerate(cx.boundary_at(d).cols):
            plus: list[int] = []
            minus: list[int] = []
            for r, v in col.items():
                if v == 1:
                    same, other = plus, minus
                elif v == -1:
                    same, other = minus, plus
                else:
                    break
                for s, w in low[r].items():
                    if w == 1:
                        same.append(s)
                    elif w == -1:
                        other.append(s)
                    else:
                        break
                else:
                    continue
                break
            else:
                plus.sort()
                minus.sort()
                if plus == minus:
                    continue
                raise DDNotZero(d, cx.basis[d][c])
            acc: dict[int, int] = {}
            get = acc.get
            for r, v in col.items():
                for s, w in low[r].items():
                    acc[s] = get(s, 0) + v * w
            if any(acc.values()):
                raise DDNotZero(d, cx.basis[d][c])
    return cx


def order_complex(vertices: list[Label], above: list[list[int]]) -> ChainComplexZ:
    """Reduced order complex of a finite poset, written as it is grown.

    Degree -1 holds the empty chain and degree k the chains v_0 < ... < v_k,
    grown by appending each index in `above[i]` (every vertex strictly above
    vertices[i]) in list order; `above` must be transitive. Each chain's
    column deletes one vertex at a time with alternating signs, and its
    faces come from child maps, not from a lookup of face tuples: the face
    of ch + (w,) without vertex j < len(ch) is the child grown by w of the
    face of ch without vertex j, with the same sign. So the child's column
    sends each key r of ch's column to `kids[r][w]`, the index that r's
    child by w got, keeps its sign, and ends with ch itself, the face
    without the last vertex. Keys stay in the order of the deleted vertex.
    d o d = 0 is checked by `check_dd`. Labels are vertex tuples.
    `check_cells` runs before each degree is allocated, on the cells of that
    degree and all below it.
    """
    bases: dict[int, list] = {-1: [()]}
    boundary = {-1: SparseIntMatrix(0, 1)}
    tops = [range(len(vertices))]  # per chain, the vertices it grows by
    cols: list[dict[int, int]] = [{}]
    kids: list[dict[int, int]] = []  # per chain one degree down, {w: its child by w}
    total = 1
    for deg in count():
        size = sum(map(len, tops))
        if not size:
            break
        total += size
        check_cells(total, "order complex cells")
        last = -1 if deg & 1 else 1
        labels = bases[deg - 1]
        grown_tops: list = []
        grown_labels: list = []
        grown_cols: list[dict[int, int]] = []
        grown_kids: list[dict[int, int]] = []
        for p, col in enumerate(cols):
            faces = [(kids[r], s) for r, s in col.items()]
            label = labels[p]
            mine = {}
            for w in tops[p]:
                mine[w] = len(grown_cols)
                child = {face[w]: s for face, s in faces}
                child[p] = last
                grown_cols.append(child)
                grown_tops.append(above[w])
                grown_labels.append(label + (vertices[w],))
            grown_kids.append(mine)
        boundary[deg] = SparseIntMatrix(len(cols), size, grown_cols)
        bases[deg] = grown_labels
        tops, cols, kids = grown_tops, grown_cols, grown_kids
    return check_dd(ChainComplexZ(bases, boundary))


def homology(cx: ChainComplexZ, d: int) -> HomologyGroup:
    """Homology at degree d, read off `homology_profile`."""
    if d not in cx.basis:
        raise DegreeOutOfRange(f"degree {d} not in complex")
    return homology_profile(cx)[d]


def homology_profile(cx: ChainComplexZ) -> dict[int, HomologyGroup]:
    """Homology at every degree: coreduce the whole complex, then Smith forms."""
    return _smith_homology(_morse_complex(cx))


def _smith_homology(mc: ChainComplexZ) -> dict[int, HomologyGroup]:
    """Homology at every degree of mc, one Smith form per stored boundary.

    A degree whose boundary mc does not store has the zero map there.
    """
    ranks: dict[int, int] = {}
    divisors: dict[int, tuple[int, ...]] = {}
    for d, mat in mc.boundary.items():
        res = smith_normal_form(mat)
        ranks[d] = res.rank
        divisors[d] = res.divisors
    out: dict[int, HomologyGroup] = {}
    for d in mc.degrees:
        betti = mc.dim(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        torsion = tuple(t for t in divisors.get(d + 1, ()) if t > 1)
        out[d] = HomologyGroup(betti, torsion)
    return out


# cell fates in `_morse_complex`: live cells are below UPPER
LIVE, EXPANDED, UPPER, FACE, CRITICAL = range(5)


def _morse_complex(cx: ChainComplexZ) -> ChainComplexZ:
    """Coreduce cx to its Morse complex, which has the same homology.

    A cell b whose only remaining face a has incidence +-1 is removed with
    a (Mrozek and Batko's coreduction); when no such pair is left, the
    lowest remaining cell has no remaining face and is critical. Removed
    cells are appended to `order`, a pair's upper cell just before its
    face. The pairs form an acyclic matching, and the critical cells with
    the boundaries `flow` computes are a complex of the same homology
    (Skoeldberg's algebraic Morse theory). Its basis holds the critical
    labels of each degree, in basis order; a boundary is stored only where
    both degrees hold critical cells.

    Cells are numbered degree by degree, the i-th degree from start[i]. A
    cell's faces are its degree's stored column, whose keys plus the start
    of the degree below are cell numbers; no copy of the faces is made.
    Cofaces are listed per cell below the top degree, and a list is dropped
    as its cell is removed; a top cell has none, so all of them share one
    empty tuple. Beside the coface lists and `order`, a cell costs one state
    byte (LIVE, EXPANDED, UPPER, FACE or CRITICAL) and its count of live
    faces: a face's partner is the cell before it in `order`, and positions
    in `order` are listed only when some Morse boundary is computed.
    """
    degrees = cx.degrees
    start: list[int] = []
    cells = 0
    for d in degrees:
        start.append(cells)
        cells += cx.dim(d)
    # a degree with no degree d - 1 below it gets empty columns: no faces, no `low`
    face_cols = [
        cx.boundary_at(d).cols if i and degrees[i - 1] == d - 1 else [{}] * cx.dim(d) for i, d in enumerate(degrees)
    ]
    top = start[-1] if degrees else 0
    cofaces: list = [[] for _ in range(top)] + [()] * (cells - top)
    live: list[int] = []  # faces not yet removed
    for i, cols in enumerate(face_cols):
        low = start[i - 1]
        for b, col in enumerate(cols, start[i]):
            live.append(len(col))
            for r in col:
                cofaces[low + r].append(b)

    state = bytearray(cells)  # LIVE
    order: list[int] = []  # removed cells, oldest first
    critical: list[int] = []
    queue = deque(range(cx.dim(degrees[0])) if degrees else ())

    def remove(x: int, fate: int) -> None:
        state[x] = fate
        order.append(x)
        for y in cofaces[x]:
            if state[y] < UPPER:
                live[y] -= 1
                queue.append(y)
        cofaces[x] = ()

    lowest = 0
    while True:
        while queue:
            b = queue.popleft()
            fate = state[b]
            if fate >= UPPER:
                continue
            if live[b] == 1:
                i = bisect_right(start, b) - 1
                low = start[i - 1]
                for a, u in face_cols[i][b - start[i]].items():
                    a += low
                    if state[a] < UPPER:
                        break
                if u == 1 or u == -1:
                    remove(b, UPPER)
                    remove(a, FACE)
            elif live[b] == 0 and fate == LIVE:
                state[b] = EXPANDED
                queue.extend(y for y in cofaces[b] if state[y] < UPPER)
        while lowest < cells and state[lowest] >= UPPER:
            lowest += 1
        if lowest == cells:
            break
        critical.append(lowest)
        remove(lowest, CRITICAL)

    stamp: list[int] = []  # position in `order` of each cell, listed on first use

    def flow(cols: list[dict[int, int]], c: int, top: int, low: int, row_of: dict[int, int]) -> dict[int, int]:
        """Morse boundary of the critical cell c, keyed by row_of's rows.

        c indexes cols, its degree's columns, numbered from cell top; the
        chain and row_of are keyed by index in the degree below, numbered
        from cell low. Starting from the boundary of c, the newest cell x in
        the chain is taken first. A critical x is kept. A face x of a pair
        (x, b) is replaced by subtracting (coeff / <db, x>) * db; the other
        faces of b were removed before the pair was, so they are older and
        the loop ends. An upper cell of a pair one degree down is dropped.
        """
        chain = dict(cols[c])
        pending = sorted(stamp[low + x] for x in chain)  # positions in `order`, newest last
        out: dict[int, int] = {}
        while pending:
            at = pending.pop()
            x = order[at] - low
            v = chain.pop(x, 0)
            if not v:
                continue
            fate = state[low + x]
            if fate == FACE:
                bd = cols[order[at - 1] - top]
                m = v * bd[x]  # v / <db, x>, as the incidence is a unit
                for y, w in bd.items():
                    if y != x:
                        if y not in chain:
                            insort(pending, stamp[low + y])
                        add_term(chain, y, -m * w)
            elif fate == CRITICAL:
                out[row_of[x]] = v
        return out

    # `lowest` only grows, so `critical` is sorted by degree
    by_degree = [[c - s for c in critical if s <= c < s + cx.dim(d)] for s, d in zip(start, degrees)]
    basis = {d: [cx.basis[d][c] for c in crit] for d, crit in zip(degrees, by_degree)}
    boundary: dict[int, SparseIntMatrix] = {}
    for i in range(1, len(degrees)):
        below = by_degree[i - 1]
        if degrees[i - 1] != degrees[i] - 1 or not below or not by_degree[i]:
            continue
        if not stamp:
            stamp = [0] * cells
            for at, x in enumerate(order):
                stamp[x] = at
        row_of = {c: j for j, c in enumerate(below)}
        cols = [flow(face_cols[i], c, start[i], start[i - 1], row_of) for c in by_degree[i]]
        boundary[degrees[i]] = SparseIntMatrix(len(below), len(cols), cols)
    return ChainComplexZ(basis, boundary)


def cycle_space(cx: ChainComplexZ, d: int) -> SparseIntMatrix:
    """Columns form a saturated basis of ker(d_d)."""
    if d not in cx.basis:
        raise DegreeOutOfRange(f"degree {d} not in complex")
    return kernel_basis(cx.boundary_at(d))


def exactness_report(cx: ChainComplexZ) -> dict:
    """Homology at every degree plus the Euler characteristic."""
    by_degree = homology_profile(cx)
    euler = sum((-1) ** d * cx.dim(d) for d in cx.degrees)
    return {
        "euler": euler,
        "homology": by_degree,
        "exact_at": sorted(d for d, h in by_degree.items() if h.betti == 0 and not h.torsion),
    }
