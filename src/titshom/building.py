"""Tits buildings of GL_n(F_q) and their Steinberg lattices.

Subspaces are canonical reduced-row-echelon bases (tuples of row tuples),
compared through `span_mask`, the bitmask of their vectors, so that
containment and trivial intersection are one integer test each. Flags are
dimension-increasing tuples of subspaces, and the building is the
reduced order complex of the proper nonzero subspace poset: one empty
simplex in degree -1, flags of k+1 subspaces in degree k. The Steinberg
lattice is the integer kernel of the top boundary map, with the certified
apartment classes of the unipotent matrices as its basis (Solomon-Tits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Callable, Hashable

from .complexes import ChainComplexZ, canonical_generator, check_cells, cycle_space, order_complex
from .errors import NotSpanning
from .fqfield import FieldTable, check_order, field
from .intmat import SparseIntMatrix, linear_extend
from .snf import LatticeSolver, nullity

Vector = tuple[int, ...]
Subspace = tuple[Vector, ...]
Matrix = tuple[Vector, ...]


# -- F_q vectors and matrices ------------------------------------------------


def vec_add(ft: FieldTable, u: Vector, v: Vector) -> Vector:
    add = ft.add
    return tuple(add[a][b] for a, b in zip(u, v))


def vec_scale(ft: FieldTable, c: int, v: Vector) -> Vector:
    mul = ft.mul
    return tuple(mul[c][x] for x in v)


def mat_vec(ft: FieldTable, m: Matrix, v: Vector) -> Vector:
    add, mul = ft.add, ft.mul
    out = []
    for row in m:
        s = 0
        for a, b in zip(row, v):
            if a and b:
                s = add[s][mul[a][b]]
        out.append(s)
    return tuple(out)


def mat_mul(ft: FieldTable, a: Matrix, b: Matrix) -> Matrix:
    add, mul = ft.add, ft.mul
    n = len(a)
    k = len(b[0]) if b else 0
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(k):
            s = 0
            for t, at in enumerate(arow):
                bt = b[t][j]
                if at and bt:
                    s = add[s][mul[at][bt]]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def identity_with(n: int, entries: dict[tuple[int, int], int]) -> Matrix:
    """The n x n identity with entries[(i, j)] written in at row i, column j."""
    return tuple(tuple(entries.get((i, j), 1 if i == j else 0) for j in range(n)) for i in range(n))


def identity_matrix(n: int) -> Matrix:
    return identity_with(n, {})


def permutation_matrix(perm: tuple[int, ...]) -> Matrix:
    """Matrix sending e_j to e_{perm[j]}."""
    n = len(perm)
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def is_upper_triangular(m: Matrix) -> bool:
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i))


def rref(ft: FieldTable, vectors: list[Vector]) -> Subspace:
    """Canonical reduced row echelon basis of the span."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return ()
    width = len(rows[0])
    add, mul, neg, inv = ft.add, ft.mul, ft.neg, ft.inv
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = inv[rows[r][c]]
        if scale != 1:
            rows[r] = [mul[scale][x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                coef = neg[rows[i][c]]
                rows[i] = [add[x][mul[coef][y]] for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


def span_mask(ft: FieldTable, sub: Subspace) -> int:
    """Bitmask of the subspace's q^dim vectors, vector v as bit
    sum(v_i * q^(n-1-i)): V <= W iff `m_V & ~m_W == 0`, and V, W meet
    trivially iff `m_V & m_W == 1`, bit 0 being the zero vector."""
    if not sub:
        return 1
    weights = [ft.q**i for i in reversed(range(len(sub[0])))]
    vecs = [(0,) * len(weights)]
    for row in sub:
        vecs += [vec_add(ft, v, vec_scale(ft, c, row)) for c in range(1, ft.q) for v in vecs]
    return sum(1 << sum(x * w for x, w in zip(v, weights)) for v in vecs)


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspaces(n: int, q: int, d: int) -> list[Subspace]:
    """All d-dimensional subspaces of F_q^n as canonical echelon bases.

    Enumerates pivot column choices, then free entries; each subspace
    appears exactly once, in a deterministic order. q must be a field order
    that `check_order` accepts (the field's tables are never built), and
    `check_cells` runs on their count before anything is enumerated.
    """
    check_order(q)
    count = gaussian_binomial(n, d, q)
    check_cells(count, "subspaces")
    if count == 0:
        return []
    if d == 0:
        return [()]
    out: list[Subspace] = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free_pos = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_pos, values):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return out


# -- the building ------------------------------------------------------------


def building_complex(n: int, q: int) -> ChainComplexZ:
    """Reduced flag complex of proper nonzero subspaces of F_q^n, ordered by
    a containment test on their `span_mask`s."""
    if n < 1:
        raise ValueError(f"building needs n >= 1, got n={n}")
    ft = field(q)
    verts = [v for d in range(1, n) for v in subspaces(n, q, d)]
    masks = [span_mask(ft, v) for v in verts]
    # vertices come by dimension: those above v start after the last of its own
    first = {len(v): i + 1 for i, v in enumerate(verts)}
    above = [[w for w in range(first[len(v)], len(verts)) if not m & ~masks[w]] for v, m in zip(verts, masks)]
    return order_complex(verts, above)


@dataclass
class StModel:
    """Steinberg lattice of F_q^n in chamber coordinates, with the apartment
    classes of `units` as its basis (coordinates follow their order)."""

    n: int
    q: int
    ft: FieldTable
    cx: ChainComplexZ
    units: list[Matrix]

    @cached_property
    def chambers(self) -> list:
        """The top cells of cx, the flags of n - 1 subspaces, in basis order."""
        return self.cx.basis[self.n - 2]

    @cached_property
    def chamber_index(self) -> dict:
        """Position in `chambers` of each chamber."""
        return {c: i for i, c in enumerate(self.chambers)}

    @property
    def rank(self) -> int:
        return self.basis[0].n_cols

    @property
    def opp_sign(self) -> int:
        """Sign of the ordering that reverses n columns."""
        return canonical_generator(tuple(reversed(range(self.n))))[1]

    @cached_property
    def apartments(self) -> list[dict[int, int]]:
        """Chamber-coordinate apartment class of each unit, the columns of A,
        spanning each subset of their lines once."""
        spans: dict = {}
        return [apartment_class_fq(self, u, spans) for u in self.units]

    @cached_property
    def basis(self) -> tuple[SparseIntMatrix, list[int]]:
        """(A, opposite): the unit apartment classes as the columns of A, and
        per unit the chamber of its apartment opposite C0, the flag of its
        columns taken in reverse.

        Certified to be a Z-basis of ker d_top, or NotSpanning is raised:
        every class is a cycle; the opposite chambers are distinct and each
        class meets them in its own one only, with coefficient opp_sign, so
        the span is saturated; and there are nullity(d_top) units.
        """
        ft, n, index = self.ft, self.n, self.chamber_index
        cols = self.apartments
        a = SparseIntMatrix(len(self.chambers), len(cols), cols)
        opposite = []
        for u in self.units:
            lines = matrix_columns(u)
            opposite.append(index[tuple(rref(ft, lines[n - 1 - k :]) for k in range(n - 1))])
        d_top = self.cx.boundary_at(n - 2)
        if not d_top.mul(a).is_zero():
            raise NotSpanning("an apartment class is not a top cycle")
        at_opposite = set(opposite)
        if len(at_opposite) != len(opposite):
            raise NotSpanning("two units share their opposite chamber")
        sign = self.opp_sign
        for c, col in zip(opposite, cols):
            if {r: v for r, v in col.items() if r in at_opposite} != {c: sign}:
                raise NotSpanning("classes are not opp_sign * I at the opposite chambers")
        if len(self.units) != nullity(d_top):
            raise NotSpanning("the unit count is not the rank of ker d_top")
        return a, opposite

    def to_st_coords(self, chain: dict[int, int]) -> dict[int, int]:
        """Coordinates of a chamber-coordinate cycle, read off at the opposite
        chambers and checked by multiplying back: the apartment classes of
        the nonzero coordinates must sum to the chain."""
        opposite = self.basis[1]
        sign = self.opp_sign
        x = {u: sign * chain[c] for u, c in enumerate(opposite) if c in chain}
        if linear_extend(x, self.apartments.__getitem__) != chain:
            raise NotSpanning("chain is not in the Steinberg lattice")
        return x


@lru_cache(maxsize=None)
def steinberg(n: int, q: int) -> StModel:
    return StModel(n=n, q=q, ft=field(q), cx=building_complex(n, q), units=unipotent_matrices(n, q))


# -- group elements and actions ----------------------------------------------


def act_on_subspace(ft: FieldTable, g: Matrix, sub: Subspace) -> Subspace:
    return rref(ft, [mat_vec(ft, g, row) for row in sub])


def chamber_permutation(st: StModel, g: Matrix) -> list[int]:
    """perm[i] = index of g applied to chamber i."""
    ft = st.ft
    out = []
    for flag in st.chambers:
        moved = tuple(act_on_subspace(ft, g, sub) for sub in flag)
        out.append(st.chamber_index[moved])
    return out


def matrix_columns(g: Matrix) -> list[Vector]:
    n = len(g)
    return [tuple(g[i][j] for i in range(n)) for j in range(n)]


@lru_cache(maxsize=None)
def _orderings(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, tuple[int, ...]]]]:
    """The proper nonempty subsets of range(n), by size and then in
    combinations order; and every ordering of range(n) as its sign and the
    positions in that list of its n-1 prefixes, each taken as a set."""
    subsets = [idx for k in range(1, n) for idx in combinations(range(n), k)]
    position = {idx: i for i, idx in enumerate(subsets)}
    return subsets, [
        (canonical_generator(perm)[1], tuple(position[tuple(sorted(perm[: k + 1]))] for k in range(n - 1)))
        for perm in permutations(range(n))
    ]


def apartment_chain(n: int, span: Callable[[tuple[int, ...]], Hashable]) -> dict:
    """Signed sum over all orderings of n lines of the flags of their prefix
    spans, keyed by flag.

    `span` maps a sorted tuple of line indices to the subspace they span; it
    is called once per proper nonempty subset, into a list that each
    ordering's flag reads by the positions of its prefixes. `check_cells`
    runs on the n! orderings before any is built. Independent lines have
    distinct subset spans, so the n! flags are distinct; fewer raise
    NotSpanning.
    """
    check_cells(factorial(n), "apartment orderings")
    subsets, orderings = _orderings(n)
    spans = [span(idx) for idx in subsets]
    chain = {tuple([spans[i] for i in prefixes]): sign for sign, prefixes in orderings}
    if len(chain) < len(orderings):
        raise NotSpanning("two orderings give the same flag: the lines are dependent")
    return chain


def apartment_class_fq(st: StModel, g: Matrix, spans: dict | None = None) -> dict[int, int]:
    """Chamber-coordinate cycle of the apartment indexed by g's columns.

    The class is the signed sum over all orderings of the column lines of
    the flag of their partial spans; it lies in the Steinberg lattice.

    `spans` maps a tuple of vectors over st's field to its `rref`. Each
    subset span, and the span of all columns that the spanning test reads,
    is looked up there first and stored on a miss, so a caller that passes
    one dict to many calls over one field spans each subset once. Without
    it the memo lives for this call.
    """
    ft = st.ft
    cols = matrix_columns(g)
    if spans is None:
        spans = {}

    def span(vectors: tuple[Vector, ...]) -> Subspace:
        sub = spans.get(vectors)
        if sub is None:
            sub = spans[vectors] = rref(ft, vectors)
        return sub

    if len(span(tuple(cols))) < st.n:
        raise NotSpanning("matrix columns do not span")
    chain = apartment_chain(st.n, lambda idx: span(tuple([cols[i] for i in idx])))
    return {st.chamber_index[flag]: c for flag, c in chain.items()}


def unipotent_matrices(n: int, q: int) -> list[Matrix]:
    """All upper unitriangular matrices, in deterministic order."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [identity_with(n, dict(zip(positions, values))) for values in product(range(q), repeat=len(positions))]


def unipotent_basis_matrix(st: StModel) -> tuple[list[Matrix], SparseIntMatrix]:
    """Unipotent apartment classes in the coordinates of a generic kernel basis.

    Returns (units, X) with K * X = apartment matrix, where K is the
    saturated `cycle_space` basis of the top cycles; X is square of size
    q^{n(n-1)/2}. X unimodular means the apartment classes form a Z-basis of
    the Steinberg lattice. This check is independent of `StModel.basis`.
    """
    kernel = cycle_space(st.cx, st.n - 2)
    solver = LatticeSolver(kernel)
    spans: dict = {}
    cols = []
    for u in st.units:
        x = solver.solve(apartment_class_fq(st, u, spans))
        if x is None:
            raise NotSpanning("apartment class is not in the Steinberg lattice")
        cols.append(x)
    return st.units, SparseIntMatrix(kernel.n_cols, len(cols), cols)


def bruhat_witness(n: int, q: int) -> Matrix:
    """Unipotent u such that w1*u*w2 upper-triangular forces w1 = w2 = id.

    Tries candidates with every above-diagonal entry nonzero and verifies
    the property exhaustively over all permutation pairs.
    """
    from .errors import IdentityViolation

    ft = field(q)
    ident = tuple(range(n))
    perms = list(permutations(range(n)))
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for values in product(range(1, q), repeat=len(positions)):
        u = identity_with(n, dict(zip(positions, values)))
        ok = True
        for w1 in perms:
            m1 = mat_mul(ft, permutation_matrix(w1), u)
            for w2 in perms:
                m = mat_mul(ft, m1, permutation_matrix(w2))
                if is_upper_triangular(m) and (w1 != ident or w2 != ident):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return u
    raise IdentityViolation((n, q))


# -- generating sets ----------------------------------------------------------


def transvection(n: int, i: int, j: int, c: int) -> Matrix:
    return identity_with(n, {(i, j): c})


def gl_generators(n: int, q: int) -> list[Matrix]:
    """Generators of GL_n(F_q): transvection, n-cycle, one torus slot.

    The cycle conjugates the transvection onto every simple root subgroup,
    giving SL_n; the torus slot with a primitive element supplies all
    determinants.
    """
    ft = field(q)
    gamma = ft.primitive
    if n == 1:
        return [((gamma,),)]
    gens = [transvection(n, 0, 1, 1), permutation_matrix(tuple((j + 1) % n for j in range(n)))]
    if gamma != 1:
        gens.append(identity_with(n, {(0, 0): gamma}))
    return gens


def sl2_generators(q: int) -> list[Matrix]:
    """Generators of SL_2(F_q): x_12(b) and x_21(b) for b in an F_p-basis."""
    ft = field(q)
    basis_elems = [ft.p**j for j in range(ft.e)]
    return [transvection(2, 0, 1, b) for b in basis_elems] + [
        transvection(2, 1, 0, b) for b in basis_elems
    ]


def borel_generators(n: int, q: int) -> list[Matrix]:
    """Upper-triangular Borel: torus slots plus simple root elements."""
    ft = field(q)
    gamma = ft.primitive
    gens = [identity_with(n, {(i, i): gamma}) for i in range(n)]
    basis_elems = [ft.p**j for j in range(ft.e)]  # F_p-basis of F_q
    for i in range(n - 1):
        for b in basis_elems:
            gens.append(transvection(n, i, i + 1, b))
    return gens


# group kind -> generators of that group of n x n matrices over F_q; the
# special linear generators are wired for n = 2 only
GROUP_GENERATORS = {
    "gl": gl_generators,
    "sl": lambda n, q: sl2_generators(q),
    "borel": borel_generators,
}
