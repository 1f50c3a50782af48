"""Tits buildings of GL_n(F_q) and their Steinberg lattices.

Subspaces are canonical reduced-row-echelon bases (tuples of row tuples),
flags are dimension-increasing tuples of subspaces, and the building is the
reduced order complex of the proper nonzero subspace poset: one empty
simplex in degree -1, flags of k+1 subspaces in degree k. The Steinberg
lattice is the integer kernel of the top boundary map.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations, permutations, product

from .complexes import ChainComplexZ, add_term, assemble_complex, cycle_space
from .errors import BudgetExceeded, FieldTooLarge, NotSpanning
from .fqfield import FieldTable, field
from .intmat import SparseIntMatrix
from .snf import LatticeSolver

Vector = tuple[int, ...]
Subspace = tuple[Vector, ...]
Matrix = tuple[Vector, ...]

DEFAULT_CELL_BUDGET = 2_000_000
DEFAULT_MAX_Q = 16


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


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def permutation_matrix(perm: tuple[int, ...]) -> Matrix:
    """Matrix sending e_j to e_{perm[j]}."""
    n = len(perm)
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def is_upper_triangular(m: Matrix) -> bool:
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(i))


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


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


def subspaces(n: int, q: int, d: int) -> list[Subspace]:
    """All d-dimensional subspaces of F_q^n as canonical echelon bases.

    Enumerates pivot column choices, then free entries; each subspace
    appears exactly once, in a deterministic order.
    """
    if q > DEFAULT_MAX_Q:
        raise FieldTooLarge(f"q = {q} exceeds the bound {DEFAULT_MAX_Q}")
    if d < 0 or d > n:
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


def building_complex(n: int, q: int, budget: int = DEFAULT_CELL_BUDGET) -> ChainComplexZ:
    """Reduced flag complex of proper nonzero subspaces of F_q^n."""
    ft = field(q)
    verts: list[Subspace] = []
    for d in range(1, n):
        verts.extend(subspaces(n, q, d))
    vecs = {v: span_vectors(ft, v) for v in verts}

    def contains(big: Subspace, small: Subspace) -> bool:
        target = vecs[big]
        return all(row in target for row in small)

    by_dim: dict[int, list[Subspace]] = {}
    for v in verts:
        by_dim.setdefault(len(v), []).append(v)

    bases: dict[int, list] = {-1: [()]}
    total = 1
    frontier: list[tuple[Subspace, ...]] = [(v,) for v in verts]
    degree = 0
    while frontier:
        total += len(frontier)
        if total > budget:
            raise BudgetExceeded(f"building cells exceed budget {budget}")
        bases[degree] = frontier
        nxt: list[tuple[Subspace, ...]] = []
        for flag in frontier:
            top = flag[-1]
            for d in range(len(top) + 1, n):
                for cand in by_dim.get(d, ()):
                    if contains(cand, top):
                        nxt.append(flag + (cand,))
        frontier = nxt
        degree += 1

    def rule(d: int, lab):
        if d == -1:
            return []
        if d == 0:
            return [(1, ())]
        return [((-1) ** j, lab[:j] + lab[j + 1 :]) for j in range(len(lab))]

    return assemble_complex(bases, rule)


@dataclass
class StModel:
    """Steinberg lattice of F_q^n inside top-degree chamber coordinates."""

    n: int
    q: int
    ft: FieldTable
    cx: ChainComplexZ
    chambers: list
    chamber_index: dict
    kernel: SparseIntMatrix
    _solver: LatticeSolver | None = dc_field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return self.kernel.n_cols

    @property
    def solver(self) -> LatticeSolver:
        if self._solver is None:
            self._solver = LatticeSolver(self.kernel)
        return self._solver

    def to_st_coords(self, chain: dict[int, int]) -> dict[int, int]:
        """Express a chamber-coordinate cycle in the kernel basis."""
        x = self.solver.solve(chain)
        if x is None:
            raise NotSpanning("chain is not in the Steinberg lattice")
        return x


@lru_cache(maxsize=None)
def steinberg(n: int, q: int, budget: int = DEFAULT_CELL_BUDGET) -> StModel:
    cx = building_complex(n, q, budget=budget)
    top = n - 2
    chambers = list(cx.basis[top])
    kernel = cycle_space(cx, top)
    return StModel(
        n=n,
        q=q,
        ft=field(q),
        cx=cx,
        chambers=chambers,
        chamber_index={c: i for i, c in enumerate(chambers)},
        kernel=kernel,
    )


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


def apartment_class_fq(st: StModel, g: Matrix) -> dict[int, int]:
    """Chamber-coordinate cycle of the apartment indexed by g's columns.

    The class is the signed sum over all orderings of the column lines of
    the flag of their partial spans; it lies in the Steinberg lattice.
    """
    ft = st.ft
    n = st.n
    cols = matrix_columns(g)
    if len(rref(ft, cols)) < n:
        raise NotSpanning("matrix columns do not span")
    chain: dict[int, int] = {}
    for perm in permutations(range(n)):
        sign = perm_sign(perm)
        flag = []
        sofar: list[Vector] = []
        for j in range(n - 1):
            sofar.append(cols[perm[j]])
            flag.append(rref(ft, sofar))
        add_term(chain, st.chamber_index[tuple(flag)], sign)
    return chain


def unipotent_matrices(n: int, q: int) -> list[Matrix]:
    """All upper unitriangular matrices, in deterministic order."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in product(range(q), repeat=len(positions)):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, values):
            rows[i][j] = v
        out.append(tuple(tuple(r) for r in rows))
    return out


def unipotent_basis_matrix(st: StModel) -> tuple[list[Matrix], SparseIntMatrix]:
    """Change of basis from unipotent apartment classes to the kernel basis.

    Returns (units, X) with kernel * X = apartment matrix; X is square of
    size q^{n(n-1)/2}. X unimodular means the apartment classes form a
    Z-basis of the Steinberg lattice.
    """
    units = unipotent_matrices(st.n, st.q)
    cols = []
    for u in units:
        chain = apartment_class_fq(st, u)
        cols.append(st.to_st_coords(chain))
    x = SparseIntMatrix.from_columns(st.rank, cols)
    return units, x


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
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, values):
            rows[i][j] = v
        u = tuple(tuple(r) for r in rows)
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
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][j] = c
    return tuple(tuple(r) for r in rows)


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
    cyc = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        cyc[j + 1][j] = 1
    cyc[0][n - 1] = 1
    gens = [transvection(n, 0, 1, 1), tuple(tuple(r) for r in cyc)]
    if gamma != 1:
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        rows[0][0] = gamma
        gens.append(tuple(tuple(r) for r in rows))
    return gens


def sl2_generators(q: int) -> list[Matrix]:
    return [((1, 1), (0, 1)), ((1, 0), (1, 1))]


def borel_generators(n: int, q: int) -> list[Matrix]:
    """Upper-triangular Borel: torus slots plus simple root elements."""
    ft = field(q)
    gamma = ft.primitive
    gens: list[Matrix] = []
    for i in range(n):
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        rows[i][i] = gamma
        gens.append(tuple(tuple(r) for r in rows))
    basis_elems = [ft.p**j for j in range(ft.e)]  # F_p-basis of F_q
    for i in range(n - 1):
        for b in basis_elems:
            gens.append(transvection(n, i, i + 1, b))
    return gens


def group_closure(ft: FieldTable, gens: list[Matrix], limit: int = 1_000_000) -> set[Matrix]:
    seen: set[Matrix] = set()
    frontier = [identity_matrix(len(gens[0]))]
    seen.update(frontier)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod_m = mat_mul(ft, m, g)
                if prod_m not in seen:
                    if len(seen) >= limit:
                        raise BudgetExceeded("group closure exceeded limit")
                    seen.add(prod_m)
                    nxt.append(prod_m)
        frontier = nxt
    return seen
