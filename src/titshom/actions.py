"""Group actions on free Z-modules: coinvariants and bar homology.

Coinvariants M_G = M / span{(g-1)m} only need the relation columns of a
generating set: (s1*s2 - 1)m = (s1 - 1)((s2 - 1)m) + (s1 - 1)m + (s2 - 1)m,
so relations of products already lie in the span of generator relations.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from . import building
from .building import StModel, chamber_permutation
from .complexes import HomologyGroup, assemble_complex, check_cells, homology
from .intmat import SparseIntMatrix, add_term
from .snf import cokernel_invariants


def permutation_matrix_int(perm: list[int]) -> SparseIntMatrix:
    """Matrix sending e_i to e_{perm[i]}."""
    return SparseIntMatrix(len(perm), len(perm), [{j: 1} for j in perm])


def st_action_matrix(st: StModel, g) -> SparseIntMatrix:
    """Matrix of g on the Steinberg lattice in the unipotent apartment basis.

    Column u is g applied to the apartment class A_u, whose coordinates are
    read off at the chambers opposite C0: M = opp_sign * (P_g * A)
    restricted to the opposite rows, the row of the chamber opposite unit k
    becoming row k. Verified as A * M == P_g * A before returning.
    """
    a, opposite = st.basis
    pa = permutation_matrix_int(chamber_permutation(st, g)).mul(a)
    sign = st.opp_sign
    row_of = {c: k for k, c in enumerate(opposite)}
    cols = [{row_of[c]: sign * v for c, v in col.items() if c in row_of} for col in pa.cols]
    m = SparseIntMatrix(a.n_cols, a.n_cols, cols)
    if a.mul(m) != pa:
        raise AssertionError("action matrix failed verification")
    return m


def tensor_matrix(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    """Kronecker product acting on e_i (x) e_j at index i*cols(b)+j."""
    n = b.n_rows
    cols = [{ra * n + rb: va * vb for ra, va in ca.items() for rb, vb in cb.items()} for ca in a.cols for cb in b.cols]
    return SparseIntMatrix(a.n_rows * b.n_rows, a.n_cols * b.n_cols, cols)


def coinvariant_relations(rank: int, generator_matrices: Sequence[SparseIntMatrix]) -> SparseIntMatrix:
    """Columns (M_g - I)e_i over all generators g and basis vectors e_i."""
    cols: list[dict[int, int]] = []
    for m in generator_matrices:
        if m.shape != (rank, rank):
            raise ValueError("generator matrix has wrong shape")
        for i, col in enumerate(m.cols):
            col = dict(col)  # the generator's own column stays untouched
            add_term(col, i, -1)
            if col:
                cols.append(col)
    return SparseIntMatrix(rank, len(cols), cols)


def coinvariants(rank: int, generator_matrices: Sequence[SparseIntMatrix]) -> HomologyGroup:
    """Invariant factors of M_G for the module with the given generator action."""
    rel = coinvariant_relations(rank, generator_matrices)
    betti, torsion = cokernel_invariants(rel)
    return HomologyGroup(betti, torsion)


def matrix_group_coinvariants(kind: str, n: int, q: int, module: str) -> HomologyGroup:
    """Coinvariants of `building.GROUP_GENERATORS[kind](n, q)` acting on the
    Steinberg lattice of F_q^n ("steinberg") or trivially on Z ("trivial").
    The trivial module builds no building."""
    gens = building.GROUP_GENERATORS[kind](n, q)
    if module == "trivial":
        return coinvariants(1, [trivial_action(1)(g) for g in gens])
    st = building.steinberg(n, q)
    return coinvariants(st.rank, [st_action_matrix(st, g) for g in gens])


# -- bar-resolution group homology -------------------------------------------


def group_homology(
    elements: Sequence[Hashable],
    multiply: Callable[[Hashable, Hashable], Hashable],
    action: Callable[[Hashable], SparseIntMatrix],
    rank: int,
    degree: int,
) -> HomologyGroup:
    """H_degree(G; M) for degree <= 2 via the inhomogeneous bar complex.

    C_k = Z[G^k] (x) M with
    d(g_1,..,g_k (x) m) = (g_2,..,g_k (x) m)
      + sum_i (-1)^i (g_1,..,g_i g_{i+1},..,g_k (x) m)
      + (-1)^k (g_1,..,g_{k-1} (x) g_k m).
    """
    if degree < 0 or degree > 2:
        raise ValueError("group homology implemented for degrees 0..2 only")
    n_g = len(elements)
    top = degree + 1
    check_cells(sum(n_g**k * rank for k in range(top + 1)), "bar complex cells")

    bases: dict[int, list] = {}
    for k in range(top + 1):
        words: list[tuple] = [()]
        for _ in range(k):
            words = [w + (g,) for w in words for g in elements]
        bases[k] = [(w, i) for w in words for i in range(rank)]

    act_cache: dict[Hashable, SparseIntMatrix] = {}

    def act(g: Hashable) -> SparseIntMatrix:
        m = act_cache.get(g)
        if m is None:
            m = action(g)
            act_cache[g] = m
        return m

    def rule(lab) -> dict:
        word, i = lab
        k = len(word)
        if k == 0:
            return {}
        # faces can coincide, so the terms are summed
        out: dict = {}
        add_term(out, (word[1:], i), 1)
        for j in range(1, k):
            merged = word[:j - 1] + (multiply(word[j - 1], word[j]),) + word[j + 1:]
            add_term(out, (merged, i), (-1) ** j)
        sign = (-1) ** k
        for r, v in act(word[-1]).cols[i].items():
            add_term(out, (word[:-1], r), sign * v)
        return out

    cx = assemble_complex(bases, rule)
    return homology(cx, degree)


def trivial_action(rank: int) -> Callable[[Hashable], SparseIntMatrix]:
    ident = SparseIntMatrix.identity(rank)
    return lambda g: ident
