"""Finite fields, subspace enumeration, buildings, Steinberg lattices."""

from __future__ import annotations

from dataclasses import replace
from itertools import permutations

import pytest

from titshom.building import (
    GROUP_GENERATORS,
    _orderings,
    act_on_subspace,
    apartment_chain,
    apartment_class_fq,
    borel_generators,
    bruhat_witness,
    building_complex,
    chamber_permutation,
    gaussian_binomial,
    gl_generators,
    identity_matrix,
    is_upper_triangular,
    mat_mul,
    matrix_columns,
    permutation_matrix,
    rref,
    sl2_generators,
    span_mask,
    steinberg,
    subspaces,
    unipotent_basis_matrix,
    unipotent_matrices,
)
from titshom import complexes
from titshom.complexes import ChainComplexZ, exactness_report, homology
from titshom.errors import BudgetExceeded, FieldTooLarge, NotSpanning
from titshom.fqfield import field
from titshom.intmat import SparseIntMatrix
from titshom.snf import smith_normal_form

from oracle_linalg import perm_sign, span_vectors


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def group_closure(ft, gens, limit: int = 100_000) -> set:
    """Every product of the generators, by breadth-first search from 1."""
    seen = {identity_matrix(len(gens[0]))}
    frontier = list(seen)
    while frontier:
        frontier = [m for m in {mat_mul(ft, m, g) for m in frontier for g in gens} if m not in seen]
        seen.update(frontier)
        assert len(seen) <= limit, "group closure exceeded its limit"
    return seen


def test_field_tables_small():
    for q in (2, 3, 4, 5, 8, 9):
        ft = field(q)
        assert ft.q == q
        # primitive element has full multiplicative order
        x, order = ft.primitive, 1
        while x != 1:
            x = ft.mul[x][ft.primitive]
            order += 1
        assert order == q - 1
    with pytest.raises(ValueError):
        field(6)
    with pytest.raises(FieldTooLarge):
        field(512)


def test_gf4_is_not_z4():
    ft = field(4)
    # char 2: x + x = 0 for every x
    assert all(ft.add[x][x] == 0 for x in range(4))
    # multiplicative group is cyclic of order 3
    assert ft.mul[2][2] != 1


def test_subspace_counts_frozen():
    assert len(subspaces(2, 2, 1)) == 3
    assert len(subspaces(3, 2, 1)) == 7
    assert len(subspaces(3, 3, 2)) == 13
    assert len(subspaces(4, 2, 2)) == 35
    assert subspaces(3, 2, 0) == [()]
    assert len(subspaces(2, 17, 1)) == 18
    for n, q, d in [(2, 3, 1), (3, 2, 1), (4, 3, 2), (5, 2, 3), (4, 4, 0), (3, 2, 4)]:
        assert len(subspaces(n, q, d)) == gaussian_binomial(n, d, q)


def test_subspaces_reject_non_fields_and_huge_counts():
    with pytest.raises(ValueError):
        subspaces(2, 6, 1)
    with pytest.raises(FieldTooLarge):
        subspaces(2, 512, 1)
    # about 2.8e14 planes: raised from the count, nothing is enumerated and
    # the 256-element field's tables are never built
    cached = field.cache_info().currsize
    with pytest.raises(BudgetExceeded):
        subspaces(5, 256, 2)
    assert field.cache_info().currsize == cached


def test_building_cell_counts():
    cx32 = building_complex(3, 2)
    assert cx32.dim(0) == 14 and cx32.dim(1) == 21
    cx33 = building_complex(3, 3)
    assert cx33.dim(0) == 26 and cx33.dim(1) == 52


@pytest.mark.parametrize("n, q, chambers", [(2, 2, 3), (3, 2, 21), (3, 3, 52), (4, 2, 315), (5, 2, 9765)])
def test_building_chambers_are_q_factorial(n, q, chambers):
    # complete flags number [n]_q! = prod_k (q^k - 1)/(q - 1)
    q_factorial = 1
    for k in range(1, n + 1):
        q_factorial *= (q**k - 1) // (q - 1)
    assert q_factorial == chambers
    cx = building_complex(n, q)
    assert cx.dim(n - 2) == chambers
    assert cx.dim(-1) == 1 and cx.dim(n - 1) == 0


def test_building_budget(monkeypatch):
    monkeypatch.setattr(complexes, "CELL_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        building_complex(4, 2)


@pytest.mark.parametrize("n, q", [(3, 2), (4, 2)])
def test_building_budget_threshold(monkeypatch, matrix_widths, n, q):
    # a budget of exactly the cell count builds; one less raises before the
    # top degree's boundary, allocated with its chain lists, exists
    dims = [building_complex(n, q).dim(d) for d in range(-1, n - 1)]
    matrix_widths.clear()
    monkeypatch.setattr(complexes, "CELL_BUDGET", sum(dims))
    assert building_complex(n, q).dim(n - 2) == dims[-1]
    assert matrix_widths == dims
    matrix_widths.clear()
    monkeypatch.setattr(complexes, "CELL_BUDGET", sum(dims) - 1)
    with pytest.raises(BudgetExceeded):
        building_complex(n, q)
    assert matrix_widths == dims[:-1]


def test_building_budget_without_edges(monkeypatch, matrix_widths):
    # the 6 lines of F_5^2 are all vertices and no edges: 7 cells; at a
    # budget of 3 the line count raises in `subspaces`, before any matrix
    monkeypatch.setattr(complexes, "CELL_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="^6 subspaces"):
        building_complex(2, 5)
    assert matrix_widths == []
    monkeypatch.setattr(complexes, "CELL_BUDGET", 7)
    assert building_complex(2, 5).dim(0) == 6


@pytest.mark.parametrize("n, q", [(2, 4), (3, 2), (3, 3)])
def test_span_mask_is_the_vector_set(n, q):
    ft = field(q)
    for d in range(n + 1):
        for sub in subspaces(n, q, d):
            vecs = span_vectors(ft, sub) or {(0,) * n}
            codes = {sum(x * q ** (n - 1 - i) for i, x in enumerate(v)) for v in vecs}
            assert span_mask(ft, sub) == sum(1 << c for c in codes), sub


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (4, 2)])
def test_up_lists_match_the_pairwise_set_test(n, q):
    # degree 1 lists each vertex's up-list in turn, so it must be the pairs
    # the vector-set test finds, in vertex order
    ft = field(q)
    verts = [v for d in range(1, n) for v in subspaces(n, q, d)]
    vecs = {v: span_vectors(ft, v) for v in verts}
    cx = building_complex(n, q)
    assert cx.basis[0] == [(v,) for v in verts]
    assert cx.basis[1] == [(v, w) for v in verts for w in verts if vecs[v] < vecs[w]]


@pytest.mark.parametrize("n", [0, -1])
def test_building_rejects_n_below_one(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        building_complex(n, 2)


def test_solomon_tits_small():
    cx = building_complex(3, 2)
    rep = exactness_report(cx)
    assert rep["homology"][-1].betti == 0 and rep["homology"][0].betti == 0
    top = rep["homology"][1]
    assert top.betti == 8 and top.torsion == ()
    h0 = homology(building_complex(2, 3), 0)
    assert h0.betti == 3 and h0.torsion == ()


def test_steinberg_ranks_frozen():
    assert steinberg(2, 2).rank == 2
    assert steinberg(3, 2).rank == 8
    assert steinberg(2, 3).rank == 3
    assert steinberg(1, 5).rank == 1


def test_apartment_class_is_cycle_in_lattice():
    st = steinberg(3, 2)
    chain = apartment_class_fq(st, identity_matrix(3))
    # 3! chambers with unit coefficients
    assert sorted(abs(v) for v in chain.values()) == [1] * 6
    bd = st.cx.boundary_at(1)
    assert bd.mul_vec(chain) == {}
    # the identity is the first unit
    assert st.to_st_coords(chain) == {0: 1}
    with pytest.raises(NotSpanning):
        st.to_st_coords({0: 1})
    with pytest.raises(NotSpanning):
        apartment_class_fq(st, ((1, 0, 0), (0, 1, 0), (1, 0, 0)))


@pytest.mark.parametrize("q", [2, 3])
def test_apartment_class_with_shared_spans_matches_fresh_calls(q):
    st = steinberg(3, q)
    spans: dict = {}
    for u in st.units:
        assert apartment_class_fq(st, u, spans) == apartment_class_fq(st, u)
    # every unit's columns start with e1, so its 2-subsets were spanned before
    assert spans[((1, 0, 0), (1, 1, 0))] == rref(st.ft, [(1, 0, 0), (0, 1, 0)])
    dependent = ((1, 1, 0), (0, 1, 1), (0, 0, 0))  # columns e1, e1 + e2, e2
    for _ in range(2):  # the second call reads the full span from the memo
        with pytest.raises(NotSpanning):
            apartment_class_fq(st, dependent, spans)
    assert tuple(matrix_columns(dependent)) in spans


def test_apartment_chain_spans_each_subset_once():
    calls = []

    def span(idx):
        calls.append(idx)
        return frozenset(idx)

    chain = apartment_chain(4, span)
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 2**4 - 2
    naive = {}
    for perm in permutations(range(4)):
        naive[tuple(frozenset(perm[: k + 1]) for k in range(3))] = perm_sign(perm)
    assert chain == naive


def test_apartment_chain_refuses_a_span_that_merges_two_subsets():
    # lines 0 and 1 given one span: the orderings through either prefix
    # collide, as they would for dependent lines
    def span(idx):
        return frozenset({0, 1}) if idx in ((0,), (1,)) else frozenset(idx)

    with pytest.raises(NotSpanning, match="same flag"):
        apartment_chain(3, span)
    assert len(apartment_chain(3, frozenset)) == 6


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_unipotent_basis_is_z_basis(n, q):
    st = steinberg(n, q)
    units, x = unipotent_basis_matrix(st)
    assert len(units) == q ** (n * (n - 1) // 2) == st.rank
    assert x.shape == (st.rank, st.rank)
    assert smith_normal_form(x).divisors == (1,) * st.rank


def test_certificate_rejects_wrong_units():
    st = steinberg(3, 2)
    units = st.units
    assert st.rank == len(units) == 8
    swapped = permutation_matrix((1, 0, 2))
    for bad in (units[:-1], units[:-1] + [units[1]], units[:-1] + [swapped]):
        with pytest.raises(NotSpanning):
            replace(st, units=bad).basis
    # a fresh model over the same units certifies again
    assert replace(st, units=list(units)).basis[1] == st.basis[1]


def test_certificate_rejects_classes_that_are_not_cycles():
    # a top boundary of the same nullity that the apartment classes escape
    st = steinberg(2, 2)
    bent = SparseIntMatrix.from_dense([[1, 2, 3]])
    cx = ChainComplexZ(st.cx.basis, {**st.cx.boundary, 0: bent})
    with pytest.raises(NotSpanning):
        replace(st, cx=cx).basis


def test_bruhat_witness_small():
    u = bruhat_witness(2, 3)
    assert u == ((1, 1), (0, 1))
    u3 = bruhat_witness(3, 2)
    assert all(u3[i][j] == 1 for i in range(3) for j in range(i, 3))
    assert is_upper_triangular(u3)


def test_generator_closures_have_right_order():
    ft2, ft3 = field(2), field(3)
    assert len(group_closure(ft2, gl_generators(2, 2))) == gl_order(2, 2) == 6
    assert len(group_closure(ft3, gl_generators(2, 3))) == gl_order(2, 3) == 48
    assert len(group_closure(ft2, gl_generators(3, 2))) == gl_order(3, 2) == 168
    # Borel of GL_2(F_3): order (q-1)^2 * q = 12
    assert len(group_closure(ft3, borel_generators(2, 3))) == 12
    # Borel of GL_2(F_4): order (q-1)^2 * q = 36, exercises e > 1 root basis
    ft4 = field(4)
    assert len(group_closure(ft4, borel_generators(2, 4))) == 36
    # |SL_2(F_q)| = q(q^2 - 1); root elements over F_p alone give SL_2(F_p)
    for q in (2, 3, 4, 5, 8, 9):
        assert len(group_closure(field(q), sl2_generators(q))) == q * (q * q - 1), q


def test_chamber_permutation_is_action():
    st = steinberg(3, 2)
    g1, g2 = gl_generators(3, 2)
    p1 = chamber_permutation(st, g1)
    p2 = chamber_permutation(st, g2)
    p12 = chamber_permutation(st, mat_mul(st.ft, g1, g2))
    # action: perm(g1*g2) = perm(g1) o perm(g2)
    assert [p1[i] for i in p2] == p12
    assert sorted(p1) == list(range(len(st.chambers)))


def test_permutation_matrix_and_action():
    ft = field(2)
    w = permutation_matrix((1, 0, 2))
    sub = rref(ft, [(1, 0, 0)])
    moved = act_on_subspace(ft, w, sub)
    assert moved == ((0, 1, 0),)
    assert span_vectors(ft, moved) == {(0, 0, 0), (0, 1, 0)}
    assert span_mask(ft, moved) == 1 | 1 << 2


def _mat(text: str):
    """A matrix written row by row, one digit per entry: "11 01"."""
    return tuple(tuple(int(c) for c in row) for row in text.split())


FROZEN_GENERATORS = {
    ("gl", 1, 2): ["1"],
    ("gl", 1, 3): ["2"],
    ("gl", 1, 4): ["2"],
    ("gl", 2, 2): ["11 01", "01 10"],
    ("gl", 2, 3): ["11 01", "01 10", "20 01"],
    ("gl", 2, 4): ["11 01", "01 10", "20 01"],
    ("gl", 3, 2): ["110 010 001", "001 100 010"],
    ("gl", 3, 3): ["110 010 001", "001 100 010", "200 010 001"],
    ("gl", 3, 4): ["110 010 001", "001 100 010", "200 010 001"],
    ("sl", 2, 2): ["11 01", "10 11"],
    ("sl", 2, 3): ["11 01", "10 11"],
    ("sl", 2, 4): ["11 01", "12 01", "10 11", "10 21"],
    ("borel", 2, 2): ["10 01", "10 01", "11 01"],
    ("borel", 2, 3): ["20 01", "10 02", "11 01"],
    ("borel", 3, 2): ["100 010 001", "100 010 001", "100 010 001", "110 010 001", "100 011 001"],
    ("borel", 3, 3): ["200 010 001", "100 020 001", "100 010 002", "110 010 001", "100 011 001"],
}


@pytest.mark.parametrize("kind, n, q", sorted(FROZEN_GENERATORS))
def test_group_generators_frozen(kind, n, q):
    # every generating set, in order: the coinvariant reports depend on both
    assert GROUP_GENERATORS[kind](n, q) == [_mat(m) for m in FROZEN_GENERATORS[kind, n, q]]


def test_unipotents_and_bruhat_witnesses_frozen():
    # the unit order fixes StModel's basis order, so every coordinate
    assert unipotent_matrices(3, 2) == [
        _mat(m)
        for m in (
            "100 010 001", "100 011 001", "101 010 001", "101 011 001",
            "110 010 001", "110 011 001", "111 010 001", "111 011 001",
        )
    ]
    assert bruhat_witness(3, 2) == bruhat_witness(3, 3) == _mat("111 011 001")


@pytest.mark.parametrize("n", range(1, 7))
def test_ordering_signs_match_the_pair_count(n):
    _, orderings = _orderings(n)
    assert [sign for sign, _ in orderings] == [perm_sign(p) for p in permutations(range(n))]
    assert replace(steinberg(2, 2), n=n).opp_sign == perm_sign(tuple(reversed(range(n))))


def test_unipotent_matrix_enumeration():
    assert len(unipotent_matrices(3, 2)) == 8
    assert len(unipotent_matrices(2, 5)) == 5
    assert all(m[0][0] == 1 and m[1][1] == 1 for m in unipotent_matrices(2, 3))
