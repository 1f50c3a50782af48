"""Bar resolution and rank-2 first-page checks."""

from itertools import product

import pytest

from titshom import barres, complexes
from titshom.actions import coinvariant_relations, permutation_matrix_int, st_action_matrix, tensor_matrix
from titshom.barres import (
    bar_cell_count,
    bar_complex_fq,
    opposite_chambers,
    ordered_decompositions,
    rank2_e1_surjectivity,
    rank2_pairing,
    st_product,
    verify_bar_exactness,
)
from titshom.building import chamber_permutation, gl_generators, identity_matrix, rref, steinberg, subspaces
from titshom.complexes import HomologyGroup, assemble_complex
from titshom.errors import BudgetExceeded, CertificateFailure, NonComplementary
from titshom.fqfield import field
from titshom.intmat import add_term, linear_extend
from titshom.snf import kernel_basis, nullity

from oracle_linalg import span_vectors


def test_decomposition_counts():
    # 3 lines of F_2^2, ordered pairs of distinct ones
    assert len(ordered_decompositions(2, 2, 2)) == 6
    assert len(ordered_decompositions(2, 3, 2)) == 12
    # line (x) plane pairs in both orders: 7 * 4 * 2
    pairs = ordered_decompositions(3, 2, 2)
    assert len(pairs) == 56
    # ordered triples of independent lines: 7 * 6 * 4
    assert len(ordered_decompositions(3, 2, 3)) == 168
    # the closed cell count against the enumerated degrees
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        cx = bar_complex_fq(n, q)
        assert [bar_cell_count(n, q, parts) for parts in range(1, n + 1)] == [
            cx.dim(d) for d in range(-1, n - 1)
        ]
    assert [bar_cell_count(3, 3, parts) for parts in (1, 2, 3)] == [27, 702, 1404]


def _decompositions_by_rank(n: int, q: int, parts: int) -> list:
    """The echelon-rank route: a candidate is kept when stacking its rows on
    the prefix's raises the rank by its dimension."""
    ft = field(q)
    pools = {d: subspaces(n, q, d) for d in range(1, n + 1)}
    out: list = []

    def extend(prefix, stacked, used, left):
        if left == 0:
            if used == n:
                out.append(prefix)
            return
        for d in range(1, n - used - left + 2):
            for cand in pools[d]:
                if len(rref(ft, stacked + list(cand))) == used + d:
                    extend(prefix + (cand,), stacked + list(cand), used + d, left - 1)

    extend((), [], 0, parts)
    return out


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_decompositions_match_the_echelon_rank_route(n, q):
    for parts in range(n + 2):
        assert ordered_decompositions(n, q, parts) == _decompositions_by_rank(n, q, parts), parts


def test_st_product_standard_lines():
    left = ((1, 0),)
    right = ((0, 1),)
    merged, coords = st_product(2, left, right, 0, 0)
    assert merged == ((1, 0), (0, 1))
    # the product of the two standard coordinate lines is the identity
    # apartment class, which is the first unipotent basis vector
    assert coords == {0: 1}


def test_st_product_rejects_overlap():
    line = ((1, 0),)
    with pytest.raises(NonComplementary):
        st_product(2, line, line, 0, 0)


def test_bar_ranks_2_2():
    rep = verify_bar_exactness(2, 2)
    assert rep["ranks"] == {-1: 2, 0: 6, 1: 4}
    assert rep["top_kernel_rank"] == 4
    assert rep["alternating_sum"] == 4
    assert rep["ok"]


def test_bar_ranks_2_3_and_2_5():
    rep = verify_bar_exactness(2, 3)
    assert rep["ranks"][0] == 12
    assert rep["top_kernel_rank"] == 9
    assert rep["ok"]
    rep = verify_bar_exactness(2, 5)
    assert rep["top_kernel_rank"] == 25
    assert rep["ok"]


def test_bar_ranks_3_2():
    rep = verify_bar_exactness(3, 2)
    assert rep["ranks"] == {-1: 8, 0: 112, 1: 168, 2: 64}
    assert rep["alternating_sum"] == 64
    assert rep["top_kernel_rank"] == 64
    assert all(h.betti == 0 and not h.torsion for h in rep["homology_below_top"].values())
    assert rep["ok"]


def _unmemoized_bar_complex(n, q):
    # the boundary rule calling st_product afresh for every adjacent pair
    n_units = {d: len(steinberg(d, q).units) for d in range(1, n + 1)}
    bases = {}
    for parts in range(1, n + 1):
        bases[parts - 2] = [
            (decomp, us)
            for decomp in ordered_decompositions(n, q, parts)
            for us in product(*(range(n_units[len(v)]) for v in decomp))
        ]

    def rule(lab):
        decomp, units = lab
        out = {}
        for j in range(len(decomp) - 1):
            merged, x = st_product(q, decomp[j], decomp[j + 1], units[j], units[j + 1])
            for uidx, coeff in x.items():
                add_term(
                    out,
                    (decomp[:j] + (merged,) + decomp[j + 2 :], units[:j] + (uidx,) + units[j + 2 :]),
                    (-1) ** j * coeff,
                )
        return out

    return assemble_complex(bases, rule)


@pytest.mark.parametrize("n, q", [(3, 2), (2, 3)])
def test_bar_computes_each_product_once(monkeypatch, n, q):
    calls = []

    def counted(q, *key, spans):
        calls.append(key)
        return st_product(q, *key, spans=spans)

    monkeypatch.setattr(barres, "st_product", counted)
    cx = bar_complex_fq(n, q)
    assert calls and len(calls) == len(set(calls))
    monkeypatch.undo()
    ref = _unmemoized_bar_complex(n, q)
    assert cx.basis == ref.basis
    assert all(cx.boundary_at(d) == ref.boundary_at(d) for d in ref.degrees)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2)])
def test_top_rank_matches_kernel_oracle(n, q):
    # the top rank read from homology_profile against the kernel route
    cx = bar_complex_fq(n, q)
    assert cx.degrees == list(range(-1, n - 1))
    top = cx.boundary_at(n - 2)
    kernel = kernel_basis(top)
    assert verify_bar_exactness(n, q)["top_kernel_rank"] == nullity(top) == kernel.n_cols
    assert top.mul(kernel).is_zero()


@pytest.mark.parametrize("n", [0, -1])
def test_bar_rejects_n_below_one(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        bar_complex_fq(n, 2)


def test_bar_ranks_1_2():
    rep = verify_bar_exactness(1, 2)
    assert rep["ranks"] == {-1: 1, 0: 1}
    assert rep["homology_below_top"] == {}
    assert rep["ok"]


def test_bar_budget_enforced(monkeypatch):
    monkeypatch.setattr(complexes, "CELL_BUDGET", 50)
    with pytest.raises(BudgetExceeded):
        bar_complex_fq(3, 2)


@pytest.mark.parametrize("n, q, cells", [(5, 2, 28_475_392), (4, 3, 2_807_379)])
def test_bar_budget_checked_before_enumerating(monkeypatch, n, q, cells):
    def refuse(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(barres, "steinberg", refuse)
    monkeypatch.setattr(barres, "ordered_decompositions", refuse)
    with pytest.raises(BudgetExceeded, match=f"^{cells} "):
        bar_complex_fq(n, q)


def test_rank2_surjectivity_q2():
    rep = rank2_e1_surjectivity(2)
    assert len(steinberg(3, 2).chambers) == 21
    assert rep.st_rank == 8
    assert rep.e110 == HomologyGroup(1, ())
    assert rep.image_gcd == 1
    assert abs(rep.witness_value) == 1
    assert rep.standard_coeff == 1
    assert rep.surjective


def test_rank2_surjectivity_q3():
    rep = rank2_e1_surjectivity(3)
    assert len(steinberg(3, 3).chambers) == 52
    assert rep.st_rank == 27
    assert rep.e110 == HomologyGroup(1, ())
    assert rep.image_gcd == 1
    assert abs(rep.witness_value) == 1
    assert rep.surjective


@pytest.mark.parametrize("q", [2, 3])
def test_rank2_pairing_matches_kernel_oracle(q):
    # the direct route: the primitive kernel functional of the relation matrix
    # of Z[chambers] (x) St, indexed at chamber * st_rank + j
    st = steinberg(3, q)
    c, s = len(st.chambers), st.rank
    gens = gl_generators(3, q)
    big = [
        tensor_matrix(permutation_matrix_int(chamber_permutation(st, g)), st_action_matrix(st, g))
        for g in gens
    ]
    phi_mat = kernel_basis(coinvariant_relations(c * s, big).transpose())
    assert phi_mat.n_cols == 1
    phi_direct = phi_mat.cols[0]
    phi = rank2_pairing(st)
    flat = {x * s + j: v for x, row in enumerate(phi) for j, v in row.items()}
    assert phi_direct in (flat, {k: -v for k, v in flat.items()})
    # Phi[C0] is the sum of the coordinates
    c0 = st.chamber_index[tuple(identity_matrix(3)[: k + 1] for k in range(2))]
    assert phi[c0] == {j: 1 for j in range(s)}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_opposite_chambers_match_the_vector_set_test(q):
    st = steinberg(3, q)
    planes = {plane: span_vectors(st.ft, plane) for _, plane in st.chambers}
    want = [
        [c for c, (line2, plane2) in enumerate(st.chambers) if line2[0] not in planes[plane] and line[0] not in planes[plane2]]
        for line, plane in st.chambers
    ]
    got = list(opposite_chambers(st))
    assert got == want
    # q^3 chambers are opposite each one: the length of the longest element
    assert {len(opp) for opp in got} == {q**3}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank2_pairing_by_complement_matches_the_opposite_sum(q):
    st = steinberg(3, q)
    rows = st.basis[0].rows().__getitem__
    opposite_sum = [linear_extend(dict.fromkeys(opp, st.opp_sign), rows) for opp in opposite_chambers(st)]
    assert rank2_pairing(st) == opposite_sum


def test_rank2_rejects_non_invariant_pairing(monkeypatch):
    honest = barres.rank2_pairing

    def perturbed(st):
        phi = honest(st)
        phi[3] = dict(phi[3])
        phi[3][0] = phi[3].get(0, 0) + 1
        return phi

    monkeypatch.setattr(barres, "rank2_pairing", perturbed)
    with pytest.raises(CertificateFailure, match="pairing-invariance"):
        rank2_e1_surjectivity(2)
