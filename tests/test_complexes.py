"""Chain complex assembly and homology."""

from __future__ import annotations

import random
from math import gcd
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titshom import actions, barres, building, complexes, partsix, zsymbols
from titshom.actions import group_homology, trivial_action
from titshom.barres import bar_complex_fq
from titshom.building import building_complex, subspaces
from titshom.complexes import (
    ChainComplexZ,
    HomologyGroup,
    assemble_complex,
    canonical_generator,
    check_dd,
    cycle_space,
    exactness_report,
    homology,
    homology_profile,
    merge_canonical,
    order_complex,
)
from titshom.errors import BudgetExceeded, DDNotZero, DegreeOutOfRange
from titshom.intmat import SparseIntMatrix
from titshom.fqfield import field
from titshom.partsix import SHAPES, shape_arity, shape_lines, w_poset_complex, x_localized, zcomplex
from titshom.snf import smith_normal_form
from titshom.zsymbols import ApartmentSymbol, minors, recognize_apf, reduce_and_verify

from oracle_linalg import face_rule, rank_mod_p, span_vectors


def test_canonical_generator_frozen():
    assert canonical_generator(("b", "a")) == (("a", "b"), -1)
    assert canonical_generator(("a", "a")) == (None, 0)
    assert canonical_generator(("c", "a", "b")) == (("a", "b", "c"), 1)
    assert canonical_generator(()) == ((), 1)


_INT_BLOCKS = st.sets(st.integers(-4, 4), max_size=6).map(lambda s: tuple(sorted(s)))
_VECTOR_BLOCKS = st.sets(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 1)), max_size=6
).map(lambda s: tuple(sorted(s)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(_INT_BLOCKS, _INT_BLOCKS), st.tuples(_VECTOR_BLOCKS, _VECTOR_BLOCKS)))
def test_merge_canonical_is_the_sort_of_the_concatenation(blocks):
    # small token ranges make shared tokens common, and those must give zero
    a, b = blocks
    got = merge_canonical(a, b)
    assert got == canonical_generator(a + b)
    assert (got == (None, 0)) == bool(set(a) & set(b))


def test_merge_canonical_frozen():
    assert merge_canonical((1, 3), (0, 2)) == canonical_generator((1, 3, 0, 2))
    assert merge_canonical((1, 3), (0, 2)) == ((0, 1, 2, 3), -1)
    assert merge_canonical((2, 5), (0, 1)) == ((0, 1, 2, 5), 1)
    assert merge_canonical((3,), (0, 1, 2)) == ((0, 1, 2, 3), -1)
    assert merge_canonical((0, 1), (2,)) == ((0, 1, 2), 1)
    assert merge_canonical((1, 2), (2, 3)) == (None, 0)
    assert merge_canonical((), ((0, 1),)) == (((0, 1),), 1)


def triangle_circle():
    # boundary of a solid triangle: three vertices, three edges, no face
    bases = {0: ["v0", "v1", "v2"], 1: ["e01", "e02", "e12"]}

    def rule(lab):
        if lab[0] == "e":
            a, b = lab[1], lab[2]
            return {f"v{a}": -1, f"v{b}": 1}
        return {}

    return assemble_complex(bases, rule)


def test_circle_homology():
    cx = triangle_circle()
    assert homology(cx, 0).betti == 1 and homology(cx, 0).torsion == ()
    assert homology(cx, 1).betti == 1 and homology(cx, 1).torsion == ()
    assert cycle_space(cx, 1).n_cols == 1


def test_torsion_homology():
    # Z --2--> Z in degrees 1 -> 0
    bases = {0: ["x"], 1: ["y"]}
    cx = assemble_complex(bases, lambda lab: {"x": 2} if lab == "y" else {})
    h0 = homology(cx, 0)
    assert h0.betti == 0 and h0.torsion == (2,)
    assert str(h0) == "Z/2"
    h1 = homology(cx, 1)
    assert h1.betti == 0 and h1.torsion == ()


@pytest.mark.parametrize(
    "make",
    [
        lambda: assemble_complex({0: ["x"], 1: ["y"]}, lambda lab: {"x": 2} if lab == "y" else {}),
        # H_0 = Z/2 + Z
        lambda: ChainComplexZ({0: ["a", "b"], 1: ["x"]}, {1: SparseIntMatrix.from_dense([[2], [0]])}),
        lambda: building_complex(3, 2),
        lambda: zcomplex(range(4)).cx,
        lambda: x_localized(shape_lines("x1-ii", 3, (1, -1, 1))[0]),
    ],
    ids=["z-2z", "z2-plus-z", "building-3-2", "zcomplex-4", "x1-ii-3"],
)
def test_homology_obeys_universal_coefficients_mod_p(make):
    # dim H_d(C; F_p) from the separate mod-p echelon must equal the Z
    # homology's betti number plus the torsion p divides in degrees d, d-1
    cx = make()
    prof = homology_profile(cx)
    for d in cx.degrees:
        below = prof[d - 1].torsion if d - 1 in prof else ()
        for p in (2, 3, 5):
            mod_p = cx.dim(d) - rank_mod_p(cx.boundary_at(d), p) - rank_mod_p(cx.boundary_at(d + 1), p)
            divides = sum(1 for t in prof[d].torsion + below if t % p == 0)
            assert mod_p == prof[d].betti + divides, (d, p)


def test_dd_not_zero_detected():
    bases = {0: ["a"], 1: ["b"], 2: ["c"]}

    def bad(lab):
        if lab == "b":
            return {"a": 1}
        if lab == "c":
            return {"b": 1}
        return {}

    with pytest.raises(DDNotZero) as ei:
        assemble_complex(bases, bad)
    assert ei.value.degree == 2 and ei.value.generator == "c"


def test_check_dd_names_the_first_bad_generator():
    d1 = SparseIntMatrix.from_dense([[1, 1]])
    d2 = SparseIntMatrix.from_dense([[0, 1], [0, 0]])
    bad = ChainComplexZ({0: ["a"], 1: ["b", "c"], 2: ["x", "y"]}, {1: d1, 2: d2})
    with pytest.raises(DDNotZero) as ei:
        check_dd(bad)
    assert ei.value.degree == 2 and ei.value.generator == "y"
    good = ChainComplexZ(bad.basis, {1: d1, 2: SparseIntMatrix.from_dense([[0, 1], [0, -1]])})
    assert check_dd(good) is good


def _order_complex_oracle(vertices: list, less) -> ChainComplexZ:
    """Chains grown by the pairwise order test, assembled through `face_rule`."""
    bases = {-1: [()]}
    frontier = [(v,) for v in vertices]
    while frontier:
        bases[len(bases) - 1] = frontier
        frontier = [chain + (w,) for chain in frontier for w in vertices if less(chain[-1], w)]
    return assemble_complex(bases, face_rule)


def _building_oracle(n: int, q: int) -> ChainComplexZ:
    vertices = [v for d in range(1, n) for v in subspaces(n, q, d)]
    vecs = {v: span_vectors(field(q), v) for v in vertices}
    return _order_complex_oracle(vertices, lambda v, w: vecs[v] < vecs[w])


def _w_poset_oracle(d: int) -> ChainComplexZ:
    subsets = sorted((frozenset(c) for k in range(1, d) for c in combinations(range(d), k)), key=sorted)
    return _order_complex_oracle(subsets, frozenset.__lt__)


def _divides(v: int, w: int) -> bool:
    return v != w and w % v == 0


# above[i] skips vertices, and for 5 or 7 it ends before the last vertex
DIVISORS = list(range(2, 13))


@pytest.mark.parametrize(
    "got, want",
    [
        *[(lambda n=n, q=q: building_complex(n, q), lambda n=n, q=q: _building_oracle(n, q))
          for n, q in [(3, 2), (3, 3), (4, 2), (4, 3)]],
        # d = 1 is the empty poset and d = 2 has no edges
        *[(lambda d=d: w_poset_complex(d), lambda d=d: _w_poset_oracle(d)) for d in range(1, 5)],
        (
            lambda: order_complex(DIVISORS, [[j for j, w in enumerate(DIVISORS) if _divides(v, w)] for v in DIVISORS]),
            lambda: _order_complex_oracle(DIVISORS, _divides),
        ),
    ],
    ids=["building-3-2", "building-3-3", "building-4-2", "building-4-3", "w-1", "w-2", "w-3", "w-4", "divisors-2-12"],
)
def test_order_complex_matches_face_rule_assembly(got, want):
    # same basis order and the same columns, keys in the same order, in every degree
    got, want = got(), want()
    assert got.basis == want.basis
    assert sorted(got.boundary) == sorted(want.boundary) == got.degrees
    for d in got.degrees:
        a, b = got.boundary_at(d), want.boundary_at(d)
        assert a.shape == b.shape, d
        assert [list(col.items()) for col in a.cols] == [list(col.items()) for col in b.cols], d


def test_degree_out_of_range():
    cx = triangle_circle()
    with pytest.raises(DegreeOutOfRange):
        homology(cx, 5)


def test_exactness_report_exact_complex():
    bases = {0: ["a"], 1: ["b"]}
    cx = assemble_complex(bases, lambda lab: {"a": 1} if lab == "b" else {})
    rep = exactness_report(cx)
    assert rep["euler"] == 0
    assert rep["exact_at"] == [0, 1]


def test_negative_degrees_supported():
    # reduced point: empty simplex in degree -1, one vertex over it
    bases = {-1: [()], 0: [("v",)]}
    cx = assemble_complex(bases, lambda lab: {(): 1} if lab else {})
    assert homology(cx, -1).betti == 0
    assert homology(cx, 0).betti == 0
    assert exactness_report(cx)["euler"] == 0


# -- coreduction against the direct Smith route ----------------------------------


def smith_oracle(cx):
    """Homology at every degree from one Smith form per original boundary."""
    res = {d: smith_normal_form(cx.boundary_at(d)) for d in cx.degrees}
    out = {}
    for d in cx.degrees:
        up = res[d + 1] if d + 1 in res else None
        betti = cx.dim(d) - res[d].rank - (up.rank if up else 0)
        torsion = tuple(t for t in (up.divisors if up else ()) if t > 1)
        out[d] = HomologyGroup(betti, torsion)
    return out


def assert_matches_oracle(cx):
    assert homology_profile(cx) == smith_oracle(cx)


def simplicial_complex(facets, reduced: bool) -> ChainComplexZ:
    """Downward closure of the facets, with the empty simplex when reduced."""
    simplices = {()} if reduced else set()
    for facet in facets:
        for k in range(1, len(facet) + 1):
            simplices.update(combinations(sorted(facet), k))
    bases: dict[int, list] = {}
    for s in sorted(simplices):
        bases.setdefault(len(s) - 1, []).append(s)

    def rule(s):
        if len(s) == 1 and not reduced:
            return {}
        return {s[:j] + s[j + 1 :]: (-1) ** j for j in range(len(s))}

    return assemble_complex(bases, rule)


def pm_two_complex() -> ChainComplexZ:
    # every incidence is +-2, so nothing pairs: H_0 = Z/2, H_1 = Z/2, H_2 = 0
    d1 = SparseIntMatrix.from_dense([[2, 2]])
    d2 = SparseIntMatrix.from_dense([[2], [-2]])
    return ChainComplexZ({0: ["p"], 1: ["e", "f"], 2: ["t"]}, {1: d1, 2: d2})


def _x_localized_at_4(shape):
    eps = tuple((-1) ** i for i in range(shape_arity(shape)))
    lines = shape_lines(shape, 4, eps)[0]
    return x_localized(lines)


CROSS_CHECKED = {
    **{f"building-{n}-{q}": (lambda n=n, q=q: building_complex(n, q)) for n, q in [(2, 2), (3, 2), (3, 3), (4, 2)]},
    **{f"zcomplex-{k}": (lambda k=k: zcomplex(range(k)).cx) for k in range(7)},
    **{f"x-{s}-4": (lambda s=s: _x_localized_at_4(s)) for s in SHAPES if shape_arity(s) <= 4},
    **{f"bar-{n}-{q}": (lambda n=n, q=q: bar_complex_fq(n, q)) for n, q in [(2, 2), (3, 2)]},
    "pm-two": pm_two_complex,
    "no-degrees": lambda: ChainComplexZ({}, {}),
    "empty-top": lambda: ChainComplexZ({0: ["p"], 1: []}, {}),
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECKED))
def test_coreduced_homology_matches_smith_oracle(name):
    assert_matches_oracle(CROSS_CHECKED[name]())


def test_coreduced_homology_matches_smith_oracle_on_random_simplicial_complexes():
    rng = random.Random(20091)
    for seed in range(200):
        vertices = range(rng.randint(3, 8))
        facets = [rng.sample(vertices, rng.randint(1, min(5, len(vertices)))) for _ in range(rng.randint(1, 12))]
        cx = simplicial_complex(facets, reduced=seed % 2 == 0)
        assert homology_profile(cx) == smith_oracle(cx), seed


def twisted_complex(rng: random.Random) -> tuple[ChainComplexZ, dict[int, HomologyGroup]]:
    """Sum of pieces Z and Z --t--> Z in degrees 0..3, under random basis changes.

    A change E of the degree-d basis sends d_d to d_d E and d_{d+1} to
    E^-1 d_{d+1}; E adds c times basis vector j to basis vector i.
    """
    dims = [0] * 4
    want = {d: [0, []] for d in range(4)}
    entries = []
    for _ in range(rng.randint(1, 6)):
        d = rng.randrange(4)
        if d == 3 or rng.random() < 0.3:
            want[d][0] += 1
            dims[d] += 1
            continue
        t = rng.choice((1, 1, 2, 3, 4, 6))
        entries.append((d, dims[d], dims[d + 1], t))
        if t > 1:
            want[d][1].append(t)
        dims[d] += 1
        dims[d + 1] += 1
    mats = {d: [[0] * dims[d] for _ in range(dims[d - 1])] for d in range(1, 4)}
    for d, row, col, t in entries:
        mats[d + 1][row][col] = t
    for _ in range(rng.randint(0, 25)):
        d = rng.randrange(4)
        if dims[d] < 2:
            continue
        i, j = rng.sample(range(dims[d]), 2)
        c = rng.choice((-1, 1, 2))
        if d >= 1:
            for row in mats[d]:
                row[i] += c * row[j]
        if d <= 2:
            mats[d + 1][j] = [a - c * b for a, b in zip(mats[d + 1][j], mats[d + 1][i])]
    bases = {d: [(d, i) for i in range(dims[d])] for d in range(4)}
    boundary = {d: SparseIntMatrix.from_dense(m) if m else SparseIntMatrix(0, dims[d]) for d, m in mats.items()}
    return ChainComplexZ(bases, boundary), {d: HomologyGroup(b, invariant_factors(t)) for d, (b, t) in want.items()}


def invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """The divisor chain of a sum of cyclic groups Z/t."""
    ts = list(orders)
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            g = gcd(ts[i], ts[j])
            ts[i], ts[j] = g, ts[i] * ts[j] // g
    return tuple(t for t in ts if t > 1)


def test_coreduced_homology_matches_smith_oracle_on_twisted_complexes():
    rng = random.Random(2006)
    for seed in range(200):
        cx, want = twisted_complex(rng)
        assert smith_oracle(cx) == want, seed
        assert homology_profile(cx) == want, seed


def _cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def _sign_action(g):
    return SparseIntMatrix.from_dense([[-1 if g else 1]])


@pytest.mark.parametrize(
    "n, action, want",
    [
        *[(n, trivial_action(1), [(1, ()), (0, (n,)), (0, ())]) for n in (2, 3, 4, 6)],
        (2, _sign_action, [(0, (2,)), (0, ()), (0, (2,))]),
    ],
    ids=["z2", "z3", "z4", "z6", "z2-sign"],
)
def test_group_homology_bar_complexes_match_smith_oracle(monkeypatch, n, action, want):
    # every bar complex group_homology builds is checked against the oracle too
    seen = []

    def recording(cx, d):
        seen.append(cx)
        return homology(cx, d)

    monkeypatch.setattr(actions, "homology", recording)
    elements, mult = _cyclic(n)
    got = [group_homology(elements, mult, action, 1, k) for k in range(3)]
    assert [(h.betti, h.torsion) for h in got] == want
    for cx in seen:
        assert_matches_oracle(cx)


def test_degree_with_no_cells():
    cx = ChainComplexZ({0: ["a"], 1: [], 2: ["c"]}, {})
    assert [homology(cx, d) for d in (0, 1, 2)] == [HomologyGroup(1, ()), HomologyGroup(0, ()), HomologyGroup(1, ())]
    assert homology_profile(cx) == smith_oracle(cx)


def test_complex_holding_only_degree_minus_one():
    cx = zcomplex(range(1)).cx
    assert cx.degrees == [-1]
    assert homology(cx, -1) == HomologyGroup(1, ()) and homology_profile(cx) == {-1: HomologyGroup(1, ())}
    with pytest.raises(DegreeOutOfRange):
        homology(cx, 0)


def test_pm_two_complex_keeps_its_torsion_at_every_window():
    # degrees 0 and 2 are the ends, each with one map
    cx = pm_two_complex()
    assert [homology(cx, d) for d in (0, 1, 2)] == [HomologyGroup(0, (2,)), HomologyGroup(0, (2,)), HomologyGroup(0, ())]


def _refuse(*args):
    raise AssertionError("enumeration started")


# builder -> (the cell count it checks against CELL_BUDGET, the enumerations
# that must not start when that count is over the budget)
BUDGETED = {
    "subspaces-4-2-2": (lambda: subspaces(4, 2, 2), 35, [(building, "product")]),
    "building_complex-3-3": (lambda: building_complex(3, 3), 79, []),
    "bar_complex_fq-2-3": (
        lambda: bar_complex_fq(2, 3),
        15,
        [(barres, "steinberg"), (barres, "ordered_decompositions")],
    ),
    "zcomplex-5": (lambda: zcomplex(range(5)), 541, [(partsix, "_unordered_partitions")]),
    # four matroid components bound the cells by 75 ordered partitions
    "x_localized-x1-i": (
        lambda: x_localized(shape_lines("x1-i", 5, (1, -1))[0]),
        75,
        [(partsix, "_unordered_partitions")],
    ),
    "w_poset_complex-5": (lambda: w_poset_complex(5), 541, []),
    "group_homology-z2-2": (
        lambda: group_homology(*_cyclic(2), trivial_action(1), 1, 2),
        15,
        [(actions, "assemble_complex")],
    ),
    # the 7! orderings of a unimodular 7 x 7 symbol's lines; below n = 7 its
    # C(2n, n) minors pass the budget later than n! does
    "reduce_and_verify-7": (
        lambda: reduce_and_verify([tuple(int(i == j) for j in range(7)) for i in range(7)]),
        5040,
        [(building, "_orderings")],
    ),
    # the 2^5 frame candidates of five lines; the search is cached, so these
    # lines are passed by no other test
    "recognize_apf-5": (
        lambda: recognize_apf(((1, 2, 0), (0, 1, 0), (0, 0, 1), (1, 3, 0), (1, 3, 1))),
        32,
        [(zsymbols, "is_saturated_rows")],
    ),
    # the 2^5 minors of the row prefixes of a 5 x 5 symbol
    "det-5": (
        lambda: ApartmentSymbol(tuple(tuple(int(i == j) for j in range(5)) for i in range(5))).det(),
        32,
        [(zsymbols, "_laplace_plan")],
    ),
    # the C(10, 5) minors of five rows in Z^5
    "minors-5x5": (
        lambda: minors([tuple(int(i == j) for j in range(5)) for i in range(5)]),
        252,
        [(zsymbols, "_laplace_plan")],
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_cell_budget_raises_before_allocating(monkeypatch, matrix_widths, name):
    # one patch point reaches every enumeration: one cell short raises on the
    # count, before the enumeration starts or the last degree's matrix exists
    build, cells, refused = BUDGETED[name]
    monkeypatch.setattr(complexes, "CELL_BUDGET", cells - 1)
    with monkeypatch.context() as m:
        for module, attr in refused:
            m.setattr(module, attr, _refuse)
        with pytest.raises(BudgetExceeded, match=f"^{cells} "):
            build()
    assert sum(matrix_widths) < cells
    monkeypatch.setattr(complexes, "CELL_BUDGET", cells)
    build()
