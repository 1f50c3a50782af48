"""Exact elimination layer, checked against minor-gcd brute force."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from titshom import barres, building, partsix
from titshom.actions import coinvariant_relations
from titshom.intmat import SparseIntMatrix, add_chain, add_term, linear_extend
from titshom.snf import (
    LatticeSolver,
    _ColumnEngine,
    cokernel_invariants,
    is_saturated,
    kernel_basis,
    nullity,
    rank,
    saturation,
    smith_normal_form,
)

from oracle_linalg import bareiss_det, rank_mod_p, snf_divisors_oracle


def random_matrix(rng: random.Random, m: int, n: int, lo: int = -9, hi: int = 9, density: float = 1.0):
    dense = [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    return dense, SparseIntMatrix.from_dense(dense)


def test_snf_frozen_example():
    a = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
    assert smith_normal_form(a).divisors == (2, 4)


def test_kernel_frozen_example():
    a = SparseIntMatrix.from_dense([[1, 2, 3], [4, 5, 6]])
    k = kernel_basis(a)
    assert k.shape == (3, 1)
    col = k.cols[0]
    vec = tuple(col.get(i, 0) for i in range(3))
    assert vec in ((1, -2, 1), (-1, 2, -1))


def test_cokernel_frozen_example():
    a = SparseIntMatrix.from_dense([[1, 4], [2, 5], [3, 6]])
    assert cokernel_invariants(a) == (1, (3,))


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(20260813)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        dense, a = random_matrix(rng, m, n, density=rng.choice([1.0, 1.0, 0.5]))
        assert list(smith_normal_form(a).divisors) == snf_divisors_oracle(dense)


def assert_gfp_ranks_match(a: SparseIntMatrix, divisors) -> None:
    # the GF(p) rank comes from the separate mod-p echelon: it counts the
    # divisors that p does not divide
    for p in (2, 3, 5):
        assert rank_mod_p(a, p) == sum(1 for d in divisors if d % p), p


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    )
)
def test_divisors_match_oracle_and_gfp_ranks(dense):
    a = SparseIntMatrix.from_dense(dense)
    divs = smith_normal_form(a).divisors
    assert list(divs) == snf_divisors_oracle(dense)
    assert_gfp_ranks_match(a, divs)


@pytest.mark.parametrize(
    "dense, pivots",
    [
        # a lone entry in the first row becomes a non-unit echelon pivot:
        # the minor certificate fails and a second pass must find the 1s
        ([[2], [1]], [2]),
        ([[3], [2]], [3]),
        ([[2, 0], [1, 1], [0, 1]], [2, 1]),
        # Euclid steps inside the echelon reach a unit pivot
        ([[2, 3]], [-1]),
    ],
)
def test_all_unit_divisors_behind_non_unit_entries(dense, pivots):
    a = SparseIntMatrix.from_dense(dense)
    eng = _ColumnEngine(a, track_v=False)
    found, _ = eng.reduce()
    assert [eng.cols[c][r] for r, c in found] == pivots
    want = (1,) * len(pivots)
    assert smith_normal_form(a).divisors == want
    assert list(want) == snf_divisors_oracle(dense)
    assert_gfp_ranks_match(a, want)


def diag(*entries: int) -> list[list[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "dense, want",
    [
        (diag(1, 6, 1, 4), (1, 1, 2, 12)),
        (diag(4, 1, 6, 1, 9), (1, 1, 1, 6, 36)),
        (diag(-3, 1, 0, 5), (1, 1, 15)),
        ([[1, 0, 0], [0, 2, 4], [0, 6, 8]], (1, 2, 4)),
        ([[2, 1, 0], [0, 2, 0], [0, 0, 3]], (1, 1, 12)),
    ],
)
def test_mixed_unit_and_torsion_divisors(dense, want):
    a = SparseIntMatrix.from_dense(dense)
    assert smith_normal_form(a).divisors == want
    assert list(want) == snf_divisors_oracle(dense)
    assert_gfp_ranks_match(a, want)


def test_boundary_maps_divisors_match_gfp_ranks():
    complexes = [
        building.steinberg(3, 2).cx,
        barres.bar_complex_fq(3, 2),
        partsix.zcomplex(range(5)).cx,
    ]
    for cx in complexes:
        for d, mat in sorted(cx.boundary.items()):
            assert_gfp_ranks_match(mat, smith_normal_form(mat).divisors)


def test_kernel_annihilates_and_is_saturated():
    rng = random.Random(99)
    for _ in range(30):
        m = rng.randint(1, 6)
        n = rng.randint(1, 7)
        dense, a = random_matrix(rng, m, n, lo=-4, hi=4, density=0.7)
        k = kernel_basis(a)
        assert a.mul(k).is_zero()
        assert k.n_cols == nullity(a)
        if k.n_cols:
            assert is_saturated(k)


def test_rank_mod_p():
    a = SparseIntMatrix.from_dense([[1, 1], [1, 1]])
    assert rank_mod_p(a, 2) == 1
    assert rank(a) == 1
    b = SparseIntMatrix.from_dense([[2, 0], [0, 1]])
    assert rank_mod_p(b, 2) == 1 and rank(b) == 2


def test_saturation_of_non_saturated_lattice():
    a = SparseIntMatrix.from_dense([[2, 0], [0, 3]])
    sat = saturation(a)
    assert rank(sat) == 2
    assert abs(bareiss_det([[row.get(c, 0) for c in range(sat.n_cols)] for row in sat.rows()])) == 1
    assert not is_saturated(a)
    assert is_saturated(SparseIntMatrix.identity(3))
    # dependent columns: the lattice is what counts, not a basis of it
    assert is_saturated(SparseIntMatrix.from_dense([[1, 1], [0, 0]]))
    assert not is_saturated(SparseIntMatrix.from_dense([[2, 4], [0, 0]]))


def test_lattice_solver_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(2, 6)
        k = rng.randint(1, m)
        dense, a = random_matrix(rng, m, k, lo=-5, hi=5)
        if rank(a) < k:
            continue
        solver = LatticeSolver(a)
        y = {i: rng.randint(-3, 3) for i in range(k)}
        b = a.mul_vec(y)
        x = solver.solve(b)
        assert x is not None
        assert a.mul_vec(x) == b
        # a shifted vector, which may hold an explicit zero: solved exactly
        # when it lies in the lattice, that is when adding it as a column
        # leaves the Smith divisors of the columns as they were
        off = dict(b)
        off[m - 1] = off.get(m - 1, 0) + 1
        got = solver.solve(off)
        with_off = [row + [off.get(i, 0)] for i, row in enumerate(dense)]
        inside = snf_divisors_oracle(with_off) == snf_divisors_oracle(dense)
        assert (got is not None) == inside
        if inside:
            assert a.mul_vec(got) == {i: v for i, v in off.items() if v}


def test_mul_vec_rejects_keys_outside_the_columns():
    a = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    assert a.mul_vec({1: 1}) == {0: 2, 1: 4}
    for key in (-1, a.n_cols):
        with pytest.raises(IndexError):
            a.mul_vec({key: 1})


def _solver(a):
    try:
        return LatticeSolver(a)
    except ValueError:  # dependent columns; the input must still be intact
        return None


@pytest.mark.parametrize(
    "call",
    [
        smith_normal_form,
        rank,
        kernel_basis,
        saturation,
        cokernel_invariants,
        _solver,
        lambda a: coinvariant_relations(a.n_rows, [a]),
    ],
    ids=["smith", "rank", "kernel", "saturation", "cokernel", "solver", "coinvariant-relations"],
)
def test_elimination_leaves_its_input_columns_unchanged(call):
    # the engines reduce copies: the stored columns they read stay as they were
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 5)
        _, a = random_matrix(rng, n, n, lo=-4, hi=4, density=0.6)
        before = copy.deepcopy(a.cols)
        call(a)
        assert a.cols == before


def test_lattice_solver_rejects_outside_vectors():
    a = SparseIntMatrix.from_dense([[2], [0]])
    solver = LatticeSolver(a)
    assert solver.solve({0: 1}) is None
    assert solver.solve({1: 1}) is None
    assert solver.solve({0: -4}) == {0: -2}
    # an explicit zero entry is the zero coordinate, not a residual
    assert solver.solve({1: 0}) == {}
    assert solver.solve({0: 2, 1: 0}) == {0: 1}


@st.composite
def sparse_torsion_matrices(draw):
    """Square, up to 12 x 12: a diagonal with torsion, mixed by row and
    column additions, or plain sparse entries."""
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        dense = [[0] * n for _ in range(n)]
        for i in range(n):
            dense[i][i] = draw(st.sampled_from([1, 1, -1, 2, 3, 4, 6, 9, 0]))
        steps = st.tuples(
            st.booleans(),
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.sampled_from([-2, -1, 1, 2, 3]),
        )
        for on_rows, src, dst, mult in draw(st.lists(steps, max_size=3 * n)):
            if src == dst:
                continue
            for k in range(n):
                if on_rows:
                    dense[dst][k] += mult * dense[src][k]
                else:
                    dense[k][dst] += mult * dense[k][src]
        return dense
    entry = st.one_of(st.just(0), st.just(0), st.integers(min_value=-9, max_value=9))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(sparse_torsion_matrices())
def test_snf_divisibility_chain_and_det_product(dense):
    a = SparseIntMatrix.from_dense(dense)
    divs = smith_normal_form(a).divisors
    assert all(d > 0 for d in divs)
    for i in range(len(divs) - 1):
        assert divs[i + 1] % divs[i] == 0
    det = bareiss_det(dense)
    if det:
        prod = 1
        for d in divs:
            prod *= d
        assert len(divs) == len(dense) and prod == abs(det)


def test_zero_and_empty_edge_cases():
    z = SparseIntMatrix(0, 5)
    assert smith_normal_form(z).divisors == ()
    assert kernel_basis(z).n_cols == 5
    assert cokernel_invariants(SparseIntMatrix(4, 0)) == (4, ())
    assert rank(SparseIntMatrix(3, 3)) == 0


# -- sparse chains and matrix products against dense oracles -----------------

KEYS = "abcd"
chains = st.dictionaries(st.sampled_from(KEYS), st.integers(-3, 3), max_size=len(KEYS))


@settings(max_examples=150, deadline=None)
@given(chains, st.dictionaries(st.sampled_from(KEYS), chains))
def test_linear_extend_is_the_dense_sum(chain, table):
    op = {key: table.get(key, {}) for key in KEYS}
    got = linear_extend(chain, op.__getitem__)
    dense = {k: sum(c * op[x].get(k, 0) for x, c in chain.items()) for k in KEYS}
    assert got == {k: v for k, v in dense.items() if v}
    assert 0 not in got.values()
    # term by term with add_term: the same updates, so the same key order
    by_terms: dict = {}
    for x, c in chain.items():
        for k, v in op[x].items():
            add_term(by_terms, k, c * v)
    assert list(got.items()) == list(by_terms.items())


@settings(max_examples=100, deadline=None)
@given(chains, chains)
def test_add_chain_by_zero_and_by_minus_itself(dst, src):
    before = list(dst.items())
    add_chain(dst, src, 0)
    assert list(dst.items()) == before
    add_chain(dst, dict(dst), -1)
    assert dst == {}


def sparse_of(dense: list[list[int]], n_cols: int) -> SparseIntMatrix:
    """`from_dense`, keeping the column count of a matrix with no rows."""
    return SparseIntMatrix.from_dense(dense) if dense else SparseIntMatrix(0, n_cols)


def dense_matrices(n_rows: int, n_cols: int):
    row = st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols)
    return st.lists(row, min_size=n_rows, max_size=n_rows)


@st.composite
def product_inputs(draw):
    """Dense a (m x k), b (k x n) and a vector of length k, all shapes 0..5."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    vec = draw(st.dictionaries(st.integers(0, k - 1), st.integers(-3, 3))) if k else {}
    return m, k, n, draw(dense_matrices(m, k)), draw(dense_matrices(k, n)), vec


@settings(max_examples=150, deadline=None)
@given(product_inputs())
@example((0, 3, 2, [], [[1, 0], [0, 0], [2, -1]], {1: 2}))
@example((3, 0, 2, [[], [], []], [], {}))
@example((3, 3, 1, [[1, 0, 2], [0, 0, 0], [-3, 0, 1]], [[0], [0], [0]], {0: 1, 1: 5}))
def test_products_and_transpose_match_dense(inputs):
    m, k, n, da, db, vec = inputs
    a, b = sparse_of(da, k), sparse_of(db, n)
    # the derived rows are da's, and transposing twice gives a back
    assert a.rows() == [{c: v for c, v in enumerate(row) if v} for row in da]
    assert a.transpose().transpose() == a
    prod = [[sum(row[t] * db[t][j] for t in range(k)) for j in range(n)] for row in da]
    assert a.mul(b) == sparse_of(prod, n)
    ax = {r: s for r, row in enumerate(da) if (s := sum(row[c] * x for c, x in vec.items()))}
    assert a.mul_vec(vec) == ax
    assert a.transpose() == sparse_of([[row[c] for row in da] for c in range(k)], m)
