"""Integral modular symbols, descent, and the X-degree presentation."""

import random
from itertools import combinations, permutations, product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titshom import complexes, partsix, reports, snf, zsymbols
from titshom.complexes import CELL_BUDGET, canonical_generator
from titshom.errors import BudgetExceeded, DegreeZero, IdentityViolation, ZeroVector
from titshom.intmat import SparseIntMatrix, add_term, linear_extend
from titshom.snf import LatticeSolver
from titshom.zsymbols import (
    ApartmentSymbol,
    _descent_vector,
    _round_half_toward_zero,
    ApfCertificate,
    apartment_eval,
    ash_rudolph,
    byk_delta,
    byk_delta_combination,
    byk_psi,
    minors,
    normalize_line,
    is_saturated_rows,
    reduce_and_verify,
    random_unimodular_basis,
    rank_rows,
    recognize_apf,
    span_key,
)

from oracle_linalg import (
    bareiss_det,
    face_rule,
    laplace_wedge,
    perm_sign,
    plucker_oracle,
    row_hnf,
    saturate_rows,
    snf_divisors_oracle,
)


def test_normalize_line():
    assert normalize_line((2, -4)) == ((1, -2), 1)
    assert normalize_line((-1, 2)) == ((1, -2), -1)
    # a primitive line that leads positive comes back as it is
    assert normalize_line([0, 3, -2]) == ((0, 3, -2), 1)
    assert normalize_line((0, -3, 2)) == ((0, 3, -2), -1)
    assert normalize_line((0, -6, 4)) == ((0, 3, -2), -1)
    with pytest.raises(ZeroVector):
        normalize_line((0, 0))


def test_row_hnf_and_saturation():
    assert row_hnf([(2, 0), (0, 1)]) == ((2, 0), (0, 1))
    assert saturate_rows([(2, 0), (0, 1)]) == ((1, 0), (0, 1))
    assert saturate_rows([(1, 2, 0), (0, 0, 3)]) == ((1, 2, 0), (0, 0, 1))
    # shuffling and negating rows leaves the canonical form alone
    assert row_hnf([(0, 1), (-2, 0)]) == ((2, 0), (0, 1))


def _random_row_set(rng, n, k, bound):
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(k), rng.randrange(k)
        kind = rng.random()
        if kind < 0.3:
            rows[i] = [0] * n
        elif i != j:  # a row dependent on another
            c = rng.choice((-3, -2, 2, 3))
            rows[i] = [c * x for x in rows[j]]
    return [tuple(r) for r in rows]


def test_row_lattice_questions_match_minor_oracles():
    # rank, the summand test and saturation against determinantal divisors
    rng = random.Random(4471)
    for trial in range(600):
        n = rng.randint(1, 6)
        k = rng.randint(1, n + 2)
        rows = _random_row_set(rng, n, k, rng.choice((1, 3, 50)))
        divisors = snf_divisors_oracle([list(v) for v in rows])
        assert rank_rows(rows) == len(divisors), rows
        assert is_saturated_rows(rows) == (len(divisors) == k and set(divisors) <= {1}), rows
        sat = saturate_rows(rows)
        assert row_hnf(sat) == sat, rows
        assert snf_divisors_oracle([list(v) for v in sat]) == [1] * len(divisors), rows
        assert row_hnf(sat + tuple(rows)) == sat, rows
    assert saturate_rows([]) == () and is_saturated_rows([]) and rank_rows([]) == 0
    assert saturate_rows([(0, 0)]) == () and not is_saturated_rows([(0, 0)])
    assert saturate_rows([(1, 2), (2, 4)]) == ((1, 2),)
    assert not is_saturated_rows([(1, 2), (2, 4)]) and rank_rows([(1, 2), (2, 4)]) == 1
    # an independent but non-saturated pair, and a saturated one
    assert not is_saturated_rows([(1, 1, 0), (1, -1, 0)])
    assert is_saturated_rows([(1, 1, 0), (0, 1, 0)])
    for ragged in ([(1, 2), (1,)], [(1, 2), (1, 2, 3)]):
        for question in (rank_rows, is_saturated_rows, saturate_rows):
            with pytest.raises(ValueError, match="ragged"):
                question(ragged)


def test_minors_match_bareiss_on_every_row_and_column_subset():
    rng = random.Random(6061)
    # every shape twice: once as drawn, once with a zero row
    for zero_row, m, n in product((False, True), range(1, 7), range(1, 7)):
        rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)]
        if zero_row:
            rows[rng.randrange(m)] = (0,) * n
        table = minors(rows)
        k_max = min(m, n)
        assert set(table) == {idx for k in range(k_max + 1) for idx in combinations(range(m), k)}
        for idx, got in table.items():
            want = [
                bareiss_det([[rows[i][c] for c in cols] for i in idx])
                for cols in combinations(range(n), len(idx))
            ]
            assert list(got) == want, (rows, idx)
    assert minors([]) == {(): (1,)}
    with pytest.raises(ValueError, match="ragged"):
        minors([(1, 2), (1,)])


def test_laplace_kernel_matches_the_interpreted_wedge():
    rng = random.Random(2929)
    for n in range(1, 8):
        for k in range(1, n + 1):
            step = zsymbols._laplace_plan(n, k)
            parents = comb(n, k - 1)
            for _ in range(4):
                parent = tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(parents))
                row = tuple(rng.choice((0, rng.randint(-9, -1), rng.randint(1, 9))) for _ in range(n))
                assert step(parent, row) == laplace_wedge(parent, row, k), (n, k, parent, row)
    # arguments are unpacked by length, so a wrong length cannot pass silently
    with pytest.raises(ValueError):
        zsymbols._laplace_plan(3, 2)((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        zsymbols._laplace_plan(3, 2)((1, 2), (1, 2, 3))


def test_det_matches_bareiss_and_the_top_minor():
    rng = random.Random(3030)
    for n in range(1, 7):
        for _ in range(6):
            rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)]
            if not all(any(row) for row in rows):
                continue
            symbol = ApartmentSymbol(tuple(rows))
            assert symbol.det() == bareiss_det(rows) == minors(rows)[tuple(range(n))][0], rows


def test_minors_budget_is_checked_before_the_first_level(monkeypatch):
    def refuse(n, k):
        raise AssertionError("a level of minors was started")

    monkeypatch.setattr(zsymbols, "_laplace_plan", refuse)
    identity = [tuple(int(i == j) for j in range(12)) for i in range(12)]
    # sum over k of C(12, k)^2 = C(24, 12) minors
    with pytest.raises(BudgetExceeded, match=f"^2704156 minors exceed budget {CELL_BUDGET}$"):
        minors(identity)


def _eval_saturating_every_prefix(vecs):
    """`apartment_eval` with every prefix span saturated by `saturate_rows`,
    each Hermite-keyed flag then translated member by member into
    `plucker_oracle` keys."""
    lines = ApartmentSymbol.from_vectors(vecs).lines
    n = len(lines)
    if bareiss_det(lines) == 0:
        return {}
    chain = {}
    for perm in permutations(range(n)):
        flag = tuple(
            saturate_rows([lines[i] for i in sorted(perm[: k + 1])])
            for k in range(n - 1)
        )
        add_term(chain, flag, perm_sign(perm))
    translated = {tuple(plucker_oracle(member) for member in flag): c for flag, c in chain.items()}
    assert len(translated) == len(chain)
    return translated


def _nonsingular(rng, n, bound, at_least=1):
    while True:
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)]
        if abs(bareiss_det(rows)) >= at_least:
            return rows


def test_apartment_eval_matches_saturated_prefixes_through_plucker_keys():
    rng = random.Random(818)
    for n, count in ((2, 6), (3, 6), (4, 6), (5, 2)):
        for _ in range(count):
            basis = random_unimodular_basis(n, rng)
            assert abs(bareiss_det(basis)) == 1
            assert apartment_eval(basis) == _eval_saturating_every_prefix(basis)
            vecs = _nonsingular(rng, n, 4, at_least=2)
            assert apartment_eval(vecs) == _eval_saturating_every_prefix(vecs)


def _symbols_from_a_shared_pool(rng, n):
    """Symbols drawn from one small pool of lines, so that they share spans:
    reorderings of one another, repeated and dependent lines, and symbols
    built directly from lines that are not primitive or lead negative."""
    basis = random_unimodular_basis(n, rng)
    pool = list(basis) + [tuple(rng.randint(-3, 3) or 1 for _ in range(n)) for _ in range(2)]
    pool += [tuple(c * x for x in rng.choice(pool)) for c in (2, -1, -3)]
    if n > 1:
        # a sum of two pool lines makes dependent triples
        pool.append(tuple(x + y for x, y in zip(pool[0], pool[1])))
    symbols = []
    for _ in range(6):
        lines = [rng.choice(pool) for _ in range(n)]
        symbols.append(ApartmentSymbol(tuple(lines)))
        symbols.append(ApartmentSymbol.from_vectors(lines))
        rng.shuffle(lines)
        symbols.append(ApartmentSymbol(tuple(lines)))
    scaled = tuple(tuple(c * x for x in v) for c, v in zip((2, -3, 1, -1, 5), basis))
    symbols.append(ApartmentSymbol(scaled))
    return symbols


def test_span_memo_matches_fresh_evaluation_and_the_saturation_oracle():
    rng = random.Random(4242)
    zero = nonzero = 0
    for n in (1, 2, 3, 4, 5):
        spans = {}
        symbols = _symbols_from_a_shared_pool(rng, n)
        for symbol in symbols:
            want = _eval_saturating_every_prefix(symbol.lines)
            zero, nonzero = zero + (not want), nonzero + bool(want)
            assert apartment_eval(symbol, spans) == want, symbol
            assert apartment_eval(symbol) == want, symbol
            for k in range(1, n + 1):
                for idx in combinations(range(n), k):
                    rows = [symbol.lines[i] for i in idx]
                    rng.shuffle(rows)
                    top = minors(rows)[tuple(range(k))]
                    want_key = normalize_line(top)[0] if any(top) else None
                    # any ordering, through the shared memo and afresh
                    assert span_key(tuple(rows), spans) == want_key, rows
                    assert span_key(tuple(rows), {}) == want_key, rows
    assert zero and nonzero


def test_span_key_normalizes_a_single_line():
    symbol = ApartmentSymbol(((2, 0), (0, 3)))
    assert span_key(((2, 0),), {}) == (1, 0)
    assert apartment_eval(symbol) == apartment_eval(ApartmentSymbol.from_vectors(symbol.lines))
    assert span_key(((1, 2), (-2, -4)), {}) is None


def test_plucker_keys_biject_with_saturated_forms():
    # (k, primitive Plücker vector) and (k, Hermite basis of the saturation)
    # determine each other on every proper subset of seeded unimodular and
    # non-unimodular symbols, and on each subset times a nonsingular k x k
    # matrix, which spans the same saturation up to finite index
    rng = random.Random(2323)
    forward, backward = {}, {}
    pairs = 0
    for n in (2, 3, 4, 5):
        symbols = [random_unimodular_basis(n, rng) for _ in range(12)]
        symbols += [_nonsingular(rng, n, 5, at_least=2) for _ in range(12)]
        for vecs in symbols:
            for k in range(1, n):
                for idx in combinations(range(n), k):
                    rows = [vecs[i] for i in idx]
                    mixer = _nonsingular(rng, k, 2)
                    mixed = [
                        tuple(sum(m * row[t] for m, row in zip(mrow, rows)) for t in range(n))
                        for mrow in mixer
                    ]
                    for sub in (rows, mixed):
                        key, form = (k, plucker_oracle(sub)), (k, saturate_rows(sub))
                        assert forward.setdefault(key, form) == form, sub
                        assert backward.setdefault(form, key) == key, sub
                        # the translation the prefix oracle uses
                        assert plucker_oracle(form[1]) == key[1], sub
                        pairs += 1
    assert len(forward) == len(backward)
    assert pairs > 2 * len(forward)


def test_apartment_eval_standard():
    ev = apartment_eval([(1, 0), (0, 1)])
    assert ev == {((1, 0),): 1, ((0, 1),): -1}
    assert apartment_eval([(0, 1), (1, 0)]) == {k: -v for k, v in ev.items()}
    assert apartment_eval([(1, 0), (2, 0)]) == {}
    # scaling a slot does not change the line, hence not the chain
    assert apartment_eval([(3, 0), (0, -2)]) == ev
    # e0 and the plane e0 ^ e1 share the key (1, 0, 0); their place in the flag
    # tells them apart
    ev3 = apartment_eval([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(ev3) == 6
    assert ev3[((1, 0, 0), (1, 0, 0))] == 1 and ev3[((0, 1, 0), (1, 0, 0))] == -1
    assert ev3[((0, 0, 1), (0, 1, 0))] == 1


def test_apartment_eval_alternates_over_every_permutation_of_the_lines():
    rng = random.Random(5151)
    for n in (1, 2, 3, 4):
        symbols = [random_unimodular_basis(n, rng), tuple(_nonsingular(rng, n, 3, at_least=2))]
        # dependent lines: one line repeated, and the last line replaced by -2 times the first
        symbols.append((symbols[0][0],) * n)
        symbols.append(symbols[1][:-1] + (tuple(-2 * x for x in symbols[1][0]),))
        for vecs in symbols:
            want = apartment_eval(vecs)
            assert want == _eval_saturating_every_prefix(vecs), vecs
            spans = {}
            for perm in permutations(range(n)):
                permuted = [vecs[i] for i in perm]
                sign = perm_sign(perm)
                assert apartment_eval(permuted, spans) == {f: sign * c for f, c in want.items()}, (vecs, perm)
                assert apartment_eval(permuted) == _eval_saturating_every_prefix(permuted), (vecs, perm)


def test_apartment_eval_is_cycle():
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(10):
            vecs = [
                tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)
            ]
            if any(not any(v) for v in vecs):
                continue
            chain = apartment_eval(vecs)
            assert linear_extend(chain, face_rule) == {}


def _eval_combination(terms):
    acc = {}
    for coeff, sym in terms:
        for flag, v in apartment_eval(sym).items():
            acc[flag] = acc.get(flag, 0) + coeff * v
    return {k: v for k, v in acc.items() if v}


def test_ash_rudolph_unimodular_passthrough():
    out = ash_rudolph([(1, 0), (1, 1)])
    assert out == [(1, ApartmentSymbol(((1, 0), (1, 1))))]


def test_ash_rudolph_dependent():
    assert ash_rudolph([(1, 0), (2, 0)]) == []


def test_ash_rudolph_known_case():
    lhs = apartment_eval([(1, 0), (1, 2)])
    assert lhs == {((1, 0),): 1, ((1, 2),): -1}
    out = ash_rudolph([(1, 0), (1, 2)])
    assert _eval_combination(out) == lhs
    assert all(abs(bareiss_det(s.lines)) == 1 for _, s in out)


def test_ash_rudolph_random():
    rng = random.Random(20260813)
    for n in (2, 3):
        done = 0
        while done < 25:
            vecs = [
                tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
            ]
            if any(not any(v) for v in vecs):
                continue
            done += 1
            trace = []
            out = ash_rudolph(vecs, trace=trace)
            assert all(child < parent for parent, child in trace)
            assert all(abs(bareiss_det(s.lines)) == 1 for _, s in out)
            assert _eval_combination(out) == apartment_eval(vecs)


@pytest.mark.parametrize("n", [2, 3])
def test_reduce_and_verify_takes_each_row_tuples_minors_once(monkeypatch, n):
    calls = []

    def counted(rows):
        calls.append(tuple(rows))
        return minors(rows)

    dets = []
    honest_det = ApartmentSymbol.det

    def counted_det(symbol):
        dets.append(symbol.lines)
        return honest_det(symbol)

    monkeypatch.setattr(zsymbols, "minors", counted)
    monkeypatch.setattr(ApartmentSymbol, "det", counted_det)
    rng = random.Random(61 + n)
    unimodular = descended = 0
    for i in range(60):
        vectors = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if i % 4 == 0:
            vectors = random_unimodular_basis(n, rng)
        if not all(any(v) for v in vectors):
            continue
        calls.clear()
        dets.clear()
        red = reduce_and_verify(vectors)
        assert red.verified, vectors
        assert len(calls) == len(set(calls)) and len(dets) == len(set(dets)), vectors
        # the symbol had its minors taken, and every other term its determinant
        root = ApartmentSymbol.from_vectors(vectors).lines
        assert root in calls
        assert {t.lines for _, t in red.terms} - {root} <= set(dets)
        unimodular += [(c, t.lines) for c, t in red.terms] == [(1, root)]
        descended += len(red.terms) > 1
    # both the passthrough and the descent were exercised
    assert unimodular and descended


def test_ash_rudolph_raises_when_descent_does_not_shrink(monkeypatch):
    # a w equal to one of the symbol's vectors keeps |d| = 2 in that slot
    vectors = [(1, 0), (1, 2)]
    monkeypatch.setattr(zsymbols, "_descent_vector", lambda vecs, table: (vecs[1], [0, 2]))
    with pytest.raises(IdentityViolation, match="descent does not shrink"):
        ash_rudolph(vectors)


def _column_solver(rows) -> LatticeSolver:
    return LatticeSolver(SparseIntMatrix.from_dense([list(r) for r in rows]).transpose())


def _descent_vector_reference(vectors, d):
    """The descent vector with the first missing e_k found by sparse lattice
    solving instead of Cramer's rule."""
    n = len(vectors)
    solver = _column_solver(vectors)
    k = next(i for i in range(n) if solver.solve({i: 1}) is None)
    target = tuple(1 if i == k else 0 for i in range(n))
    w0 = list(target)
    for i in range(n):
        num = bareiss_det(vectors[:i] + (target,) + vectors[i + 1 :])
        m = _round_half_toward_zero(num if d > 0 else -num, abs(d))
        w0 = [x - m * y for x, y in zip(w0, vectors[i])]
    g = gcd(*w0)
    return k, tuple(x // g for x in w0)


def test_descent_vector_matches_lattice_solver_reference():
    rng = random.Random(7177)
    picked = set()
    done = 0
    while done < 600:
        n = rng.randint(2, 4)
        bound = rng.choice((3, 9, 30))
        vectors = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
        )
        d = bareiss_det(vectors)
        if abs(d) <= 1:
            continue
        done += 1
        k, want = _descent_vector_reference(vectors, d)
        picked.add(k)
        w, dets = _descent_vector(vectors)
        assert w == want, vectors
        # each child determinant, read by multilinearity, against elimination
        assert dets == [bareiss_det(vectors[:i] + (w,) + vectors[i + 1 :]) for i in range(n)], vectors
    # e_0 (and e_0, e_1) lie in some of the lattices, so later e_k get picked
    assert picked >= {0, 1, 2}


def test_member_contains_matches_lattice_solver():
    rng = random.Random(3301)
    seen = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(2, 5)
        member = row_hnf(random_unimodular_basis(n, rng)[: rng.randint(1, n - 1)])
        solver = _column_solver(member)
        for _ in range(8):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in member]
                v = tuple(sum(c * row[t] for c, row in zip(coeffs, member)) for t in range(n))
            else:
                v = tuple(rng.randint(-3, 3) for _ in range(n))
            want = solver.solve({i: x for i, x in enumerate(v) if x}) is not None
            # a saturated member contains v exactly when v adds no rank
            assert (rank_rows(member + (v,)) == len(member)) == want, (member, v)
            seen[want] += 1
    assert min(seen.values()) > 300


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
def test_ash_rudolph_2x2_property(flat):
    vecs = [tuple(flat[:2]), tuple(flat[2:])]
    if not any(vecs[0]) or not any(vecs[1]):
        return
    out = ash_rudolph(vecs)
    assert _eval_combination(out) == apartment_eval(vecs)


def test_ragged_symbols_are_rejected():
    cases = [
        ([(1, 0), (1,)], "lines of unequal length"),
        ([(1, 2, 3), (0, 1), (1, 0, 0)], "lines of unequal length"),
        # n lines of one length m != n: too few lines, and too many
        ([(1, 0, 0), (0, 1, 0)], "2 lines in Z\\^3"),
        ([(1, 0), (0, 1), (1, 1)], "3 lines in Z\\^2"),
        ([(2, 3, 5)], "1 lines in Z\\^3"),
    ]
    for symbol, message in cases:
        for question in (apartment_eval, ash_rudolph, reduce_and_verify):
            with pytest.raises(ValueError, match=message):
                question(symbol)


def test_empty_symbol_is_rejected():
    with pytest.raises(ValueError, match="empty apartment symbol"):
        apartment_eval([])
    with pytest.raises(ValueError, match="empty apartment symbol"):
        reduce_and_verify([])
    with pytest.raises(ValueError, match="empty symbol"):
        byk_delta(())


def test_byk_delta_rank2():
    d = byk_delta(((1, 0), (0, 1), (1, 1)))
    assert d == {
        ((0, 1), (1, 1)): 1,
        ((1, 0), (1, 1)): -1,
        ((0, 1), (1, 0)): -1,
    }
    with pytest.raises(DegreeZero):
        byk_delta(((1, 0), (0, 1)))


def _x1_shapes(basis):
    n = len(basis)
    shapes = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            extra = tuple(e1 * a + e2 * b for a, b in zip(basis[0], basis[1]))
            shapes.append(tuple(basis) + (extra,))
    if n >= 3:
        for e1 in (1, -1):
            for e2 in (1, -1):
                for e3 in (1, -1):
                    extra = tuple(
                        e1 * a + e2 * b + e3 * c
                        for a, b, c in zip(basis[0], basis[1], basis[2])
                    )
                    shapes.append(tuple(basis) + (extra,))
    return shapes


def _x2_shapes(basis):
    n = len(basis)

    def comb(idx, signs):
        return tuple(
            sum(s * basis[i][t] for i, s in zip(idx, signs)) for t in range(n)
        )

    shapes = []
    for e in ((1, 1, 1), (1, -1, 1), (-1, 1, -1)):
        shapes.append(
            tuple(basis) + (comb((0, 1), e[:2]), comb((0, 1, 2), e))
        )
    if n >= 4:
        shapes.append(tuple(basis) + (comb((0, 1), (1, 1)), comb((2, 3), (1, -1))))
    if n >= 5:
        shapes.append(
            tuple(basis) + (comb((0, 1, 2), (1, 1, -1)), comb((3, 4), (1, 1)))
        )
    if n >= 6:
        shapes.append(
            tuple(basis)
            + (comb((0, 1, 2), (1, 1, 1)), comb((3, 4, 5), (1, -1, 1)))
        )
    return shapes


def test_psi_delta_vanishes_on_x1_shapes():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(5):
            basis = random_unimodular_basis(n, rng)
            for lines in _x1_shapes(basis):
                assert byk_psi(byk_delta(lines)) == {}


def test_delta_delta_and_psi_on_x2_shapes():
    rng = random.Random(9)
    for n in (3, 4, 5, 6):
        basis = random_unimodular_basis(n, rng)
        for lines in _x2_shapes(basis):
            first = byk_delta(lines)
            assert byk_delta_combination(first) == {}
            for key in first:
                assert byk_psi(byk_delta(key)) == {}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_x1_images_evaluate_each_symbol_once_per_basis(monkeypatch, n, seed):
    calls = []

    def counted(symbol, spans=None):
        calls.append(symbol.lines)
        return apartment_eval(symbol, spans)

    rng = random.Random(seed + n)
    for _ in range(4):
        basis = random_unimodular_basis(n, rng)
        instances = reports._x1_instances(n, basis)
        calls.clear()
        monkeypatch.setattr(zsymbols, "apartment_eval", counted)
        images = reports._x1_images(n, basis)
        monkeypatch.undo()
        # distinct instances that share deletion terms: one evaluation per distinct term
        assert len(set(instances)) == len(instances)
        terms = {key for lines in instances for key in byk_delta(lines)}
        assert len(calls) == len(set(calls)) and set(calls) == terms
        assert len(calls) < sum(len(byk_delta(lines)) for lines in instances)
        # each instance's image is listed for eps and for -eps
        assert images == [byk_psi(byk_delta(lines)) for lines in instances for _ in (1, -1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_x1_images_delta_each_distinct_instance_once(monkeypatch, n):
    calls = []

    def counted(lines, spans=None):
        calls.append(lines)
        return byk_delta(lines, spans)

    monkeypatch.setattr(zsymbols, "byk_delta", counted)
    rng = random.Random(3 + n)
    for _ in range(3):
        basis = random_unimodular_basis(n, rng)
        instances = reports._x1_instances(n, basis)
        calls.clear()
        images = reports._x1_images(n, basis)
        # one instance per pair eps, -eps, and every sign pattern's lines among them
        every = [
            partsix.shape_lines(shape, n, eps, basis)[0]
            for shape in ("x1-i", "x1-ii")
            if n >= partsix.shape_arity(shape)
            for eps in product((1, -1), repeat=partsix.shape_arity(shape))
        ]
        assert len(set(instances)) == len(instances) == len(every) // 2
        assert set(instances) == set(every)
        assert calls == instances
        # one image per sign pattern, in equal pairs
        assert len(images) == len(every)
        assert images[::2] == images[1::2]


def test_x1_zero_counts_a_planted_image_once_per_instance(monkeypatch):
    n, seed = 3, 11
    basis = random_unimodular_basis(n, random.Random(seed + n))
    instances = reports._x1_instances(n, basis)
    planted = instances[0]
    assert instances.count(planted) == 1

    def planting(lines, spans=None):
        # the basis alone is unimodular, so it evaluates to a nonzero chain;
        # it is planted normalized and sorted, as byk_delta returns its terms
        basis_key = canonical_generator([normalize_line(v)[0] for v in lines[:n]])[0]
        return {basis_key: 1} if lines == planted else byk_delta(lines, spans)

    monkeypatch.setattr(zsymbols, "byk_delta", planting)
    spec = next(s for s in reports._suite_bykovskii(seed, 1) if s.description.endswith("(n=3)"))
    # one instance, imaged once, fails for both of its sign patterns
    assert spec.compute() == 2


def _deletions_by_rank(rows, rank):
    # every deletion tested by its own echelon rank, not by one shared kernel
    out = {}
    if len(rows) <= rank:
        return out
    for j in range(len(rows)):
        rem = rows[:j] + rows[j + 1 :]
        if rank_rows(rem) < rank:
            continue
        tokens, sign = canonical_generator(rem)
        if sign:
            add_term(out, tokens, (-1) ** j * sign)
    return out


def test_byk_delta_and_block_delta_match_rank_test():
    rng = random.Random(1515)
    dropped = 0
    for shape in partsix.SHAPES:
        arity = partsix.shape_arity(shape)
        for n in range(max(arity, 2), max(arity, 2) + 2):
            for eps in list(product((1, -1), repeat=arity))[:4]:
                basis = random_unimodular_basis(n, rng)
                lines = partsix.shape_lines(shape, n, eps, basis)[0]
                if len(lines) == n:
                    continue
                got = byk_delta(lines)
                assert got == _deletions_by_rank(lines, n)
                dropped += len(lines) - len(got)
                # blocks of every rank, up to one row past a frame, where a
                # deletion can lose rank
                for size in range(2, n + 2):
                    for block in combinations(lines, size):
                        assert partsix.block_delta(block) == _deletions_by_rank(block, rank_rows(block))
    # deletions that lose rank occur and are dropped
    assert dropped


# n + 1 lines built by hand: a repeated line (its two deletions cancel), a
# coloop (the deletion of (0, 0, 1) is dependent), rank < n (nothing kept)
HAND_BUILT_X1 = [
    ((1, 0), (-2, 0), (0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 1, 0), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)),
    ((2, -1, 0), (0, 1, 0), (1, 0, 0), (0, 0, -3)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)),
    ((1, 2), (2, 4), (-3, -6)),
]


def test_byk_delta_by_keys_matches_the_rank_test_on_n_plus_one_lines():
    rng = random.Random(3030)
    for n in range(2, 6):
        shared: dict = {}
        for _ in range(3):
            basis = random_unimodular_basis(n, rng)
            for lines in reports._x1_instances(n, basis):
                expected = _deletions_by_rank(lines, n)
                assert byk_delta(lines) == expected, lines
                assert byk_delta(lines, {}) == expected, lines
                assert byk_delta(lines, shared) == expected, lines
    for lines in HAND_BUILT_X1:
        n = len(lines[0])
        expected = _deletions_by_rank(tuple(normalize_line(v)[0] for v in lines), n)
        assert byk_delta(lines) == expected, lines
    # the coloop's deletion is dropped and the other three are kept
    coloop = HAND_BUILT_X1[2]
    got = byk_delta(coloop)
    assert len(got) == 3 and canonical_generator(coloop[:3])[0] not in got
    assert byk_delta(HAND_BUILT_X1[4]) == {} and byk_delta(HAND_BUILT_X1[5]) == {}


def test_byk_delta_leaves_every_kept_terms_key_in_spans():
    rng = random.Random(77)
    for n in range(2, 5):
        basis = random_unimodular_basis(n, rng)
        spans: dict = {}
        for lines in reports._x1_instances(n, basis) + [v for v in HAND_BUILT_X1 if len(v[0]) == n]:
            for key in byk_delta(lines, spans):
                assert spans[key] is not None, key


def test_byk_delta_refuses_ragged_lines_on_both_paths():
    for lines in (
        ((1, 0), (0, 1), (1, 1, 0)),  # n + 1 lines: the key path
        ((1, 0), (0, 1), (1, 1), (1, -1, 0)),  # n + 2 lines: the kernel path
        ((1, 0, 0), (0, 1), (1, 1)),  # too few lines for Z^3 as well
    ):
        with pytest.raises(ValueError, match="^ragged rows$"):
            byk_delta(lines)


def test_x1_check_builds_no_kernel_and_each_x2_instance_one(monkeypatch):
    built = []

    class Counted(snf._ColumnEngine):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(snf, "_ColumnEngine", Counted)
    rng = random.Random(8)
    for n in (2, 3, 4):
        basis = random_unimodular_basis(n, rng)
        assert not any(reports._x1_images(n, basis))
    specs = reports._suite_bykovskii(1, 2)
    for spec in specs[:-1]:
        assert spec.compute() == 0
    assert built == []
    # the engines built so far, read as each x2 instance is drawn and at the end
    marks = []
    instances = reports._x2_instances

    def marked(rng):
        for lines in instances(rng):
            marks.append(len(built))
            yield lines
        marks.append(len(built))

    monkeypatch.setattr(reports, "_x2_instances", marked)
    assert specs[-1].compute() == specs[-1].expected
    assert len(marks) == 21
    assert [b - a for a, b in zip(marks, marks[1:])] == [1] * 20


def test_recognize_apf(monkeypatch):
    # paper-shaped block: triple augmented by its pair and triple lines
    lines = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, -1, 1))
    cert = recognize_apf(lines)
    assert cert is not None
    assert len(cert.frame) == 3
    assert any(len(item.lines) == 2 for item in cert.items)
    # a non-summand pair is not an augmented partial frame
    assert recognize_apf(((1, 0), (1, 2))) is None
    # repeats are never augmented partial frames
    assert recognize_apf(((1, 0), (1, 0), (0, 1))) is None
    # the search is bounded by its 2^L frame candidates, not by the rank
    assert recognize_apf(((1,) * 7,)) == ApfCertificate(((1,) * 7,), ())
    monkeypatch.setattr(complexes, "CELL_BUDGET", 7)
    with pytest.raises(BudgetExceeded, match="^8 frame candidates exceed budget 7$"):
        recognize_apf(((3, 1), (2, 1), (5, 2)))


def certificate_lines(cert: ApfCertificate) -> list[tuple[int, ...]]:
    """Normalized lines a certificate generates, frame first, after checking
    that its items are well formed: two or three members with signs +-1,
    disjoint frame positions, and covered lines equal to those rebuilt from
    the members and signs, the pair line first when three members cover
    two lines."""
    used = [p for item in cert.items for p in item.members]
    assert len(used) == len(set(used)), cert
    assert all(0 <= p < len(cert.frame) for p in used), cert
    out = [normalize_line(v)[0] for v in cert.frame]
    for item in cert.items:
        assert len(item.members) == len(item.signs) in (2, 3), item
        assert set(item.signs) <= {1, -1}, item
        assert len(item.lines) == 1 or len(item.members) == len(item.lines) + 1 == 3, item
        signed = [tuple(s * x for x in cert.frame[p]) for p, s in zip(item.members, item.signs)]
        rebuilt = [normalize_line(tuple(map(sum, zip(*signed))))[0]]
        if len(item.lines) == 2:
            rebuilt.insert(0, normalize_line(tuple(map(sum, zip(*signed[:2]))))[0])
        assert list(item.lines) == rebuilt, item
        out += rebuilt
    return out


def test_recognize_apf_certificates_reproduce_lines():
    rng = random.Random(1616)
    checked = 0
    for shape in partsix.SHAPES:
        arity = partsix.shape_arity(shape)
        for n in range(max(arity, 1), 6):
            for eps in product((1, -1), repeat=arity):
                for basis in (None, random_unimodular_basis(n, rng)):
                    lines = tuple(partsix.shape_lines(shape, n, eps, basis)[0])
                    cert = recognize_apf(lines)
                    assert cert is not None, (shape, n, eps, basis)
                    assert sorted(certificate_lines(cert)) == sorted(lines)
                    assert is_saturated_rows(cert.frame)
                    checked += 1
    assert checked > 200
