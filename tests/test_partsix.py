"""Block-partition complexes, the localized double complex, and the claims."""

import random
import re
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest

from titshom import partsix
from titshom.building import building_complex
from titshom.complexes import (
    ChainComplexZ,
    HomologyGroup,
    assemble_complex,
    canonical_generator,
    cycle_space,
    homology_profile,
)
from titshom.errors import (
    BudgetExceeded,
    CertificateFailure,
    IdentityViolation,
    NotSpanning,
    ShapeUnavailable,
)
from titshom.intmat import SparseIntMatrix, add_term
from titshom.partsix import (
    SHAPES,
    ZSetComplex,
    _cell_vector,
    _class_report,
    block_delta,
    cell_bar_boundary,
    cell_delta,
    kappa_eta_certificate,
    ordered_partition_count,
    part6_claims,
    random_restriction,
    restriction_units,
    shape_arity,
    shape_lines,
    verify_double_identities,
    w_poset_complex,
    x_localized,
    zcomplex,
    zcomplex_is_spherical,
    zcomplex_poset_iso,
)
from titshom.reports import run_suite
from titshom.snf import LatticeSolver
from titshom.zsymbols import normalize_line, random_unimodular_basis, recognize_apf

from oracle_linalg import bareiss_det, face_rule, line_components, poset_iso_oracle, row_hnf, saturate_rows

Z = HomologyGroup(1, ())
O = HomologyGroup(0, ())


def test_zcomplex_frozen_examples():
    zc = zcomplex("ab")
    assert zc.d == 2
    assert homology_profile(zc.cx) == {-1: O, 0: Z}

    zc = zcomplex("abc", [{"a", "b"}])
    assert zc.d == 2
    assert homology_profile(zc.cx) == {-1: O, 0: Z}

    zc = zcomplex("abc")
    assert zc.d == 3
    assert homology_profile(zc.cx) == {-1: O, 0: O, 1: Z}


def test_zcomplex_validation():
    with pytest.raises(ValueError):
        zcomplex("aab")
    with pytest.raises(ValueError):
        zcomplex("abc", [{"a", "z"}])
    with pytest.raises(ValueError):
        zcomplex("abcd", [{"a", "b"}, {"b", "c"}])
    with pytest.raises(BudgetExceeded):
        zcomplex(range(9))


def test_w_poset_complex_shape():
    wc = w_poset_complex(3)
    assert {d: wc.dim(d) for d in wc.degrees} == {-1: 1, 0: 6, 1: 6}
    assert homology_profile(wc) == {-1: O, 0: O, 1: Z}


@pytest.mark.parametrize("d, fubini", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541), (6, 4683)])
def test_w_poset_cells_count_ordered_partitions(d, fubini):
    # a chain of k proper nonempty subsets is an ordered partition of [d]
    # into k + 1 blocks, so the cells number the ordered set partitions;
    # the closed count k! * S(d, k) is checked against both enumerations
    wc = w_poset_complex(d)
    zc = zcomplex(range(d))
    assert sum(wc.dim(k) for k in wc.degrees) == fubini
    assert wc.degrees == zc.cx.degrees == list(range(-1, d - 1))
    for k in range(1, d + 1):
        assert ordered_partition_count(d, k) == wc.dim(k - 2) == zc.cx.dim(k - 2)


def _broken_copy(zc, degree, edit):
    """zc with one degree's basis and boundary columns edited, left unchecked."""
    basis = {d: list(b) for d, b in zc.cx.basis.items()}
    boundary = dict(zc.cx.boundary)
    cols = [dict(col) for col in zc.cx.boundary_at(degree).cols]
    edit(basis[degree], cols)
    boundary[degree] = SparseIntMatrix(zc.cx.dim(degree - 1), len(cols), cols)
    cx = ChainComplexZ(basis, boundary)
    return ZSetComplex(zc.labels, zc.units, zc.d, cx)


def _drop_last(labels, cols):
    labels.pop()
    cols.pop()


def _negate_one(labels, cols):
    row = min(cols[0])
    cols[0][row] = -cols[0][row]


def _duplicate_first(labels, cols):
    labels[1] = labels[0]
    cols[1] = dict(cols[0])


def _empty_block(labels, cols):
    labels[0] = ((),) + labels[0]


def _repeat_label(labels, cols):
    # same units, and no inversion from the copy: a sign by inversions alone misses it
    first = labels[0][0]
    labels[0] = ((first[0],) + first,) + labels[0][1:]


def _split_unit(labels, cols):
    # the first block's last label moves into the second, so two blocks share its unit
    lab = labels[0]
    labels[0] = (lab[0][:-1], lab[0][-1:] + lab[1]) + lab[2:]


def _negate_column(labels, cols):
    cols[0] = {r: -v for r, v in cols[0].items()}


@pytest.mark.parametrize(
    "labels, rsets, degree, edit, message",
    [
        ("abc", (), 1, _drop_last, "not onto"),
        ("abcd", ({"a", "b"},), 0, _drop_last, "not onto"),
        ("abc", (), 1, _negate_one, "fails to commute"),
        ("abcd", (), 2, _negate_one, "fails to commute"),
        ("abc", (), 0, _duplicate_first, "not injective"),
        ("abcd", ({"a", "b"},), 1, _duplicate_first, "not injective"),
        ("abc", (), 0, _empty_block, "not a strict chain"),
        ("abc", (), 0, _repeat_label, "not a strict chain"),
        ("abcd", ({"a", "b"},), 1, _split_unit, "not a strict chain"),
        ("abcd", (), 1, _negate_column, "fails to commute"),
    ],
    ids=[
        "drop-top",
        "drop-0",
        "negate-top",
        "negate-top-d4",
        "duplicate-0",
        "duplicate-top",
        "empty-block",
        "repeat-label",
        "shared-unit",
        "negate-column",
    ],
)
def test_zcomplex_poset_iso_rejects_broken_copies(labels, rsets, degree, edit, message):
    # hand-built copies skip assemble_complex, so its d o d check cannot
    # fire first; the isomorphism check alone must catch each defect
    zc = zcomplex(labels, rsets)
    zcomplex_poset_iso(zc)
    with pytest.raises(IdentityViolation, match=message):
        zcomplex_poset_iso(_broken_copy(zc, degree, edit))


def test_zcomplex_poset_iso():
    for labels, rsets in [
        ("abc", ()),
        ("abcd", ({"a", "b"},)),
        ("abcd", ()),
        ("abcde", ({"a", "b"}, {"c", "d"})),
    ]:
        zc = zcomplex(labels, rsets)
        ranks = zcomplex_poset_iso(zc)
        assert ranks[-1] == 1
        assert zcomplex_is_spherical(zc)


def test_zcomplex_exhaustive_small():
    # every restriction shape on at most four labels, up to relabeling
    for size in range(1, 5):
        for sizes, rsets in _restriction_shapes(size):
            zc = zcomplex(range(size), rsets)
            assert zc.d == size - sum(sizes) + len(sizes)
            assert zcomplex_is_spherical(zc)
            zcomplex_poset_iso(zc)


def _restriction_shapes(size):
    """(block sizes, restriction sets) of every shape on `size` labels."""
    for sizes in _size_multisets(size):
        rsets, at = [], 0
        for k in sizes:
            rsets.append(frozenset(range(at, at + k)))
            at += k
        yield sizes, rsets


def _size_multisets(total):
    def parts(remaining, minimum):
        yield ()
        for k in range(minimum, remaining + 1):
            for rest in parts(remaining - k, k):
                yield (k,) + rest

    return sorted(set(parts(total, 1)))


def _oracle_instances():
    """Every restriction shape on at most five labels, then seeded random
    restrictions on six and seven."""
    for size in range(1, 6):
        for _, rsets in _restriction_shapes(size):
            yield zcomplex(range(size), rsets)
    rng = random.Random(22)
    for size in (6, 7):
        for _ in range(2):
            yield zcomplex(*random_restriction(size, rng))


def test_zcomplex_poset_iso_matches_sorting_oracle():
    for zc in _oracle_instances():
        assert zcomplex_poset_iso(zc) == poset_iso_oracle(zc) == {d: zc.cx.dim(d) for d in zc.cx.degrees}


def _same_complex(a: ZSetComplex, b: ZSetComplex) -> bool:
    """Equal units, d, bases and boundary columns: equal, not merely isomorphic."""
    return (
        a.units == b.units
        and a.d == b.d
        and a.cx.degrees == b.cx.degrees
        and all(a.cx.basis[deg] == b.cx.basis[deg] for deg in a.cx.degrees)
        and all(
            (a.cx.boundary_at(deg).n_rows, a.cx.boundary_at(deg).cols)
            == (b.cx.boundary_at(deg).n_rows, b.cx.boundary_at(deg).cols)
            for deg in a.cx.degrees
        )
    )


def test_singleton_restrictions_leave_the_complex_unchanged():
    # the memo key of the barset suite: restriction_units ignores one-label sets
    for size in range(1, 6):
        labels = range(size)
        for sizes, rsets in _restriction_shapes(size):
            proper = [r for r in rsets if len(r) > 1]
            every = proper + [frozenset({x}) for x in labels if not any(x in r for r in proper)]
            base = zcomplex(labels, proper)
            for variant in (rsets, every):
                zc = zcomplex(labels, variant)
                assert zc.units == restriction_units(labels, variant) == base.units
                assert _same_complex(zc, base), (sizes, variant)


@pytest.mark.parametrize(
    "labels, rsets",
    [
        ("aab", ()),
        ("abc", [{"a", "z"}]),
        ("abc", [set()]),
        ("abcd", [{"a", "b"}, {"b", "c"}]),
        ("abcd", [{"a"}, {"a"}]),
    ],
)
def test_restriction_units_raises_what_zcomplex_raises(labels, rsets):
    with pytest.raises(ValueError) as direct:
        restriction_units(labels, rsets)
    with pytest.raises(ValueError) as built:
        zcomplex(labels, rsets)
    assert str(direct.value) == str(built.value)


def _barset_by_direct_loop(n, seed, count, is_spherical):
    """The barset counts with every instance built and checked, no memo."""
    def check(zc) -> bool:
        if not is_spherical(zc):
            return False
        zcomplex_poset_iso(zc)
        return True

    instances = [zcomplex(range(size), rsets) for size in range(1, n + 1) for _, rsets in _restriction_shapes(size)]
    exhaustive = {"instances": len(instances), "failures": sum(not check(zc) for zc in instances)}
    rng = random.Random(seed)
    drawn = [zcomplex(*random_restriction(n + 2, rng)) for _ in range(count)]
    return [exhaustive, {"instances": count, "failures": sum(not check(zc) for zc in drawn)}]


def _planted_failure(zc) -> bool:
    """`zcomplex_is_spherical`, except that a complex on an even number of
    labels fails, so that failures are counted too: among them are unit
    partitions that recur (every label alone) and ones whose d a passing
    complex shares."""
    return zcomplex_is_spherical(zc) and len(zc.labels) % 2 == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("is_spherical", [zcomplex_is_spherical, _planted_failure])
def test_barset_counts_match_a_direct_loop(monkeypatch, n, seed, is_spherical):
    want = _barset_by_direct_loop(n, seed, 6, is_spherical)
    built = []

    def counted(labels, restriction=()):
        zc = zcomplex(labels, restriction)
        built.append(zc.units)
        return zc

    monkeypatch.setattr(partsix, "zcomplex", counted)
    monkeypatch.setattr(partsix, "zcomplex_is_spherical", is_spherical)
    report = run_suite("barset", {"n": n, "seed": seed, "count": 6})
    assert [c.computed for c in report.checks] == want
    if is_spherical is _planted_failure and n >= 2:
        assert want[0]["failures"]
    # each distinct unit partition is built once for both checks together
    assert sorted(built) == sorted(set(built))


def test_zcomplex_poset_iso_and_oracle_reject_sign_flips():
    # one entry of a random column negated, in a random degree with entries
    rng = random.Random(2215)
    instances = [zc for zc in _oracle_instances() if zc.d >= 2]
    for _ in range(60):
        zc = rng.choice(instances)
        degree = rng.randrange(0, zc.d - 1)
        c = rng.randrange(zc.cx.dim(degree))

        def flip(labels, cols):
            row = rng.choice(sorted(cols[c]))
            cols[c][row] = -cols[c][row]

        broken = _broken_copy(zc, degree, flip)
        for check in (zcomplex_poset_iso, poset_iso_oracle):
            with pytest.raises(IdentityViolation, match="fails to commute"):
                check(broken)


def test_zcomplex_random_instances():
    rng = random.Random(5)
    for size in (5, 6, 7):
        for _ in range(3):
            labels, rsets = random_restriction(size, rng)
            assert any(len(r) >= 2 for r in rsets)
            zc = zcomplex(labels, rsets)
            assert zcomplex_is_spherical(zc)
            zcomplex_poset_iso(zc)


def test_random_restriction_needs_two_labels():
    rng = random.Random(0)
    for size in (1, 0, -3):
        with pytest.raises(ValueError, match=f"size={size}"):
            random_restriction(size, rng)
    labels, rsets = random_restriction(2, rng)
    assert labels == (0, 1) and rsets == (frozenset({0, 1}),)


@pytest.mark.parametrize(
    "labels, rsets",
    [("abcd", ()), (range(5), [{0, 1}, {2, 3}]), (range(6), [{4, 1, 3}])],
)
def test_zcomplex_sorts_blocks_once_per_partition(labels, rsets):
    # the same generators as sorting every permutation's blocks anew
    zc = zcomplex(labels, rsets)
    want = {}
    for part in partsix._unordered_partitions(zc.units):
        for order in permutations(part):
            blocks = tuple(tuple(sorted(x for unit in blk for x in unit)) for blk in order)
            want.setdefault(len(blocks) - 2, []).append(blocks)
    assert zc.cx.basis == {d: sorted(gens) for d, gens in want.items()}


def _decomposes(blocks, n, spans):
    for b in blocks:
        if b not in spans:
            spans[b] = saturate_rows(b)
    stacked = [row for b in blocks for row in spans[b]]
    return len(stacked) == n and abs(bareiss_det(stacked)) == 1


def _sorting_merge_rule(cell):
    out = {}
    for j in range(len(cell) - 1):
        merged, sign = canonical_generator(cell[j] + cell[j + 1])
        if sign:
            add_term(out, cell[:j] + (merged,) + cell[j + 2 :], (-1) ** j * sign)
    return out


def _x_localized_all_partitions(lines):
    """The localized complex from every partition of the lines, each kept
    when its block spans decompose Z^n, merged by sorting the concatenation."""
    normalized = tuple(sorted(normalize_line(v)[0] for v in lines))
    n = len(normalized[0])
    bases, spans = {}, {}
    for part in partsix._unordered_partitions(normalized):
        if _decomposes(part, n, spans):
            bases.setdefault(len(part) - 2, []).extend(permutations(part))
    return assemble_complex({d: sorted(g) for d, g in bases.items()}, _sorting_merge_rule)


@pytest.mark.parametrize("shape", [s for s in SHAPES if shape_arity(s) <= 5])
def test_x_localized_components_match_all_partitions(shape):
    # every rank up to 5 and sign pattern, at the identity and a seeded basis
    arity = shape_arity(shape)
    for n in range(max(arity, 1), 6):
        rng = random.Random(f"{shape}-{n}")
        for eps in product((1, -1), repeat=arity):
            for basis in (None, random_unimodular_basis(n, rng)):
                lines, _ = shape_lines(shape, n, eps, basis)
                got, want = x_localized(lines), _x_localized_all_partitions(lines)
                assert got.basis == want.basis, (n, eps, basis)
                for d in want.degrees:
                    assert got.boundary_at(d).cols == want.boundary_at(d).cols, (n, eps, basis, d)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_coarsening_of_line_components_decomposes(shape):
    # the theorem in x_localized's docstring, at every rank up to 6 and sign
    # pattern, at the identity and a seeded basis; x2-iv needs rank 6
    arity = shape_arity(shape)
    spans = {}
    for n in range(max(arity, 1), 7):
        rng = random.Random(f"{shape}-{n}")
        for eps in product((1, -1), repeat=arity):
            for basis in (None, random_unimodular_basis(n, rng)):
                lines, _ = shape_lines(shape, n, eps, basis)
                normalized = tuple(sorted(normalize_line(v)[0] for v in lines))
                for part in partsix._unordered_partitions(line_components(normalized)):
                    blocks = [tuple(sorted(x for comp in blk for x in comp)) for blk in part]
                    assert _decomposes(blocks, n, spans), (n, eps, basis, blocks)


def test_line_components_hand_cases():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert line_components((e3, e2, e1, (1, 1, 0))) == ((e3,), (e2, e1, (1, 1, 0)))
    assert line_components((e1, e2, e3)) == ((e1,), (e2,), (e3,))
    # one line in the span of all three joins every coordinate
    assert line_components((e1, e2, e3, (1, 1, 1))) == ((e1, e2, e3, (1, 1, 1)),)


def _units(cx: ChainComplexZ) -> set:
    """The units of a localized complex: the blocks of its finest cell."""
    return set(cx.basis[max(cx.degrees)][0])


@pytest.mark.parametrize("shape", list(SHAPES))
def test_certificate_units_are_line_components(shape):
    # every rank up to 6 and sign pattern, at the identity and a seeded basis
    arity = shape_arity(shape)
    for n in range(max(arity, 1), 7):
        rng = random.Random(f"units-{shape}-{n}")
        for eps in product((1, -1), repeat=arity):
            for basis in (None, random_unimodular_basis(n, rng)):
                lines, _ = shape_lines(shape, n, eps, basis)
                normalized = tuple(sorted(normalize_line(v)[0] for v in lines))
                want = {tuple(sorted(comp)) for comp in line_components(normalized)}
                assert _units(x_localized(lines)) == want, (n, eps, basis)


def test_certificate_units_hand_cases():
    e1, e2, e3, e4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    # a frame line that no item uses is a unit alone
    pair = (1, 1, 0, 0)
    assert _units(x_localized((e1, e2, e3, e4, pair))) == {(e3,), (e4,), tuple(sorted((e1, e2, pair)))}
    # one item covers a pair line and a triple line on shared members
    pair_line, triple_line = (1, -1, 0, 0), (1, -1, 1, 0)
    cx = x_localized((e1, e2, e3, e4, pair_line, triple_line))
    assert _units(cx) == {(e4,), tuple(sorted((e1, e2, e3, pair_line, triple_line)))}
    # a pair on a basis other than the identity
    b1, b2, b3 = (1, 2, 0), (0, 1, 0), (0, 3, 1)
    b13 = normalize_line(tuple(x - y for x, y in zip(b1, b3)))[0]
    assert _units(x_localized((b1, b2, b3, b13))) == {(b2,), tuple(sorted((b1, b3, b13)))}


def test_x_localized_frame_matches_zcomplex():
    lines = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    cx = x_localized(lines)
    zc = zcomplex(range(3))
    assert {d: cx.dim(d) for d in cx.degrees} == {-1: 1, 0: 6, 1: 6}
    assert homology_profile(cx) == homology_profile(zc.cx)


@pytest.mark.parametrize(
    "cx, rule",
    [
        (zcomplex("abcd").cx, cell_bar_boundary),
        (zcomplex(range(5), [{0, 1}, {2, 3}]).cx, cell_bar_boundary),
        (x_localized(shape_lines("x1-ii", 3, (1, -1, 1))[0]), cell_bar_boundary),
        (x_localized(shape_lines("x2-i", 3, (1, 1, -1))[0]), cell_bar_boundary),
        (building_complex(3, 2), face_rule),
        (building_complex(3, 3), face_rule),
    ],
    ids=["z4", "z5-restricted", "x1-ii", "x2-i", "building-3-2", "building-3-3"],
)
def test_assembled_columns_are_the_merge_differential(cx, rule):
    # every column of the assembled boundary is the rule's chain, as is
    for d in cx.degrees:
        lower = cx.basis.get(d - 1, [])
        for lab, col in zip(cx.basis[d], cx.boundary_at(d).cols):
            assert {lower[i]: v for i, v in col.items()} == rule(lab)


def test_x_localized_validation():
    with pytest.raises(ValueError):
        x_localized(())
    with pytest.raises(NotSpanning):
        x_localized(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        x_localized(((1, 0), (-1, 0), (0, 1)))  # same line twice
    with pytest.raises(ValueError):
        x_localized(((1, 0), (0, 1), (1, 2)))  # (1,2) is no unit combination


def test_block_delta_frozen():
    block = ((0, 1), (1, 0), (1, 1))
    assert block_delta(block) == {
        ((1, 0), (1, 1)): 1,
        ((0, 1), (1, 1)): -1,
        ((0, 1), (1, 0)): 1,
    }
    # frames have nothing to delete
    assert block_delta(((0, 1), (1, 0))) == {}


def test_cell_ops_frozen():
    two = (((0, 1),), ((1, 0),))
    merged = cell_bar_boundary(two)
    assert merged == {(((0, 1), (1, 0)),): 1}
    flipped = cell_bar_boundary((((1, 0),), ((0, 1),)))
    assert flipped == {(((0, 1), (1, 0)),): -1}
    # deletion acts in the second slot with the parity of the first block
    cell = (((1, 0, 0),), ((0, 0, 1), (0, 1, 0), (0, 1, 1)))
    terms = cell_delta(cell)
    assert terms == {
        (((1, 0, 0),), ((0, 1, 0), (0, 1, 1))): -1,
        (((1, 0, 0),), ((0, 0, 1), (0, 1, 1))): 1,
        (((1, 0, 0),), ((0, 0, 1), (0, 1, 0))): -1,
    }


def test_double_complex_identities():
    out = verify_double_identities(samples=60, seed=11)
    assert out["ok"] and out["cells"] == 60 and out["leibniz"] > 0


@pytest.mark.parametrize("seed", range(5))
def test_memoized_block_delta_matches_block_delta(monkeypatch, seed):
    drawn = []
    draw = partsix._random_valid_cell

    def recorded(lines, groups, rng):
        drawn.append(draw(lines, groups, rng))
        return drawn[-1]

    monkeypatch.setattr(partsix, "_random_valid_cell", recorded)
    verify_double_identities(80, seed)
    monkeypatch.undo()
    assert len(drawn) == 80
    delta = lru_cache(maxsize=None)(block_delta)
    for cell in drawn:
        # the cell, then every face that the squared and mixed checks reach
        for c in (cell, *cell_delta(cell), *cell_bar_boundary(cell)):
            assert cell_delta(c, delta) == cell_delta(c), c
    # shared blocks were read from the memo
    assert delta.cache_info().hits


def _frame(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# tag -> (rank, [(eps, augmenting lines, groups)]) at the identity basis
SHAPE_CATALOGUE = {
    "x0": (3, [((), (), ((0,), (1,), (2,)))]),
    "x1-i": (2, [
        ((1, 1), ((1, 1),), ((0, 1, 2),)),
        ((1, -1), ((1, -1),), ((0, 1, 2),)),
    ]),
    "x1-ii": (3, [
        ((1, 1, 1), ((1, 1, 1),), ((0, 1, 2, 3),)),
        ((1, -1, 1), ((1, -1, 1),), ((0, 1, 2, 3),)),
    ]),
    "x2-i": (3, [
        ((1, 1, 1), ((1, 1, 0), (1, 1, 1)), ((0, 1, 2, 3, 4),)),
        ((1, -1, 1), ((1, -1, 0), (1, -1, 1)), ((0, 1, 2, 3, 4),)),
    ]),
    "x2-ii": (4, [
        ((1, 1, 1, 1), ((1, 1, 0, 0), (0, 0, 1, 1)), ((0, 1, 4), (2, 3, 5))),
        ((1, -1, 1, -1), ((1, -1, 0, 0), (0, 0, 1, -1)), ((0, 1, 4), (2, 3, 5))),
    ]),
    "x2-iii": (5, [
        ((1, 1, 1, 1, 1), ((1, 1, 1, 0, 0), (0, 0, 0, 1, 1)), ((0, 1, 2, 5), (3, 4, 6))),
        ((1, -1, 1, -1, 1), ((1, -1, 1, 0, 0), (0, 0, 0, 1, -1)), ((0, 1, 2, 5), (3, 4, 6))),
    ]),
    "x2-iv": (6, [
        ((1, 1, 1, 1, 1, 1), ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)), ((0, 1, 2, 6), (3, 4, 5, 7))),
        ((1, -1, 1, -1, 1, -1), ((1, -1, 1, 0, 0, 0), (0, 0, 0, 1, -1, 1)), ((0, 1, 2, 6), (3, 4, 5, 7))),
    ]),
}


@pytest.mark.parametrize("shape", list(SHAPE_CATALOGUE))
def test_shape_lines_and_availability(shape):
    n, cases = SHAPE_CATALOGUE[shape]
    for eps, extra, groups in cases:
        assert shape_lines(shape, n, eps) == (_frame(n) + extra, groups)
        with pytest.raises(ValueError):
            shape_lines(shape, n, eps + (1,))
        if extra:  # the catalogued rank is the shape's minimum
            with pytest.raises(ShapeUnavailable):
                shape_lines(shape, n - 1, eps)
    with pytest.raises(ValueError):
        shape_lines("x9", 4, (1, 1))


@pytest.mark.parametrize("shape", ["x1-i", "x1-ii"])
def test_x1_lines_are_the_same_at_eps_and_minus_eps(shape):
    # the x1 check images one sign of each pair, eps[0] = +1 (reports._x1_instances)
    rng = random.Random(31)
    arity = shape_arity(shape)
    for n in range(arity, 6):
        for basis in (None, random_unimodular_basis(n, rng)):
            for eps in product((1, -1), repeat=arity):
                flipped = tuple(-s for s in eps)
                assert shape_lines(shape, n, eps, basis) == shape_lines(shape, n, flipped, basis)


def _is_boundary_reference(cx, vec, degree):
    """Membership in the image of d_{degree+1}, solved directly in chain
    coordinates on a Hermite basis of that image."""
    dim = cx.dim(degree)
    cols = cx.boundary_at(degree + 1).cols
    rows = row_hnf([tuple(col.get(i, 0) for i in range(dim)) for col in cols])
    if not rows:
        return not vec
    image = SparseIntMatrix.from_dense([list(r) for r in rows]).transpose()
    return LatticeSolver(image).solve(vec) is not None


def _combine(*terms):
    out = {}
    for coeff, vec in terms:
        for i, v in vec.items():
            add_term(out, i, coeff * v)
    return out


def test_class_report_separates_zero_and_nonzero_classes():
    # the badcase: H_0 = Z generated by kappa, so m*kappa is zero only at m = 0
    lines, _ = shape_lines("x1-ii", 4, (1, 1, 1))
    badcase = x_localized(lines)
    rest = tuple(sorted(set(lines) - {lines[3]}))
    kappa = _cell_vector(badcase, {((lines[3],), rest): 1, (rest, (lines[3],)): -1}, 0)
    cases = [(badcase, 0, _combine((m, kappa)), m == 0, abs(m) == 1) for m in (0, 1, -1, 2, -3)]
    # the frame complex is exact below its top degree, where H_1 = Z; in an
    # exact degree the zero class generates
    frame = x_localized(_frame(3))
    d1 = frame.boundary_at(1).cols
    top = cycle_space(frame, 1).cols[0]
    cases += [
        (frame, 0, d1[0], True, True),
        (frame, 0, _combine((2, d1[0]), (-1, d1[3])), True, True),
        (frame, 1, top, False, True),
        (frame, 1, _combine((3, top)), False, False),
    ]
    # H_0 = Z/2 + Z
    torsion = ChainComplexZ({0: ["a", "b"], 1: ["x"]}, {1: SparseIntMatrix.from_dense([[2], [0]])})
    cases += [
        (torsion, 0, {0: 1}, False, False),
        (torsion, 0, {0: 2}, True, False),
        (torsion, 0, {0: -4}, True, False),
        (torsion, 0, {0: 3, 1: 1}, False, False),
        (torsion, 0, {1: 2}, False, False),
    ]
    for cx, degree, vec, zero, generates in cases:
        rep = _class_report(cx, vec, degree)
        assert rep["class_is_zero"] == zero == _is_boundary_reference(cx, vec, degree), vec
        assert rep["class_generates"] == generates, vec
    assert _class_report(badcase, kappa, 0)["homology"] == Z
    assert str(_class_report(torsion, {}, 0)["homology"]) == "Z + Z/2"


def test_part6_claims_rank_four():
    checks = part6_claims(4)
    assert [(c["claim"], c["shape"], c["eps"]) for c in checks] == [
        ("bar-partition-frame-vanishing", "x0", ())
    ] + [
        (f"localized-{shape}", shape, eps)
        for shape, arity in (("x1-i", 2), ("x1-ii", 3), ("x2-i", 3), ("x2-ii", 4))
        for eps in product((1, -1), repeat=arity)
    ]
    assert all(c["ok"] for c in checks)
    bad = [c for c in checks if "badcase" in c]
    assert len(bad) == 8
    for c in bad:
        assert c["badcase"]["homology"] == Z
        assert c["badcase"]["class_generates"]


def test_part6_claims_rank_five_and_six():
    checks = part6_claims(5, shapes=("x2-iii",))
    assert len(checks) == 32 and all(c["ok"] for c in checks)
    checks = part6_claims(6, shapes=("x2-iv",))
    assert len(checks) == 64 and all(c["ok"] for c in checks)
    with pytest.raises(ShapeUnavailable):
        part6_claims(4, shapes=("x2-iii",))
    for n in (0, -2):
        with pytest.raises(ValueError):
            part6_claims(n)


def test_part6_claims_rank_six_every_shape():
    checks = part6_claims(6)
    assert len(checks) == 133
    assert all(c["ok"] for c in checks)


def test_part6_claims_rank_seven():
    # past the rank the frame search was once capped at
    checks = part6_claims(7, ("x2-iv",))
    assert len(checks) == 64 and all(c["ok"] for c in checks)


def _two_build_check(shape, n, eps):
    """The claim from two builds: X[S] beside Z_* on the shape's groups,
    with equal dimensions and homology, Z in degree d - 2 alone. It reads
    the groups where `_shape_check` does, so a patch reaches both."""
    lines, groups = partsix.shape_lines(shape, n, eps)
    cx = x_localized(lines)
    zc = zcomplex(range(len(lines)), groups)
    prof = homology_profile(cx)
    dims = all(cx.dim(d) == zc.cx.dim(d) for d in set(cx.degrees) | set(zc.cx.degrees))
    spherical = all(h == HomologyGroup(1 if deg == zc.d - 2 else 0, ()) for deg, h in prof.items())
    return zc.d, prof, dims and prof == homology_profile(zc.cx) and spherical


@pytest.mark.parametrize("n", range(1, 7))
def test_unit_certificate_agrees_with_two_builds(n):
    # every shape and sign pattern up to rank 6
    for shape in [s for s in SHAPES if shape_arity(s) <= n]:
        for eps in product((1, -1), repeat=shape_arity(shape)):
            got = partsix._shape_check(shape, n, eps)
            d, prof, ok = _two_build_check(shape, n, eps)
            if "badcase" in got:
                ok = ok and got["badcase"]["class_generates"]
            assert got["units_match"], (shape, eps)
            assert (got["d"], got["profile"], got["ok"]) == (d, prof, ok), (shape, eps)


@pytest.mark.parametrize(
    "shape, n, eps, edit, two_builds_ok",
    [
        # x1-i's groups ((0, 1, 4), (2,), (3,)) with the first two merged
        ("x1-i", 4, (1, -1), lambda g: tuple(sorted((g[0] + g[1],) + g[2:])), False),
        # x2-ii's groups ((0, 1, 4), (2, 3, 5)) with lines 1 and 2 swapped: as
        # many units, so dimensions and homology cannot tell
        ("x2-ii", 4, (1, 1, 1, 1), lambda g: ((0, 2, 4), (1, 3, 5)), True),
    ],
    ids=["merged", "relabelled"],
)
def test_unit_certificate_refuses_groups_that_are_not_the_units(monkeypatch, shape, n, eps, edit, two_builds_ok):
    real = shape_lines

    def edited(shape, n, eps, basis=None):
        lines, groups = real(shape, n, eps, basis)
        return lines, edit(groups)

    monkeypatch.setattr(partsix, "shape_lines", edited)
    got = partsix._shape_check(shape, n, eps)
    assert not got["units_match"] and not got["ok"]
    assert _two_build_check(shape, n, eps)[2] == two_builds_ok


def test_x_localized_checks_every_union_of_components(monkeypatch):
    # the blocks of degrees -1 and 0 are every nonempty union of the
    # components, and each goes to recognize_apf
    lines, _ = shape_lines("x2-ii", 5, (1, -1, 1, 1))
    comps = line_components(tuple(sorted(lines)))
    unions = {
        tuple(sorted(x for comp in sub for x in comp))
        for k in range(1, len(comps) + 1)
        for sub in combinations(comps, k)
    }
    seen = []

    def record(block):
        seen.append(block)
        return recognize_apf(block)

    monkeypatch.setattr(partsix, "recognize_apf", record)
    x_localized(lines)
    # the whole line set twice: once as the input, once as the one block
    assert len(comps) == 3 and sorted(seen) == sorted([*unions, tuple(sorted(lines))])
    monkeypatch.setattr(partsix, "recognize_apf", lambda block: None if len(block) == 1 else recognize_apf(block))
    with pytest.raises(IdentityViolation, match=re.escape("block ((0, 0, 0, 0, 1),) is not")):
        x_localized(lines)


def test_kappa_eta_certificate_all_eps():
    for eps in product((1, -1), repeat=3):
        cert = kappa_eta_certificate(eps=eps)
        assert cert["ok"]
        assert cert["steps"][-1] == "kappa-generates"
        assert cert["badcase"]["homology"] == Z


def test_kappa_eta_certificate_random_bases():
    rng = random.Random(40)
    for _ in range(3):
        basis = random_unimodular_basis(4, rng)
        assert kappa_eta_certificate(basis=basis, eps=(1, -1, 1))["ok"]
    with pytest.raises(ValueError, match="unimodular"):
        kappa_eta_certificate(basis=((1, 0, 0, 0),) * 4)
    # the raw basis is tested, not its normalized lines: (2, 0, 0, 0) is the line of e_0
    doubled = ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="unimodular"):
        kappa_eta_certificate(basis=doubled)
    for shape in (doubled[1:], tuple(row[:3] for row in doubled), doubled + doubled[:1]):
        with pytest.raises(ValueError, match="4 x 4"):
            kappa_eta_certificate(basis=shape)


def test_kappa_eta_certificate_rejects_corruption():
    # a single two-block cell is not a merge-cycle
    block = ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0))
    cell = (block, ((0, 0, 0, 1),))
    with pytest.raises(CertificateFailure):
        kappa_eta_certificate(eta_comb={cell: 1})
    # a cycle that is not delta of anything closing up to kappa
    with pytest.raises(CertificateFailure):
        kappa_eta_certificate(eta_comb={})
