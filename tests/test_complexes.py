"""Chain complex assembly and homology."""

from __future__ import annotations

import pytest

from titshom.building import building_complex
from titshom.complexes import (
    ZERO_GENERATOR,
    ChainComplexZ,
    assemble_complex,
    canonical_generator,
    cycle_space,
    exactness_report,
    homology,
    homology_profile,
)
from titshom.errors import DDNotZero, DegreeOutOfRange
from titshom.intmat import SparseIntMatrix
from titshom.partsix import shape_lines, x_localized, zcomplex
from titshom.snf import rank_mod_p


def test_canonical_generator_frozen():
    got = canonical_generator(("b", "a"))
    assert got.tokens == ("a", "b") and got.sign == -1
    assert canonical_generator(("a", "a")) is ZERO_GENERATOR or canonical_generator(("a", "a")).is_zero
    got = canonical_generator(("c", "a", "b"))
    assert got.tokens == ("a", "b", "c") and got.sign == 1
    got = canonical_generator(())
    assert got.tokens == () and got.sign == 1


def triangle_circle():
    # boundary of a solid triangle: three vertices, three edges, no face
    bases = {0: ["v0", "v1", "v2"], 1: ["e01", "e02", "e12"]}

    def rule(d, lab):
        if d == 1:
            a, b = lab[1], lab[2]
            return [(-1, f"v{a}"), (1, f"v{b}")]
        return []

    return assemble_complex(bases, rule)


def test_circle_homology():
    cx = triangle_circle()
    assert homology(cx, 0).betti == 1 and homology(cx, 0).torsion == ()
    assert homology(cx, 1).betti == 1 and homology(cx, 1).torsion == ()
    assert cycle_space(cx, 1).n_cols == 1


def test_torsion_homology():
    # Z --2--> Z in degrees 1 -> 0
    bases = {0: ["x"], 1: ["y"]}
    cx = assemble_complex(bases, lambda d, lab: [(2, "x")] if d == 1 else [])
    h0 = homology(cx, 0)
    assert h0.betti == 0 and h0.torsion == (2,)
    assert str(h0) == "Z/2"
    h1 = homology(cx, 1)
    assert h1.betti == 0 and h1.torsion == ()


@pytest.mark.parametrize(
    "make",
    [
        lambda: assemble_complex({0: ["x"], 1: ["y"]}, lambda d, lab: [(2, "x")] if d == 1 else []),
        # H_0 = Z/2 + Z
        lambda: ChainComplexZ({0: ["a", "b"], 1: ["x"]}, {1: SparseIntMatrix.from_dense([[2], [0]])}),
        lambda: building_complex(3, 2),
        lambda: zcomplex(range(4)).cx,
        lambda: x_localized(shape_lines("x1-ii", 3, (1, -1, 1))[0], 1),
    ],
    ids=["z-2z", "z2-plus-z", "building-3-2", "zcomplex-4", "x1-ii-3"],
)
def test_homology_obeys_universal_coefficients_mod_p(make):
    # dim H_d(C; F_p) from the separate mod-p echelon must equal the Z
    # homology's betti number plus the torsion p divides in degrees d, d-1
    cx = make()
    prof = homology_profile(cx)
    for d in cx.degrees:
        assert homology(cx, d) == prof[d], d
        below = prof[d - 1].torsion if d - 1 in prof else ()
        for p in (2, 3, 5):
            mod_p = cx.dim(d) - rank_mod_p(cx.boundary_at(d), p) - rank_mod_p(cx.boundary_at(d + 1), p)
            divides = sum(1 for t in prof[d].torsion + below if t % p == 0)
            assert mod_p == prof[d].betti + divides, (d, p)


def test_dd_not_zero_detected():
    bases = {0: ["a"], 1: ["b"], 2: ["c"]}

    def bad(d, lab):
        if d == 1:
            return [(1, "a")]
        if d == 2:
            return [(1, "b")]
        return []

    with pytest.raises(DDNotZero) as ei:
        assemble_complex(bases, bad)
    assert ei.value.degree == 2 and ei.value.generator == "c"


def test_degree_out_of_range():
    cx = triangle_circle()
    with pytest.raises(DegreeOutOfRange):
        homology(cx, 5)


def test_exactness_report_exact_complex():
    bases = {0: ["a"], 1: ["b"]}
    cx = assemble_complex(bases, lambda d, lab: [(1, "a")] if d == 1 else [])
    rep = exactness_report(cx)
    assert rep["euler"] == 0
    assert rep["exact_at"] == [0, 1]


def test_negative_degrees_supported():
    # reduced point: empty simplex in degree -1, one vertex over it
    bases = {-1: [()], 0: [("v",)]}
    cx = assemble_complex(bases, lambda d, lab: [(1, ())] if d == 0 else [])
    assert homology(cx, -1).betti == 0
    assert homology(cx, 0).betti == 0
    assert exactness_report(cx)["euler"] == 0
