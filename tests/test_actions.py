"""Coinvariants, Steinberg action matrices, and bar group homology."""

from __future__ import annotations

from itertools import permutations

import pytest

from titshom import complexes
from titshom.actions import (
    coinvariants,
    group_homology,
    st_action_matrix,
    tensor_matrix,
    trivial_action,
)
from titshom.building import (
    borel_generators,
    gl_generators,
    identity_matrix,
    mat_mul,
    steinberg,
)
from titshom.errors import BudgetExceeded
from titshom.intmat import SparseIntMatrix

from oracle_linalg import abelian_invariants_oracle


def test_st_action_is_homomorphism():
    for n, q in [(2, 2), (3, 2), (2, 3)]:
        st = steinberg(n, q)
        g1, g2 = gl_generators(n, q)[:2]
        m1 = st_action_matrix(st, g1)
        m2 = st_action_matrix(st, g2)
        m12 = st_action_matrix(st, mat_mul(st.ft, g1, g2))
        assert m1.mul(m2) == m12, (n, q)
        assert st_action_matrix(st, identity_matrix(n)) == SparseIntMatrix.identity(st.rank)


def test_steinberg_coinvariants_gl_2_2_vanish():
    st = steinberg(2, 2)
    mats = [st_action_matrix(st, g) for g in gl_generators(2, 2)]
    h = coinvariants(st.rank, mats)
    assert h.betti == 0 and h.torsion == ()


def test_steinberg_coinvariants_borel_3_2_is_z():
    st = steinberg(3, 2)
    mats = [st_action_matrix(st, g) for g in borel_generators(3, 2)]
    h = coinvariants(st.rank, mats)
    assert h.betti == 1 and h.torsion == ()


def test_coinvariants_trivial_action():
    ident = SparseIntMatrix.identity(4)
    h = coinvariants(4, [ident])
    assert h.betti == 4 and h.torsion == ()


def test_tensor_matrix():
    a = SparseIntMatrix.from_dense([[1, 2], [0, 1]])
    b = SparseIntMatrix.from_dense([[0, 1], [1, 0]])
    t = tensor_matrix(a, b)
    assert t == SparseIntMatrix.from_dense([[0, 1, 0, 2], [1, 0, 2, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def z_mod(n: int):
    elements = list(range(n))
    return elements, lambda a, b: (a + b) % n


def test_h1_z2_is_z2():
    elements, mult = z_mod(2)
    h = group_homology(elements, mult, trivial_action(1), 1, 1)
    assert (h.betti, h.torsion) == (0, (2,))
    assert abelian_invariants_oracle([[2]], 1) == (0, [2])


def test_h1_s3_is_z2():
    elements = list(permutations(range(3)))

    def mult(a, b):  # (a*b)(i) = a(b(i))
        return tuple(a[b[i]] for i in range(3))

    h = group_homology(elements, mult, trivial_action(1), 1, 1)
    assert (h.betti, h.torsion) == (0, (2,))
    # presentation <s,t | s^2, t^2, (st)^3> abelianized
    assert abelian_invariants_oracle([[2, 0], [0, 2], [3, 3]], 2) == (0, [2])


def test_h0_is_coinvariants():
    elements, mult = z_mod(3)
    h = group_homology(elements, mult, trivial_action(2), 2, 0)
    assert (h.betti, h.torsion) == (2, ())
    # sign action of Z/2 on Z: H_0 = Z/2
    neg = SparseIntMatrix.from_dense([[-1]])
    h = group_homology([0, 1], lambda a, b: (a + b) % 2, lambda g: neg if g else SparseIntMatrix.identity(1), 1, 0)
    assert (h.betti, h.torsion) == (0, (2,))


def test_h2_klein_four_schur_multiplier():
    elements = [(a, b) for a in range(2) for b in range(2)]

    def mult(x, y):
        return ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)

    h = group_homology(elements, mult, trivial_action(1), 1, 2)
    assert (h.betti, h.torsion) == (0, (2,))


def test_h2_cyclic_vanishes():
    elements, mult = z_mod(3)
    h = group_homology(elements, mult, trivial_action(1), 1, 2)
    assert (h.betti, h.torsion) == (0, ())


def test_group_homology_budget_and_range(monkeypatch):
    elements, mult = z_mod(2)
    monkeypatch.setattr(complexes, "CELL_BUDGET", 5)
    with pytest.raises(BudgetExceeded):
        group_homology(elements, mult, trivial_action(1), 1, 2)
    with pytest.raises(ValueError):
        group_homology(elements, mult, trivial_action(1), 1, 3)
