"""Bar-style resolutions of Steinberg lattices over F_q.

Degree i >= 0 carries one summand St(V_1) (x) ... (x) St(V_{i+2}) per ordered
direct-sum decomposition of F_q^n; degree -1 carries St(F_q^n) itself. Each
St(V) uses its unipotent apartment basis, and the differential merges
adjacent tensor slots by concatenating apartment line tuples, expanding the
resulting apartment class in the basis of the merged subspace.

The complex stops at degree n-2. The tensor-square term above it is not
built: exactness there means its rank is the rank of H_{n-2}, which the
homology of the complex yields directly.

The rank-2 entry (Z[chambers] (x) St)_G of GL_3(F_q) is St_B by Shapiro's
lemma (Brown, Cohomology of Groups, III.5); its pairing onto Z is written down
from opposite chambers and certified invariant, with no relation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd, prod
from typing import Iterator

from .actions import coinvariants, st_action_matrix
from .building import (
    Matrix,
    StModel,
    Subspace,
    Vector,
    apartment_class_fq,
    borel_generators,
    bruhat_witness,
    chamber_permutation,
    gl_generators,
    identity_matrix,
    rref,
    span_mask,
    steinberg,
    subspaces,
)
from .complexes import ChainComplexZ, HomologyGroup, assemble_complex, check_cells, homology_profile
from .errors import CertificateFailure, NonComplementary
from .fqfield import FieldTable, check_order, field
from .intmat import add_chain, add_term, linear_extend


def lines_to_matrix(vectors: list[Vector]) -> Matrix:
    """Matrix whose j-th column is the j-th line vector."""
    d = len(vectors)
    return tuple(tuple(vectors[j][i] for j in range(d)) for i in range(d))


def subspace_pivots(sub: Subspace) -> list[int]:
    return [next(j for j, x in enumerate(row) if x) for row in sub]


def coords_in(ft: FieldTable, sub: Subspace, v: Vector) -> Vector:
    """Coordinates of v in the echelon basis of sub (raises if v outside)."""
    coords = tuple(v[p] for p in subspace_pivots(sub))
    add, mul = ft.add, ft.mul
    recon = [0] * len(v)
    for c, row in zip(coords, sub):
        if c:
            for i, x in enumerate(row):
                if x:
                    recon[i] = add[recon[i]][mul[c][x]]
    if tuple(recon) != v:
        raise NonComplementary("vector outside subspace")
    return coords


def unit_lines(ft: FieldTable, sub: Subspace, unit: Matrix) -> list[Vector]:
    """Ambient line vectors of the apartment indexed by a unipotent matrix."""
    d = len(sub)
    add, mul = ft.add, ft.mul
    out = []
    for t in range(d):
        vec = [0] * len(sub[0])
        for s in range(d):
            c = unit[s][t]
            if c:
                row = sub[s]
                for i, x in enumerate(row):
                    if x:
                        vec[i] = add[vec[i]][mul[c][x]]
        out.append(tuple(vec))
    return out


def st_product(
    q: int, left: Subspace, right: Subspace, left_unit: int, right_unit: int, spans: dict | None = None
) -> tuple[Subspace, dict[int, int]]:
    """Concatenation product St(V) (x) St(W) -> St(V + W) on basis elements.

    Returns the merged subspace and the product's coordinates in its
    unipotent apartment basis. Raises NonComplementary if V and W overlap.
    `spans` is the span memo of `apartment_class_fq`, for vectors over F_q.
    """
    ft = field(q)
    merged = rref(ft, list(left) + list(right))
    if len(merged) != len(left) + len(right):
        raise NonComplementary("summands overlap")
    lines = unit_lines(ft, left, steinberg(len(left), q).units[left_unit])
    lines += unit_lines(ft, right, steinberg(len(right), q).units[right_unit])
    coord_lines = [coords_in(ft, merged, v) for v in lines]
    st = steinberg(len(merged), q)
    return merged, st.to_st_coords(apartment_class_fq(st, lines_to_matrix(coord_lines), spans))


def ordered_decompositions(n: int, q: int, parts: int) -> list[tuple[Subspace, ...]]:
    """All ordered tuples of subspaces with V_1 + ... + V_parts = F_q^n direct:
    each meets the sum of those before it trivially, by `span_mask`, and that
    sum is echelonized only while slots remain to fill."""
    ft = field(q)
    pools = {d: [(sub, span_mask(ft, sub)) for sub in subspaces(n, q, d)] for d in range(1, n + 1)}
    mask_of = {sub: m for pool in pools.values() for sub, m in pool}
    out: list[tuple[Subspace, ...]] = []

    def extend(prefix: tuple[Subspace, ...], total: Subspace, used: int, left: int) -> None:
        m = mask_of.get(total, 1)
        if left == 1:
            out.extend(prefix + (cand,) for cand, mc in pools[n - used] if mc & m == 1)
            return
        for d in range(1, n - used - left + 2):
            for cand, mc in pools[d]:
                if mc & m == 1:
                    extend(prefix + (cand,), rref(ft, total + cand), used + d, left - 1)

    if parts >= 1:
        extend((), (), 0, parts)
    return out


def _gl_order(n: int, q: int) -> int:
    return prod(q**n - q**i for i in range(n))


def bar_cell_count(n: int, q: int, parts: int) -> int:
    """Cells of the bar complex in degree parts-2: decompositions with summand
    dimensions n_1..n_k number |GL_n| / prod |GL_{n_j}|, each with
    prod q^C(n_j, 2) unipotent basis tuples."""
    total = 0
    for cuts in combinations(range(1, n), parts - 1):
        dims = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
        count = _gl_order(n, q) // prod(_gl_order(m, q) for m in dims)
        total += count * prod(q ** comb(m, 2) for m in dims)
    return total


def bar_complex_fq(n: int, q: int) -> ChainComplexZ:
    """Bar resolution of St(F_q^n) in degrees -1..n-2.

    Degree i has one generator per ordered decomposition into i+2 summands
    (F_q^n alone in degree -1) and per choice of a unipotent basis element
    in each summand. `check_cells` runs on the `bar_cell_count` total before
    anything is enumerated.
    """
    if n < 1:
        raise ValueError(f"bar complex needs n >= 1, got n={n}")
    check_order(q)
    cells = sum(bar_cell_count(n, q, parts) for parts in range(1, n + 1))
    check_cells(cells, "bar complex cells")
    n_units = {d: len(steinberg(d, q).units) for d in range(1, n + 1)}

    bases: dict[int, list] = {}
    for parts in range(1, n + 1):
        gens: list = []
        for decomp in ordered_decompositions(n, q, parts):
            units = product(*(range(n_units[len(v)]) for v in decomp))
            gens.extend((decomp, us) for us in units)
        bases[parts - 2] = gens

    # adjacent slots recur across cells: compute (and verify) each product
    # once, and span each set of coordinate lines once across all products
    products: dict[tuple, tuple[Subspace, dict[int, int]]] = {}
    spans: dict = {}

    def rule(lab) -> dict:
        decomp, units = lab
        k = len(decomp)
        terms: dict = {}
        for j in range(k - 1):
            key = (decomp[j], decomp[j + 1], units[j], units[j + 1])
            if key not in products:
                products[key] = st_product(q, *key, spans=spans)
            merged, x = products[key]
            sign = (-1) ** j
            new_decomp = decomp[:j] + (merged,) + decomp[j + 2 :]
            for uidx, coeff in x.items():
                new_units = units[:j] + (uidx,) + units[j + 2 :]
                add_term(terms, (new_decomp, new_units), sign * coeff)
        return terms

    return assemble_complex(bases, rule)


def verify_bar_exactness(n: int, q: int) -> dict:
    """Exactness below the top degree plus the tensor-square rank on top.

    One `homology_profile` of the complex: H_d must vanish for d < n-2, and
    H_{n-2}, the kernel of the top boundary, is free of rank q^{n(n-1)}. That
    rank is also reported as the rank of the tensor-square term, degree n-1.
    """
    cx = bar_complex_fq(n, q)
    profile = homology_profile(cx)
    expected_top = q ** (n * (n - 1))
    top = profile[n - 2]
    ranks = {d: cx.dim(d) for d in cx.degrees}
    ranks[n - 1] = top.betti
    low = {d: profile[d] for d in range(-1, n - 2)}
    alt = sum((-1) ** (n - 2 - d) * cx.dim(d) for d in cx.degrees)
    ok = (
        all(h.betti == 0 and not h.torsion for h in low.values())
        and top == HomologyGroup(expected_top, ())
        and alt == expected_top
    )
    return {
        "n": n,
        "q": q,
        "ranks": ranks,
        "homology_below_top": low,
        "top_kernel_rank": top.betti,
        "expected_top_rank": expected_top,
        "alternating_sum": alt,
        "ok": ok,
    }


# -- rank-2 page of the descent spectral sequence ------------------------------


@dataclass
class Rank2Report:
    st_rank: int
    e110: HomologyGroup
    image_gcd: int
    witness_value: int
    standard_coeff: int
    surjective: bool


def opposite_chambers(st: StModel) -> Iterator[list[int]]:
    """Per chamber of GL_3, in turn, the chambers opposite it, in order:
    (L < P) and (L' < P') are opposite iff L is not in P' and L' is not in P,
    tested on the `span_mask` of each line and of the vectors outside each plane."""
    mask = {sub: span_mask(st.ft, sub) for sub in {sub for chamber in st.chambers for sub in chamber}}
    everything = (1 << st.q**3) - 1
    coded = [(mask[line], everything ^ mask[plane]) for line, plane in st.chambers]
    for lm, out in coded:
        yield [c for c, (lm2, out2) in enumerate(coded) if lm & out2 and lm2 & out]


def rank2_pairing(st: StModel) -> list[dict[int, int]]:
    """The GL_3 chamber pairing Z[chambers] (x) St -> Z, one row per chamber:
    Phi[x][j] = opp_sign * sum of A[c][j] over the chambers c opposite x, with
    A = st.basis[0]. Phi[C0] reads each class at its own opposite chamber,
    so Phi[C0][j] = 1.

    q^3 of the q^3 + 2q^2 + 2q + 1 chambers are opposite x, so each row is
    summed by complement: opp_sign times (the sum of A's rows over all
    chambers minus the sum over the chambers not opposite x)."""
    rows = st.basis[0].rows().__getitem__
    sign = st.opp_sign
    everything = set(range(len(st.chambers)))
    total = linear_extend(dict.fromkeys(everything, sign), rows)
    phi = []
    for opp in opposite_chambers(st):
        row = linear_extend(dict.fromkeys(everything.difference(opp), -sign), rows)
        add_chain(row, total, 1)
        phi.append(row)
    return phi


def rank2_e1_surjectivity(q: int) -> Rank2Report:
    """First-page surjectivity onto the chamber coinvariants for GL_3(F_q).

    G is transitive on the chambers with stabilizer B, so by Shapiro's lemma
    e110 = (Z[chambers] (x) St)_G is St_B, the coinvariants under
    `borel_generators`. `rank2_pairing` is certified invariant under
    `gl_generators` (Phi[g x] M_g = Phi[x]), so it factors through e110; with
    e110 = Z and gcd 1 over its values on the images of the tensor basis
    (St included into chamber coordinates on the left slot), it is an
    isomorphism onto Z. The identity (x) witness class must map to a unit.
    """
    st = steinberg(3, q)
    e110 = coinvariants(st.rank, [st_action_matrix(st, b) for b in borel_generators(3, q)])

    phi = rank2_pairing(st)
    for g in gl_generators(3, q):
        m_rows = st_action_matrix(st, g).rows().__getitem__
        for x, gx in enumerate(chamber_permutation(st, g)):
            if linear_extend(phi[gx], m_rows) != phi[x]:
                raise CertificateFailure("pairing-invariance")

    image_gcd = 0
    for ki in st.apartments:
        # phi paired with (apartment class i) (x) e_j, for all j
        for val in linear_extend(ki, phi.__getitem__).values():
            image_gcd = gcd(image_gcd, val)

    chain_id = apartment_class_fq(st, identity_matrix(3))
    chain_u = apartment_class_fq(st, bruhat_witness(3, q))
    x_u = st.to_st_coords(chain_u)
    witness_value = sum(vc * vj * phi[c].get(j, 0) for c, vc in chain_id.items() for j, vj in x_u.items())

    # the unipotent apartment chain carries the standard flag once
    std_idx = st.chamber_index[tuple(identity_matrix(3)[: k + 1] for k in range(2))]
    standard_coeff = chain_u.get(std_idx, 0)

    return Rank2Report(
        st_rank=st.rank,
        e110=e110,
        image_gcd=image_gcd,
        witness_value=witness_value,
        standard_coeff=standard_coeff,
        surjective=(e110 == HomologyGroup(1, ()) and image_gcd == 1 and abs(witness_value) == 1),
    )
