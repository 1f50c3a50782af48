"""Finitely generated chain complexes of free Z-modules.

A complex stores one basis list per degree and one boundary matrix per
degree d (mapping degree d to degree d-1, columns indexed by the degree-d
basis). Assembly always checks boundary-squared-is-zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .errors import BudgetExceeded, DDNotZero, DegreeOutOfRange
from .intmat import SparseIntMatrix
from .snf import kernel_basis, nullity, smith_normal_form

Label = Hashable

# cells an enumeration may produce before it raises BudgetExceeded
CELL_BUDGET = 2_000_000


@dataclass(frozen=True)
class SignedCanonical:
    """Canonical sorted form of a generator word plus the sort parity."""

    tokens: tuple | None  # None encodes the zero generator (repeated token)
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.tokens is None


ZERO_GENERATOR = SignedCanonical(None, 0)


def canonical_generator(tokens: Sequence) -> SignedCanonical:
    """Sort tokens, tracking permutation parity; repeats give zero.

    Tokens must be mutually comparable. The parity is computed by counting
    inversions, so equal adjacent tokens short-circuit to zero.
    """
    items = list(tokens)
    n = len(items)
    sign = 1
    # insertion sort; counts inversions exactly, n is always small here
    for i in range(1, n):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
        if j > 0 and items[j] == items[j - 1]:
            return ZERO_GENERATOR
    return SignedCanonical(tuple(items), sign)


@dataclass(frozen=True)
class HomologyGroup:
    betti: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class ChainComplexZ:
    """Bases plus boundary maps; degree range may include negatives."""

    def __init__(self, basis: dict[int, list[Label]], boundary: dict[int, SparseIntMatrix]):
        self.basis = basis
        self.boundary = boundary
        self.degrees = sorted(basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def boundary_at(self, d: int) -> SparseIntMatrix:
        b = self.boundary.get(d)
        if b is not None:
            return b
        rows = self.dim(d - 1)
        return SparseIntMatrix(rows, self.dim(d))


def add_term(chain: dict, key, coeff: int) -> None:
    """Add coeff * key to a sparse chain, dropping the key when it cancels."""
    if not coeff:
        return
    new = chain.get(key, 0) + coeff
    if new:
        chain[key] = new
    else:
        del chain[key]


def linear_extend(chain: dict, op: Callable[[Label], dict]) -> dict:
    """Sum of coeff * op(key) over the chain, as a sparse chain."""
    out: dict = {}
    for key, coeff in chain.items():
        for sub, c in op(key).items():
            add_term(out, sub, coeff * c)
    return out


def assemble_complex(
    bases: dict[int, list[Label]],
    rule: Callable[[int, Label], Iterable[tuple[int, Label]]],
    check: bool = True,
) -> ChainComplexZ:
    """Build boundary matrices from a per-generator rule and verify d o d = 0.

    The rule receives (degree, label) and yields (coefficient, lower label)
    terms; labels it emits must already be canonical basis members of the
    next degree down. Degrees with no lower neighbour get a zero map.
    """
    degrees = sorted(bases)
    index: dict[int, dict[Label, int]] = {
        d: {lab: i for i, lab in enumerate(bases[d])} for d in degrees
    }
    boundary: dict[int, SparseIntMatrix] = {}
    for d in degrees:
        lower = index.get(d - 1, {})
        mat = SparseIntMatrix(len(lower), len(bases[d]))
        for col, lab in enumerate(bases[d]):
            for coeff, low in rule(d, lab):
                if coeff == 0:
                    continue
                try:
                    r = lower[low]
                except KeyError:
                    raise KeyError(f"boundary of {lab!r} hits unknown generator {low!r}") from None
                add_term(mat.rows[r], col, coeff)
        boundary[d] = mat
    cx = ChainComplexZ(bases, boundary)
    if check:
        for d in degrees:
            if d - 1 not in index:
                continue
            prod = cx.boundary_at(d - 1).mul(cx.boundary_at(d))
            if not prod.is_zero():
                bad_col = min(c for _, c, _ in prod.to_triplets())
                raise DDNotZero(d, bases[d][bad_col])
    return cx


def order_complex(vertices: list[Label], above: dict[Label, list[Label]], budget: int) -> ChainComplexZ:
    """Reduced order complex of a finite poset.

    Degree -1 holds the empty chain and degree k the chains v_0 < ... < v_k,
    grown from `vertices` by appending each member of `above[v_k]` (every
    vertex strictly above v_k) in list order. The boundary deletes one
    vertex at a time with alternating signs. Raises BudgetExceeded, before
    building the degree that would do so, once the cells exceed `budget`.
    """
    bases: dict[int, list] = {-1: [()]}
    total = 1 + len(vertices)
    frontier = [(v,) for v in vertices]
    while frontier:
        bases[len(bases) - 1] = frontier
        total += sum(len(above[chain[-1]]) for chain in frontier)
        if total > budget:
            raise BudgetExceeded(f"order complex cells exceed budget {budget}")
        frontier = [chain + (w,) for chain in frontier for w in above[chain[-1]]]
    return assemble_complex(bases, _face_rule)


def _face_rule(d: int, chain: tuple):
    return [((-1) ** j, chain[:j] + chain[j + 1 :]) for j in range(len(chain))]


def homology(cx: ChainComplexZ, d: int) -> HomologyGroup:
    """Homology at degree d.

    betti = nullity(d_d) - rank(d_{d+1}) and torsion comes from the Smith
    divisors of d_{d+1}; this is valid because the kernel of an integer
    matrix is saturated, so ker/im splits off the torsion of im inside the
    full lattice.
    """
    if d not in cx.basis:
        raise DegreeOutOfRange(f"degree {d} not in complex")
    up = cx.boundary_at(d + 1) if (d + 1) in cx.basis else SparseIntMatrix(cx.dim(d), 0)
    res = smith_normal_form(up)
    torsion = tuple(t for t in res.divisors if t > 1)
    return HomologyGroup(nullity(cx.boundary_at(d)) - res.rank, torsion)


def homology_profile(cx: ChainComplexZ) -> dict[int, HomologyGroup]:
    """Homology at every degree, one Smith reduction per boundary map."""
    ranks: dict[int, int] = {}
    divisors: dict[int, tuple[int, ...]] = {}
    for d in cx.degrees:
        res = smith_normal_form(cx.boundary_at(d))
        ranks[d] = res.rank
        divisors[d] = res.divisors
    out: dict[int, HomologyGroup] = {}
    for d in cx.degrees:
        betti = cx.dim(d) - ranks[d] - ranks.get(d + 1, 0)
        torsion = tuple(t for t in divisors.get(d + 1, ()) if t > 1)
        out[d] = HomologyGroup(betti, torsion)
    return out


def cycle_space(cx: ChainComplexZ, d: int) -> SparseIntMatrix:
    """Columns form a saturated basis of ker(d_d)."""
    if d not in cx.basis:
        raise DegreeOutOfRange(f"degree {d} not in complex")
    return kernel_basis(cx.boundary_at(d))


def exactness_report(cx: ChainComplexZ) -> dict:
    """Homology at every degree plus the Euler characteristic."""
    by_degree = homology_profile(cx)
    euler = sum((-1) ** d * cx.dim(d) for d in cx.degrees)
    return {
        "euler": euler,
        "homology": by_degree,
        "exact_at": sorted(d for d, h in by_degree.items() if h.betti == 0 and not h.torsion),
    }
