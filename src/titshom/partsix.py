"""Block-partition complexes and the localized double complex over Z^n.

Z_*(S, r) is the restricted bar complex of a finite set: ordered partitions
into ordered blocks, where every restriction set must stay inside a single
block. Its cells, k!*S(d, k) with k blocks on d units, are counted before
any is built, and the same count certifies an explicit isomorphism onto the
subset-poset complex W(d) without building W(d); its homology is Z in one
degree. The same combinatorics drives the localized complexes X_{*,q}[S]
whose blocks are augmented partial frames, with the bar-direction and
X-degree differentials forming a double complex.

A partition of lines is rank-additive exactly when each block is a
separator of the lines' matroid over Q, that is a union of its connected
components (Oxley, *Matroid Theory*, ch. 4). For an augmented partial frame
spanning Q^n the components are the units of its `recognize_apf`
certificate, so `x_localized` reads them off the certificate and enumerates
only their coarsenings; each of them decomposes Z^n, as its docstring
proves. Both complexes come from `_block_complex`, whose boundary rule
`cell_bar_boundary` merges adjacent canonical blocks with `merge_canonical`,
with no re-sort of the concatenation, and returns a sparse chain. So a
part-6 claim builds X[S] alone and certifies that its units are the shape's
groups (`_shape_check`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from .building import identity_matrix
from .complexes import (
    ChainComplexZ,
    HomologyGroup,
    assemble_complex,
    canonical_generator,
    check_cells,
    homology_profile,
    merge_canonical,
    order_complex,
)
from .errors import (
    CertificateFailure,
    IdentityViolation,
    NotSpanning,
    ShapeUnavailable,
)
from .intmat import SparseIntMatrix, add_chain, add_term, linear_extend
from .snf import cokernel_invariants, rank
from .zsymbols import (
    Vector,
    _combo,
    minors,
    normalize_line,
    random_unimodular_basis,
    rank_rows,
    recognize_apf,
    row_relations,
    signed_deletions,
)


# -- restricted bar complex of a finite set ------------------------------------


def _unordered_partitions(items: tuple):
    """All unordered partitions, each block sorted, deterministic order."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _unordered_partitions(rest):
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]
        yield ((first,),) + sub


def ordered_partition_count(d: int, k: int) -> int:
    """k! * S(d, k): ordered partitions of d units into k nonempty blocks."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** d for j in range(k + 1))


@dataclass
class ZSetComplex:
    labels: tuple
    units: tuple[tuple, ...]
    d: int
    cx: ChainComplexZ


def restriction_units(labels, restriction=()) -> tuple[tuple, ...]:
    """The units of a restricted label set: each restriction set, and each
    label outside them alone, every unit sorted and the units sorted.

    The units cover the labels and determine `zcomplex`'s complex, so two
    restrictions with equal units give equal complexes; a restriction set
    of one label restricts nothing. Raises ValueError on repeated labels
    and on restriction sets that are empty, not subsets of the labels, or
    not disjoint.
    """
    labels = tuple(sorted(labels))
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    rsets = [frozenset(r) for r in restriction]
    taken: set = set()
    for r in rsets:
        if not r or not r <= set(labels):
            raise ValueError("restriction sets must be nonempty subsets")
        if r & taken:
            raise ValueError("restriction sets must be disjoint")
        taken |= r
    units = [tuple(sorted(r)) for r in rsets]
    units += [(s,) for s in labels if s not in taken]
    return tuple(sorted(units))


def zcomplex(labels, restriction=()) -> ZSetComplex:
    """Restricted bar complex of a finite set.

    Generators in degree i are ordered partitions of the label set into i+2
    blocks keeping every restriction set within one block; each block is
    stored sorted, permutations contribute the product of per-block signs.
    """
    labels = tuple(sorted(labels))
    units = restriction_units(labels, restriction)
    return ZSetComplex(labels, units, len(units), _block_complex(units))


def _block_complex(units: tuple) -> ChainComplexZ:
    """Ordered block partitions of `units` under the merge differential.

    Each unordered partition of the units gives the blocks of its members,
    each block sorted, and every ordering of them is a cell of degree
    (number of blocks) - 2. The k!*S(d, k) ordered partitions of the d
    units are the cells and go to `check_cells` before any partition is
    enumerated.
    """
    d = len(units)
    cells = sum(ordered_partition_count(d, k) for k in range(1, d + 1))
    check_cells(cells, "partition cells")
    bases: dict[int, list] = {}
    for part in _unordered_partitions(units):
        blocks = [tuple(sorted(x for unit in blk for x in unit)) for blk in part]
        bases.setdefault(len(blocks) - 2, []).extend(permutations(blocks))
    for gens in bases.values():
        gens.sort()
    return assemble_complex(bases, cell_bar_boundary)


def w_poset_complex(d: int) -> ChainComplexZ:
    """Reduced chain complex of the poset of nonempty proper subsets of [d]."""
    subsets = sorted(
        (frozenset(c) for k in range(1, d) for c in combinations(range(d), k)),
        key=sorted,
    )
    above = [[j for j, t in enumerate(subsets) if s < t] for s in subsets]
    return order_complex(subsets, above)


def zcomplex_poset_iso(zc: ZSetComplex) -> dict:
    """Check the explicit chain isomorphism onto the subset-poset complex W(d).

    Each partition maps to the chain of its block-union prefixes, as bit
    masks of unit indices, signed by the parity of the concatenated blocks
    against the sorted label set: the inversion count, read off a bitmask of
    the labels already placed. In every degree each image must be a strict
    chain {} < P_1 < ... < P_k < [d] (no block empty, no unit or label
    placed twice), the map must be injective, and the images must number
    `ordered_partition_count(d, k + 1)`, the count of all such chains, so
    the map is onto. The commuting square is checked by looking up the
    faces of each image among the previous degree's images: the column
    must hold exactly those rows, each with the product of both signs and
    (-1)^j for the face dropping P_j. W(d) itself is never built.
    Returns the per-degree rank table.
    """
    if zc.cx.degrees != list(range(-1, zc.d - 1)):
        raise IdentityViolation(f"degrees {zc.cx.degrees} are not -1..{zc.d - 2}")
    unit_bit = {x: 1 << i for i, u in enumerate(zc.units) for x in u}
    everything = (1 << len(zc.labels)) - 1
    # per label: its bit, the labels ranked above it, its unit's bit
    info = {x: (1 << i, everything ^ ((2 << i) - 1), unit_bit[x]) for i, x in enumerate(zc.labels)}
    below_pos: dict = {}
    below_signs: list = []
    for deg in zc.cx.degrees:
        basis = zc.cx.basis[deg]
        pos: dict = {}
        signs: list = []
        for lab in basis:
            placed = covered = inversions = 0
            prefixes = []
            for blk in lab:
                units = 0
                for x in blk:
                    bit, up, ubit = info[x]
                    inversions += (placed & up).bit_count()
                    placed |= bit
                    units |= ubit
                if not units or units & covered:
                    raise IdentityViolation(f"poset map image of {lab} is not a strict chain")
                covered |= units
                prefixes.append(covered)
            # a label repeated inside one block leaves fewer bits than labels
            if placed.bit_count() != sum(map(len, lab)):
                raise IdentityViolation(f"poset map image of {lab} is not a strict chain")
            chain = tuple(prefixes[:-1])
            if chain in pos:
                raise IdentityViolation(f"poset map not injective at {lab}")
            pos[chain] = len(signs)
            signs.append(-1 if inversions & 1 else 1)
        if len(signs) != ordered_partition_count(zc.d, deg + 2):
            raise IdentityViolation(f"poset map not onto in degree {deg}")
        cols = zc.cx.boundary_at(deg).cols
        # pos lists the images in basis order
        for lab, chain, eps, col in zip(basis, pos, signs, cols):
            if len(col) != len(chain):
                raise IdentityViolation(f"poset map fails to commute at {lab}")
            for j in range(len(chain)):
                i = below_pos.get(chain[:j] + chain[j + 1 :])
                if i is None or col.get(i) != eps * below_signs[i]:
                    raise IdentityViolation(f"poset map fails to commute at {lab}")
                eps = -eps
        below_pos, below_signs = pos, signs
    return {d: zc.cx.dim(d) for d in zc.cx.degrees}


def is_spherical_profile(prof: dict[int, HomologyGroup], d: int) -> bool:
    """Z in degree d-2 and zero elsewhere, torsion-free throughout."""
    return all(h == HomologyGroup(1 if deg == d - 2 else 0, ()) for deg, h in prof.items())


def zcomplex_is_spherical(zc: ZSetComplex) -> bool:
    return is_spherical_profile(homology_profile(zc.cx), zc.d)


def random_restriction(size: int, rng: random.Random) -> tuple[tuple, tuple]:
    """Random label set [0, size) with random disjoint restriction blocks.

    At least one block of size two or more is always present, keeping the
    unit count strictly below the label count, so `size` must be at least
    two; a smaller size raises ValueError.
    """
    if size < 2:
        raise ValueError(f"random restriction needs size >= 2, got size={size}")
    labels = tuple(range(size))
    pool = list(labels)
    rng.shuffle(pool)
    rsets = []
    while pool:
        hi = min(4, len(pool))
        if hi < 2:
            break
        take = rng.randint(2, hi)
        rsets.append(frozenset(pool[:take]))
        pool = pool[take:]
        if rng.random() >= 0.5:
            break
    return labels, tuple(rsets)


# -- localized double complex --------------------------------------------------


def x_localized(lines) -> ChainComplexZ:
    """Bar complex of block partitions of an augmented partial frame.

    Cells in degree p are ordered partitions of the line set into p+2
    blocks whose saturated spans decompose Z^n; the differential merges
    adjacent blocks with the alternating sign. Block ranks add up to n only
    when every block is a union of components of the lines' matroid, so the
    cells are the orderings of the unordered partitions of the components,
    not of the lines. The components are the units of the lines'
    `recognize_apf` certificate: each item's frame members with the lines
    it covers, and each frame line that no item uses, alone. Their count
    goes to `check_cells` before any cell is enumerated. Every nonempty
    union of units is a block of degree -1 or 0, and one of those blocks
    that fails `recognize_apf` raises IdentityViolation.

    The units are the components. The certificate's frame is saturated and
    spans every other line over Z, so with rank n it is a Z-basis. Each
    augmenting line is a sum of its item's members with signs +-1, so its
    fundamental circuit over the frame is those members plus itself. The
    components of a matroid are the classes of the union of the
    fundamental circuits over any basis, and items use disjoint members, so
    the classes are the units; the two lines of one item share its first
    two members.

    Every such partition decomposes Z^n. The lines span Z^n over Z, since
    the frame does. The blocks are unions of components, so their ranks add
    up to n. The sum of the blocks' saturations contains the Z-span of all
    the lines, so it is Z^n, and with ranks adding up to n it is direct.
    """
    normalized = tuple(sorted(normalize_line(v)[0] for v in lines))
    if not normalized:
        raise ValueError("no lines given")
    if len(set(normalized)) != len(normalized):
        raise ValueError("lines must be distinct")
    n = len(normalized[0])
    if rank_rows(normalized) < n:
        raise NotSpanning("the lines do not span")
    cert = recognize_apf(normalized)
    if cert is None:
        raise ValueError("lines are not an augmented partial frame")
    used = {p for item in cert.items for p in item.members}
    units = [tuple(cert.frame[p] for p in item.members) + item.lines for item in cert.items]
    units += [(line,) for p, line in enumerate(cert.frame) if p not in used]
    cx = _block_complex(tuple(units))
    for block in {blk for deg in (-1, 0) for cell in cx.basis.get(deg, ()) for blk in cell}:
        if recognize_apf(block) is None:
            raise IdentityViolation(f"block {block} is not a partial-frame subset")
    return cx


# -- formal cell operations (independent of any assembled complex) -------------


def block_delta(block: tuple[Vector, ...]) -> dict[tuple[Vector, ...], int]:
    """Deletion differential of one block, keeping only span-preserving terms.

    One kernel decides every term: deleting row j keeps the block's span
    exactly when some integer relation uses row j, so an independent block,
    whose kernel is empty, has nothing to delete.
    """
    used = set().union(*row_relations(block).cols)
    return signed_deletions(block, [j in used for j in range(len(block))])


def cell_bar_boundary(cell) -> dict:
    """Merge-adjacent-blocks differential on a canonical cell (every block
    sorted without repeats)."""
    out: dict = {}
    for j in range(len(cell) - 1):
        merged, sign = merge_canonical(cell[j], cell[j + 1])
        if sign:
            add_term(out, cell[:j] + (merged,) + cell[j + 2 :], (-1) ** j * sign)
    return out


def cell_delta(cell, delta=block_delta) -> dict:
    """X-degree differential on a canonical cell.

    The sign in front of slot j is the parity of the total number of lines
    in the earlier blocks (rank plus X-degree of a block is its length).
    `delta` takes each block's deletion; a caller may pass a memoized
    `block_delta`.
    """
    out: dict = {}
    prefix = 0
    for j, block in enumerate(cell):
        sign = (-1) ** prefix
        for sub, c in delta(block).items():
            key = cell[:j] + (sub,) + cell[j + 1 :]
            add_term(out, key, sign * c)
        prefix += len(block)
    return out


def verify_double_identities(samples: int = 200, seed: int = 0, n_max: int = 5) -> dict:
    """Leibniz plus the four double-complex identities on random cells.

    Each distinct block's deletion is taken once per call: `block_delta` is
    memoized for this call only, and every check reads the same memo.
    """
    rng = random.Random(seed)
    leibniz_checked = 0
    delta = lru_cache(maxsize=None)(block_delta)

    def cdelta(cell) -> dict:
        return cell_delta(cell, delta)

    for _ in range(samples):
        n = rng.randint(2, n_max)
        basis = random_unimodular_basis(n, rng)
        lines, groups = _random_shape_lines(n, basis, rng)
        cell = _random_valid_cell(lines, groups, rng)
        dd = linear_extend(cell_bar_boundary(cell), cell_bar_boundary)
        if dd:
            raise IdentityViolation(f"merge differential fails to square to zero at {cell}")
        qq = linear_extend(cdelta(cell), cdelta)
        if qq:
            raise IdentityViolation(f"deletion differential fails to square to zero at {cell}")
        ab = linear_extend(cell_bar_boundary(cell), cdelta)
        ba = linear_extend(cdelta(cell), cell_bar_boundary)
        if ab != ba:
            raise IdentityViolation(f"differentials fail to commute at {cell}")
        if len(cell) >= 2:
            left, right = cell[0], cell[1]
            merged, msign = canonical_generator(left + right)
            lhs = {k: msign * v for k, v in delta(merged).items()}
            rhs: dict = {}
            for sub, c in delta(left).items():
                tokens, s = canonical_generator(sub + right)
                add_term(rhs, tokens, c * s)
            sgn = (-1) ** len(left)
            for sub, c in delta(right).items():
                tokens, s = canonical_generator(left + sub)
                add_term(rhs, tokens, sgn * c * s)
            if lhs != rhs:
                raise IdentityViolation(f"product rule fails at {cell}")
            leibniz_checked += 1
    return {"cells": samples, "leibniz": leibniz_checked, "ok": True}


def _random_shape_lines(n: int, basis, rng: random.Random):
    """Random augmented partial frame with its natural unit groups."""
    lines = [normalize_line(v)[0] for v in basis]
    groups = [[i] for i in range(n)]
    extras = rng.randint(0, min(2, n - 1))
    used: set[int] = set()
    for _ in range(extras):
        free = [i for i in range(n) if i not in used]
        if len(free) < 2:
            break
        k = rng.choice([2, 3]) if len(free) >= 3 else 2
        members = rng.sample(free, k)
        used.update(members)
        signs = [rng.choice((1, -1)) for _ in members]
        lines.append(normalize_line(_combo(basis, members, signs))[0])
        unit = sorted(members) + [len(lines) - 1]
        groups = [g for g in groups if g[0] not in members] + [unit]
    return tuple(lines), [tuple(g) for g in groups]


def _random_valid_cell(lines, groups, rng: random.Random):
    """Random ordered coarsening of the unit partition, as a canonical cell.

    The lines are distinct, so each block, a sorted tuple of them, is
    already canonical with sign +1. The groups of `_random_shape_lines` are
    the components of the lines' matroid, since each augmentation uses its
    own members of a unimodular basis, so by the argument in `x_localized`
    every coarsening decomposes Z^n.
    """
    blocks: list[list[int]] = []
    for g in groups:
        if blocks and rng.random() < 0.5:
            rng.choice(blocks).extend(g)
        else:
            blocks.append(list(g))
    rng.shuffle(blocks)
    return tuple(tuple(sorted(lines[i] for i in blk)) for blk in blocks)


# -- shapes, claims, and the kappa/eta certificate ------------------------------


# tag -> member positions of each augmenting line, appended after the frame;
# a line's signs are eps[m] at its own members
SHAPES: dict[str, tuple[tuple[int, ...], ...]] = {
    "x0": (),
    "x1-i": ((0, 1),),
    "x1-ii": ((0, 1, 2),),
    "x2-i": ((0, 1), (0, 1, 2)),
    "x2-ii": ((0, 1), (2, 3)),
    "x2-iii": ((0, 1, 2), (3, 4)),
    "x2-iv": ((0, 1, 2), (3, 4, 5)),
}


def shape_arity(shape: str) -> int:
    """Minimum rank of a shape, which is also the length of its sign pattern."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    return max((m for members in SHAPES[shape] for m in members), default=-1) + 1


def shape_lines(shape: str, n: int, eps, basis=None):
    """Representative line set for a shape plus its restriction groups.

    Returns (lines, groups) where groups lists, per restriction unit, the
    indices into lines that must stay within one block: an augmenting line
    with its members, merged with every unit it shares a member with.
    """
    arity = shape_arity(shape)
    if n < arity:
        raise ShapeUnavailable(n)
    if len(eps) != arity:
        raise ValueError("sign pattern has the wrong arity")
    if basis is None:
        basis = identity_matrix(n)
    lines = [normalize_line(v)[0] for v in basis]
    units: list[set[int]] = []
    for members in SHAPES[shape]:
        lines.append(normalize_line(_combo(basis, members, [eps[m] for m in members]))[0])
        unit = set(members) | {len(lines) - 1}
        for other in [u for u in units if u & unit]:
            units.remove(other)
            unit |= other
        units.append(unit)
    covered = set().union(*units)
    units += [{i} for i in range(len(lines)) if i not in covered]
    return tuple(lines), tuple(sorted(tuple(sorted(u)) for u in units))


def _class_report(cx: ChainComplexZ, vec: dict[int, int], degree: int) -> dict:
    """Position of a cycle's class in the degree's homology lattice.

    With B = im d_{k+1} and Z = ker d_k saturated, C_k/B = Z/B + C_k/Z and
    C_k/Z is free of rank rank(d_k), so the homology is coker(d_{k+1}) less
    rank(d_k) free summands. C_k/B maps onto C_k/(B + Zc), and a finitely
    generated abelian group is Hopfian, so the two are isomorphic exactly
    when c already lies in B; c generates Z/B exactly when C_k/(B + Zc) is
    the free part C_k/Z alone.
    """
    down = cx.boundary_at(degree)
    if down.mul_vec(vec):
        raise CertificateFailure("cycle lies outside the kernel lattice")
    free = rank(down)
    image = cx.boundary_at(degree + 1)
    betti, torsion = cokernel_invariants(image)
    after = cokernel_invariants(SparseIntMatrix(image.n_rows, image.n_cols + 1, image.cols + [vec]))
    return {
        "homology": HomologyGroup(betti - free, torsion),
        "class_is_zero": after == (betti, torsion),
        "class_generates": after == (free, ()),
    }


def _cell_vector(cx: ChainComplexZ, comb: dict, degree: int) -> dict[int, int]:
    index = {lab: i for i, lab in enumerate(cx.basis[degree])}
    out: dict[int, int] = {}
    for key, coeff in comb.items():
        add_term(out, index[key], coeff)
    return out


def part6_claims(n: int, shapes: str | tuple = "all") -> list[dict]:
    """Claim-by-claim verification for the given rank.

    Each entry records the shape, sign pattern, the computed homology
    profile, the predicted concentration degree d, `units_match` (see
    `_shape_check`) and the pass flag.
    """
    if n < 1:
        raise ValueError(f"rank n = {n} must be at least 1")
    if shapes == "all":
        wanted = [s for s in SHAPES if n >= shape_arity(s)]
    else:
        wanted = list(shapes) if not isinstance(shapes, str) else [shapes]
    return [
        _shape_check(shape, n, eps)
        for shape in wanted
        for eps in product((1, -1), repeat=shape_arity(shape))
    ]


def _shape_check(shape: str, n: int, eps) -> dict:
    """One claim: X[S] on the shape's lines is Z in degree d - 2 alone.

    Certified by the built complex's units, read off its finest cell, being
    the shape's groups with each index replaced by its line. That is exact:
    X[S] is then `zcomplex(range(len(lines)), groups)` relabelled cell by
    cell, each block signed by its sort, so d = len(groups) and the two
    share every dimension and homology group.
    """
    lines, groups = shape_lines(shape, n, eps)
    cx = x_localized(lines)
    units = set(cx.basis[max(cx.degrees)][0])
    units_match = units == {tuple(sorted(lines[i] for i in g)) for g in groups}
    d = len(groups)
    prof = homology_profile(cx)
    result = {
        "claim": "bar-partition-frame-vanishing" if shape == "x0" else f"localized-{shape}",
        "shape": shape,
        "n": n,
        "eps": eps,
        "d": d,
        "profile": prof,
        "units_match": units_match,
        "ok": units_match and is_spherical_profile(prof, d),
    }
    if shape == "x1-ii" and n == 4:
        result["badcase"] = _badcase_check(lines, cx)
        result["ok"] = result["ok"] and result["badcase"]["class_generates"]
    return result


def _badcase_check(lines, cx: ChainComplexZ) -> dict:
    """H0 of the n=4 triple-augmented shape is Z, generated by the distinguished
    two-block difference."""
    frame_line = lines[3]
    rest = tuple(sorted(set(lines) - {frame_line}))
    plus = ((frame_line,), rest)
    minus = (rest, (frame_line,))
    comb = {plus: 1, minus: -1}
    if linear_extend(comb, cell_bar_boundary):
        raise CertificateFailure("badcase generator is not a cycle")
    vec = _cell_vector(cx, comb, 0)
    return _class_report(cx, vec, 0)


def kappa_eta_certificate(basis=None, eps=(1, 1, 1), eta_comb=None) -> dict:
    """Surjectivity certificate for the rank-4 descent differential.

    The lines are the x2-i frame of `shape_lines`: the basis l1..l4, then
    l12 and l123, its signed sums over members (0, 1) and (0, 1, 2). Builds
    the standard cycles kappa and eta, checks both are merge-cycles,
    expands the deletion differential of eta into the five expected groups,
    confirms every secondary group bounds in its own localized complex, and
    confirms kappa generates the badcase homology. `eta_comb` substitutes a
    candidate cycle for eta; anything that fails a step raises.
    """
    if basis is None:
        basis = identity_matrix(4)
    if [len(b) for b in basis] != [4] * 4:
        raise ValueError("basis must be 4 x 4")
    if abs(minors(basis)[(0, 1, 2, 3)][0]) != 1:
        raise ValueError("basis must be unimodular")
    if len(eps) != 3:
        raise ValueError("three signs required")
    l1, l2, l3, l4, l12, l123 = shape_lines("x2-i", 4, eps, basis)[0]
    core = (l1, l2, l3, l123)

    def two_block(first_alone: bool, block):
        tokens, sign = canonical_generator(block)
        single = ((l4,), tokens) if first_alone else (tokens, (l4,))
        return single, sign

    steps: list[str] = []

    def cycle_of(parts) -> dict:
        comb: dict = {}
        for coeff, first_alone, block in parts:
            key, sign = two_block(first_alone, block)
            add_term(comb, key, coeff * sign)
        return comb

    eta = (
        cycle_of([(1, False, (l12,) + core), (1, True, (l12,) + core)])
        if eta_comb is None
        else dict(eta_comb)
    )
    kappa = cycle_of([(1, False, core), (-1, True, core)])

    if linear_extend(kappa, cell_bar_boundary):
        raise CertificateFailure("boundary-kappa")
    steps.append("boundary-kappa")
    if linear_extend(eta, cell_bar_boundary):
        raise CertificateFailure("boundary-eta")
    steps.append("boundary-eta")

    delta_eta = linear_extend(eta, cell_delta)

    groups = [kappa]
    for u in range(4):
        dropped = core[:u] + core[u + 1 :]
        block = (l12,) + dropped
        sign = (-1) ** (u + 1)
        groups.append(cycle_of([(sign, False, block), (-sign, True, block)]))
    total: dict = {}
    for grp in groups:
        add_chain(total, grp, 1)
    if total != delta_eta:
        raise CertificateFailure("delta-eta-decomposition")
    steps.append("delta-eta-decomposition")

    for idx, grp in enumerate(groups):
        if linear_extend(grp, cell_bar_boundary):
            raise CertificateFailure(f"boundary-kappa-{idx + 1}")
    steps.append("boundary-kappa-groups")

    for idx, grp in enumerate(groups[1:], start=2):
        lines = sorted({line for key in grp for blk in key for line in blk})
        cx = x_localized(tuple(lines))
        rep = _class_report(cx, _cell_vector(cx, grp, 0), 0)
        if not rep["class_is_zero"]:
            raise CertificateFailure(f"secondary-class-{idx}")
    steps.append("secondary-classes-bound")

    lines = sorted({line for key in kappa for blk in key for line in blk})
    cx = x_localized(tuple(lines))
    rep = _class_report(cx, _cell_vector(cx, kappa, 0), 0)
    if rep["homology"] != HomologyGroup(1, ()) or not rep["class_generates"]:
        raise CertificateFailure("kappa-generates")
    steps.append("kappa-generates")

    return {"ok": True, "steps": steps, "badcase": rep}
