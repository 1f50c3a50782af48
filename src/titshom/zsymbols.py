"""Modular symbols over Z^n.

Lines are primitive integer vectors up to sign; apartment symbols evaluate
to chains on flags of saturated sublattices; Ash-Rudolph style determinant
descent rewrites any symbol as a sum of unimodular ones. The X-degree
machinery (augmented partial frames, deletion differential, the map to
Steinberg chains) lives here too.

A saturated sublattice in a flag is keyed by its primitive Plücker vector,
which the minors of any independent rows spanning it up to finite index
give, so evaluating a symbol needs no elimination. Rank, the summand test
and the integer relations among a few rows in Z^n run on the one
elimination core in `snf`. Every minor, determinants included, comes from
one Laplace step, `_laplace_plan(n, k)`, compiled once per (n, k) into
straight-line code: `minors` takes it over every row subset, and the
descent reads Cramer's numerators there as cofactors, so e_k lies in a
full-rank lattice exactly when they give it integer coordinates;
`ApartmentSymbol.det` takes it over the row prefixes only. Plücker keys
come from `span_key`, which takes the same step on the key of the lines
without the last, memoized in a dict that its caller keeps for one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd
from typing import Callable

from . import snf
from .building import apartment_chain
from .complexes import canonical_generator, check_cells
from .errors import DegreeZero, IdentityViolation, ZeroVector
from .intmat import SparseIntMatrix, add_term, linear_extend

Vector = tuple[int, ...]
# a saturated rank-k sublattice, keyed by its primitive Plücker vector: the
# k x k minors of any basis over their gcd, first nonzero positive
Lattice = tuple[int, ...]
# member i of a flag has rank i + 1, so keys of ranks k and n - k, which have
# the same length, are never compared
Flag = tuple[Lattice, ...]


def normalize_line(v) -> tuple[Vector, int]:
    """Primitive, leading-positive representative of the line through v.

    Returns the representative together with the sign relating v's primitive
    part to it.
    """
    vec = tuple(v)
    g = gcd(*vec)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    for lead in vec:
        if lead:
            break
    if lead < 0:
        g = -g
    elif g == 1:
        return vec, 1
    return tuple(x // g for x in vec), 1 if g > 0 else -1


@lru_cache(maxsize=None)
def _laplace_plan(n: int, k: int) -> Callable[[tuple[int, ...], Vector], tuple[int, ...]]:
    """The one-row Laplace step of (n, k), compiled once.

    `step(parent, row)` returns the k x k minors of k - 1 rows with `row`
    appended, over the k-column sets of range(n) in combinations order,
    from the (k - 1) x (k - 1) minors `parent` of those rows. Each minor is
    one straight-line expression, its expansion along the last row: entry
    c_j of `row` times the parent's minor on the other k - 1 columns, with
    sign (-1)^(k - 1 + j). The source is built from integer indices only;
    `parent` and `row` are unpacked into locals, so an argument of the
    wrong length raises ValueError.
    """
    position = {cols: i for i, cols in enumerate(combinations(range(n), k - 1))}
    exprs = []
    for cols in combinations(range(n), k):
        terms = "".join(
            f"{'-' if (k - 1 + j) % 2 else '+'}r{c}*p{position[cols[:j] + cols[j + 1 :]]}"
            for j, c in enumerate(cols)
        )
        exprs.append(terms.lstrip("+"))
    source = (
        "def step(parent, row):\n"
        f"    {''.join(f'p{i}, ' for i in range(len(position)))}= parent\n"
        f"    {''.join(f'r{c}, ' for c in range(n))}= row\n"
        f"    return ({', '.join(exprs)},)\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<laplace step n={n} k={k}>", "exec"), namespace)
    return namespace["step"]


def minors(rows) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The k x k minors of every k-subset of m rows in Z^n, k <= min(m, n).

    Keyed by the sorted row indices, with () mapping to (1,); each value
    lists the minors over the k-column sets of range(n) in combinations
    order. A subset's minors come from those of the subset without its last
    row by one call of the compiled Laplace step `_laplace_plan(n, k)`; for
    n rows in Z^n the one n x n minor is the determinant. The sum over k of
    C(m, k) * C(n, k), which is C(m + n, n), counts the minors of m rows and
    goes to `check_cells` before the first level.
    """
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged rows")
    check_cells(comb(len(rows) + n, n), "minors")
    out: dict[tuple[int, ...], tuple[int, ...]] = {(): (1,)}
    for k in range(1, min(len(rows), n) + 1):
        step = _laplace_plan(n, k)
        for idx in combinations(range(len(rows)), k):
            out[idx] = step(out[idx[:-1]], rows[idx[-1]])
    return out


def span_key(lines: tuple[Vector, ...], spans: dict) -> Lattice | None:
    """Primitive Plücker key of the span of a sorted tuple of lines, or None
    when they are dependent; memoized in the caller's `spans`.

    The key of the lines without the last is +-(their wedge)/g, so one call
    of the Laplace step `_laplace_plan(n, k)` on it and the last line gives
    +-(the wedge of all)/g, which normalizes to the same primitive vector;
    a zero wedge means the lines are dependent. As in `minors`, () has key
    (1,), so a single line is normalized too.
    """
    if not lines:
        return (1,)
    if lines in spans:
        return spans[lines]
    prefix = span_key(lines[:-1], spans)
    key = None
    if prefix is not None:
        wedge = _laplace_plan(len(lines[-1]), len(lines))(prefix, lines[-1])
        if any(wedge):
            key = normalize_line(wedge)[0]
    spans[lines] = key
    return key


def rows_as_columns(rows) -> SparseIntMatrix:
    """The matrix whose column i is rows[i]; it has the rows' rank and Smith divisors."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged rows")
    return SparseIntMatrix(n, len(rows), [{i: v for i, v in enumerate(row) if v} for row in rows])


def is_saturated_rows(rows) -> bool:
    """True when the rows are independent and span a saturated summand:
    one Smith divisor per row, each 1."""
    divisors = snf.smith_normal_form(rows_as_columns(rows)).divisors
    return len(divisors) == len(rows) and all(d == 1 for d in divisors)


def rank_rows(rows) -> int:
    """Rank of the row span."""
    return snf.rank(rows_as_columns(rows))


def row_relations(rows) -> SparseIntMatrix:
    """Basis (columns) of the integer relations y with sum_i y_i rows[i] = 0;
    no column has key i exactly when no relation uses rows[i]."""
    return snf.kernel_basis(rows_as_columns(rows))


@dataclass(frozen=True)
class ApartmentSymbol:
    """Ordered tuple of n lines in Z^n. Its class depends on the lines
    alone, so `from_vectors` keeps each vector's primitive line and drops
    the sign that normalization takes out."""

    lines: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if not self.lines:
            raise ValueError("empty apartment symbol (): a symbol needs at least one line")
        if any(len(v) != len(self.lines[0]) for v in self.lines):
            raise ValueError(f"lines of unequal length: {self.lines}")
        if len(self.lines) != len(self.lines[0]):
            raise ValueError(
                f"{len(self.lines)} lines in Z^{len(self.lines[0])}: a symbol needs one line per coordinate"
            )

    @classmethod
    def from_vectors(cls, vectors) -> "ApartmentSymbol":
        return cls(tuple(normalize_line(v)[0] for v in vectors))

    @property
    def ambient(self) -> int:
        return len(self.lines[0])

    def det(self) -> int:
        """The determinant, by the Laplace step along the row prefixes only:
        n steps, whose 2^n minors (() included) go to `check_cells` first."""
        n = self.ambient
        check_cells(2**n, "minors")
        top: tuple[int, ...] = (1,)
        for k, row in enumerate(self.lines, 1):
            top = _laplace_plan(n, k)(top, row)
        return top[0]


def apartment_eval(symbol, spans: dict | None = None) -> dict[Flag, int]:
    """Signed sum over all orderings of the flags of saturated prefix spans.

    Each span is keyed by its primitive Plücker vector. k independent lines
    have the k x k minors of a basis of their saturation times its index, so
    their minors over the gcd key the saturated span, whether or not the
    symbol is unimodular. The lines are sorted once: the class alternates
    in its lines, so it is the sorted symbol's class, negated when the sort
    is odd, and every subset of the sorted lines, taken in index order, is
    already the sorted tuple that `span_key` memoizes in `spans`. Symbols
    evaluated with one `spans` share the spans of their common lines.
    Repeated or dependent lines give the zero chain. The value depends only
    on the lines, not on the choice of primitive representatives.
    """
    if not isinstance(symbol, ApartmentSymbol):
        symbol = ApartmentSymbol.from_vectors(symbol)
    ordered, sign = canonical_generator(symbol.lines)
    spans = {} if spans is None else spans
    if not sign or span_key(ordered, spans) is None:
        return {}
    chain = apartment_chain(symbol.ambient, lambda idx: span_key(tuple([ordered[i] for i in idx]), spans))
    return chain if sign > 0 else {flag: -c for flag, c in chain.items()}


def _round_half_toward_zero(p: int, q: int) -> int:
    """Nearest integer to p/q (q > 0), ties toward zero."""
    if p < 0:
        return -((2 * -p + q - 1) // (2 * q))
    return (2 * p + q - 1) // (2 * q)


def _descent_vector(vectors, table: dict | None = None) -> tuple[Vector, list[int]]:
    """Primitive w outside no proper face: the rounded defect of the first
    standard basis vector missing from the symbol's lattice; and the
    determinant of the symbol with each slot in turn replaced by w. `table`
    is `minors(vectors)` when the caller has it already.

    By Cramer's rule e_k = sum x_i v_i with x_i = num_i / d, where num_i,
    the determinant of v with row i replaced by e_k, is the cofactor
    (-1)^(i+k) times the minor of v without row i and column k. So e_k lies
    in the lattice exactly when d divides all n numerators; some e_k is
    missing whenever |d| > 1. With m_i the rounded x_i, w is
    e_k - sum m_i v_i over its gcd g, and by multilinearity replacing
    slot i by w gives determinant (num_i - m_i d) / g.
    """
    n = len(vectors)
    table = minors(vectors) if table is None else table
    d = table[tuple(range(n))][0]
    absd = abs(d)
    rest = [tuple(j for j in range(n) if j != i) for i in range(n)]
    for k in range(n):
        # in combinations order, the (n - 1)-column set without column k is number n - 1 - k
        nums = [(-1) ** (i + k) * table[rest[i]][n - 1 - k] for i in range(n)]
        if any(num % absd for num in nums):
            break
    ms = [_round_half_toward_zero(-num if d < 0 else num, absd) for num in nums]
    w0 = [1 if t == k else 0 for t in range(n)]
    for i, m in enumerate(ms):
        if m:
            for t in range(n):
                w0[t] -= m * vectors[i][t]
    g = gcd(*w0)
    return tuple(x // g for x in w0), [(num - m * d) // g for num, m in zip(nums, ms)]


def ash_rudolph(
    symbol, trace: list | None = None, table: dict | None = None
) -> list[tuple[int, ApartmentSymbol]]:
    """Rewrite an apartment symbol as a nonnegative sum of unimodular ones.

    Each descent level replaces one slot by a primitive vector whose
    coordinates in the current basis all have absolute value <= 1/2, which
    makes every child determinant strictly smaller. The terms satisfy
    sum(coeff * apartment_eval(term)) == apartment_eval(symbol) exactly.
    `table` is the symbol's `minors` when the caller has them already; each
    node of the descent takes its own once.
    """
    if not isinstance(symbol, ApartmentSymbol):
        symbol = ApartmentSymbol.from_vectors(symbol)
    n = symbol.ambient
    table = minors(symbol.lines) if table is None else table
    d = table[tuple(range(n))][0]
    if d == 0:
        return []
    leaves: dict[tuple[Vector, ...], int] = {}

    def descend(vectors: tuple[Vector, ...], d: int, table: dict | None = None) -> None:
        absd = abs(d)
        if absd == 1:
            key = tuple(normalize_line(v)[0] for v in vectors)
            leaves[key] = leaves.get(key, 0) + 1
            return
        w, dets = _descent_vector(vectors, table)
        children = [(vectors[:i] + (w,) + vectors[i + 1 :], nd) for i, nd in enumerate(dets) if nd]
        # |x_i| <= 1/2 bounds each child by |d|/2, and w != 0 leaves one nonzero
        if not children or any(abs(nd) >= absd for _, nd in children):
            raise IdentityViolation(("descent does not shrink", vectors))
        for replaced, nd in children:
            if trace is not None:
                trace.append((absd, abs(nd)))
            descend(replaced, nd)

    descend(symbol.lines, d, table)
    return [(coeff, ApartmentSymbol(key)) for key, coeff in sorted(leaves.items())]


@dataclass(frozen=True)
class Reduction:
    """Ash-Rudolph terms of a symbol and the checks they passed."""

    terms: list[tuple[int, ApartmentSymbol]]
    not_unimodular: int  # terms whose determinant is not +-1
    evaluation_matches: bool  # the terms evaluate to the symbol's chain

    @property
    def verified(self) -> bool:
        return not self.not_unimodular and self.evaluation_matches


def reduce_and_verify(symbol, trace: list | None = None) -> Reduction:
    """Run `ash_rudolph` and check its terms against the symbol's evaluation.

    Each distinct row tuple has its minors taken once: a unimodular symbol
    is its own one term, with the symbol's determinant, and evaluation keys
    the spans of the symbol and all its terms in one `spans`.
    """
    if not isinstance(symbol, ApartmentSymbol):
        symbol = ApartmentSymbol.from_vectors(symbol)
    table = minors(symbol.lines)
    d = table[tuple(range(symbol.ambient))][0]
    terms = ash_rudolph(symbol, trace=trace, table=table)
    not_unimodular = sum(1 for _, term in terms if abs(d if term.lines == symbol.lines else term.det()) != 1)
    spans: dict = {}
    rhs = linear_extend({term: coeff for coeff, term in terms}, lambda term: apartment_eval(term, spans))
    return Reduction(terms, not_unimodular, apartment_eval(symbol, spans) == rhs)


# -- augmented partial frames and the X-degree complex -------------------------


@dataclass(frozen=True)
class AugItem:
    """One augmentation item over frame positions, with the normalized lines
    it covers: a pair (p, q) covers span(s1 f_p + s2 f_q), a triple the
    three-term span, and a triple with a pair line covers both the two-term
    and the three-term spans with the shared leading signs, in that order.
    """

    members: tuple[int, ...]
    signs: tuple[int, ...]
    lines: tuple[Vector, ...]


@dataclass(frozen=True)
class ApfCertificate:
    frame: tuple[Vector, ...]
    items: tuple[AugItem, ...]


def _combo(frame, members, signs) -> Vector:
    n = len(frame[0])
    out = [0] * n
    for pos, s in zip(members, signs):
        for t in range(n):
            out[t] += s * frame[pos][t]
    return tuple(out)


@lru_cache(maxsize=None)
def recognize_apf(lines: tuple[Vector, ...]) -> ApfCertificate | None:
    """Exhaustive certificate search; None when no certificate exists.

    Each subset of the L lines is tried as the frame, so the 2^L frame
    candidates go to `check_cells` before the first is tried.
    """
    if not lines:
        return ApfCertificate((), ())
    normalized = tuple(normalize_line(v)[0] for v in lines)
    check_cells(2 ** len(normalized), "frame candidates")
    if len(set(normalized)) < len(normalized):
        return None
    positions = range(len(normalized))
    for size in range(len(normalized), -1, -1):
        for frame_pos in combinations(positions, size):
            frame = tuple(normalized[p] for p in frame_pos)
            if not is_saturated_rows(frame):
                continue
            rest = sorted(normalized[p] for p in positions if p not in frame_pos)
            items = _cover_rest(tuple(rest), frame, frozenset())
            if items is not None:
                return ApfCertificate(frame, items)
    return None


def _cover_rest(
    rest: tuple[Vector, ...], frame: tuple[Vector, ...], used: frozenset
) -> tuple[AugItem, ...] | None:
    if not rest:
        return ()
    target = rest[0]
    free = [p for p in range(len(frame)) if p not in used]
    for p, q in combinations(free, 2):
        for s2 in (1, -1):
            if normalize_line(_combo(frame, (p, q), (1, s2)))[0] == target:
                sub = _cover_rest(rest[1:], frame, used | {p, q})
                if sub is not None:
                    return (AugItem((p, q), (1, s2), (target,)),) + sub
    for p, q, r in combinations(free, 3):
        for s2, s3 in product((1, -1), repeat=2):
            signs = (1, s2, s3)
            if normalize_line(_combo(frame, (p, q, r), signs))[0] == target:
                sub = _cover_rest(rest[1:], frame, used | {p, q, r})
                if sub is not None:
                    return (AugItem((p, q, r), signs, (target,)),) + sub
            pairline = normalize_line(_combo(frame, (p, q), (1, s2)))[0]
            triline = normalize_line(_combo(frame, (p, q, r), signs))[0]
            if pairline == triline:
                continue
            if target in (pairline, triline):
                other = triline if target == pairline else pairline
                rem = list(rest[1:])
                if other in rem:
                    rem.remove(other)
                    sub = _cover_rest(tuple(rem), frame, used | {p, q, r})
                    if sub is not None:
                        return (AugItem((p, q, r), signs, (pairline, triline)),) + sub
    return None


def byk_delta(lines, spans: dict | None = None) -> dict[tuple[Vector, ...], int]:
    """Alternating deletion sum, each term sign-canonicalized.

    A deletion whose lines stop spanning Q^n is dropped, as is one with a
    repeated line; both are zero generators. n + 1 lines decide each
    deletion by its Plücker key: at rank n, Cramer's rule spans their
    relations by y_j = (-1)^j det(lines without j), so line j is used by a
    relation exactly when its deletion is independent, that is when
    `span_key` of the sorted deletion is not None; below rank n every
    deletion is dependent. Those keys stay in the caller's `spans`, where
    evaluating the kept terms finds them. More lines take one kernel of all
    of them, as in `partsix.block_delta`: with r the rank of all lines,
    deleting line j leaves rank r, or r - 1 when line j is a coloop, used
    by no integer relation; that path does not read `spans`.
    """
    normalized = tuple(normalize_line(v)[0] for v in lines)
    if not normalized:
        raise ValueError("empty symbol (): the deletion differential needs at least one line")
    n = len(normalized[0])
    if any(len(v) != n for v in normalized):
        raise ValueError("ragged rows")
    if len(normalized) <= n:
        raise DegreeZero("deletion differential needs X-degree >= 1")
    if len(normalized) > n + 1:
        relations = row_relations(normalized)
        r = len(normalized) - relations.n_cols
        used = set().union(*relations.cols)
        return signed_deletions(normalized, [r - (j not in used) == n for j in range(len(normalized))])
    spans = {} if spans is None else spans
    out: dict[tuple[Vector, ...], int] = {}
    for j in range(n + 1):
        tokens, sign = canonical_generator(normalized[:j] + normalized[j + 1 :])
        if sign and span_key(tokens, spans) is not None:
            add_term(out, tokens, (-1) ** j * sign)
    return out


def signed_deletions(rows: tuple[Vector, ...], keep: list[bool]) -> dict[tuple[Vector, ...], int]:
    """Sum of (-1)^j times the canonical generator of rows without row j,
    over the j with keep[j]; a deletion with a repeated row is zero."""
    out: dict[tuple[Vector, ...], int] = {}
    for j, kept in enumerate(keep):
        if not kept:
            continue
        tokens, sign = canonical_generator(rows[:j] + rows[j + 1 :])
        if sign:
            add_term(out, tokens, (-1) ** j * sign)
    return out


def byk_delta_combination(comb: dict, spans: dict | None = None) -> dict[tuple[Vector, ...], int]:
    """Linear extension of `byk_delta`, its terms' spans keyed once in
    `spans` (a fresh dict for this call when None)."""
    spans = {} if spans is None else spans
    return linear_extend(comb, lambda lines: byk_delta(lines, spans))


def byk_psi(comb: dict, spans: dict | None = None) -> dict[Flag, int]:
    """Linear extension of apartment evaluation to degree-zero combinations,
    its spans keyed once in `spans` (a fresh dict for this call when None).
    Each key is normalized, since it may come from any caller."""
    spans = {} if spans is None else spans
    return linear_extend(comb, lambda lines: apartment_eval(lines, spans))


def random_unimodular_basis(n: int, rng: random.Random) -> tuple[Vector, ...]:
    """Product of a few random elementary operations applied to the identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for t in range(n):
            rows[i][t] += c * rows[j][t]
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return tuple(tuple(r) for r in rows)
