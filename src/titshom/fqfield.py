"""Finite field arithmetic via explicit tables.

Elements of F_{p^e} are integers 0..q-1 read as base-p digit vectors, i.e.
coefficients of a polynomial in x modulo a fixed monic irreducible of
degree e (the one with the smallest integer encoding of its coefficient
tuple, so construction is deterministic). Prime fields use e = 1.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import FieldTooLarge

MAX_Q = 256
EXHAUSTIVE_AXIOM_Q = 16


def check_order(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, without building the field's tables.

    Raises FieldTooLarge above MAX_Q, then ValueError when q is not a prime
    power.
    """
    if q > MAX_Q:
        raise FieldTooLarge(f"q = {q} exceeds {MAX_Q}")
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    assert p is not None
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_mul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a*b mod f over F_p; f monic of degree e, inputs of degree < e."""
    e = len(f) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * f[j]) % p
    out = out[:e]
    while len(out) < e:
        out.append(0)
    return out


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    quo = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * inv) % p
        if c:
            quo[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quo, a


def _is_irreducible(f: list[int], p: int) -> bool:
    e = len(f) - 1
    if e == 1:
        return True
    # no roots, then trial division by monic polynomials of degree <= e/2
    for r in range(p):
        if sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0:
            return False
    for d in range(2, e // 2 + 1):
        for t in range(p**d):
            div = [(t // p**i) % p for i in range(d)] + [1]
            _, rem = _poly_divmod(f, div, p)
            if rem == [0]:
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> list[int]:
    if e == 1:
        return [0, 1]
    for t in range(p**e):
        coeffs = [(t // p**i) % p for i in range(e)]
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class FieldTable:
    """Addition/multiplication tables for F_q, q = p^e <= 256."""

    __slots__ = ("q", "p", "e", "poly", "add", "mul", "neg", "inv", "primitive")

    def __init__(self, q: int):
        self.p, self.e = check_order(q)
        self.q = q
        p, e = self.p, self.e
        self.poly = tuple(_smallest_irreducible(p, e))

        def digits(v: int) -> list[int]:
            return [(v // p**i) % p for i in range(e)]

        def undigits(ds: list[int]) -> int:
            return sum(d * p**i for i, d in enumerate(ds))

        f = list(self.poly)
        self.add = [
            [undigits([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
            for a in range(q)
        ]
        self.mul = [
            [undigits(_poly_mul_mod(digits(a), digits(b), f, p)) for b in range(q)]
            for a in range(q)
        ]
        self.neg = [undigits([(-x) % p for x in digits(a)]) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
                    break
            else:
                raise AssertionError(f"no inverse for {a}")  # pragma: no cover
        self.primitive = self._find_primitive()
        self._verify_axioms()

    def _find_primitive(self) -> int:
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x = self.mul[x][g]
                order += 1
            if order == self.q - 1:
                return g
        raise AssertionError("no primitive element")  # pragma: no cover

    def _verify_axioms(self) -> None:
        q = self.q
        rng = range(q)
        for a in rng:
            assert self.add[a][0] == a and self.mul[a][1] == a
            assert self.add[a][self.neg[a]] == 0
            if a:
                assert self.mul[a][self.inv[a]] == 1
            for b in rng:
                assert self.add[a][b] == self.add[b][a]
                assert self.mul[a][b] == self.mul[b][a]
        if q <= EXHAUSTIVE_AXIOM_Q:
            triples = ((a, b, c) for a in rng for b in rng for c in rng)
        else:
            rnd = random.Random(q)
            triples = ((rnd.randrange(q), rnd.randrange(q), rnd.randrange(q)) for _ in range(10000))
        for a, b, c in triples:
            assert self.mul[a][self.mul[b][c]] == self.mul[self.mul[a][b]][c]
            assert self.add[a][self.add[b][c]] == self.add[self.add[a][b]][c]
            assert self.mul[a][self.add[b][c]] == self.add[self.mul[a][b]][self.mul[a][c]]

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def __repr__(self) -> str:
        return f"FieldTable(q={self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FieldTable:
    return FieldTable(q)
