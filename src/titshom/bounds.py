"""Vanishing bounds for root-system descriptors.

Descriptors are products of irreducible factors written like "A5", "B3xG2",
or "" for the empty product. The field-mode bound comes from the per-family
table combined additively with m-1 across factors; the integral-mode bound
is defined for products of type-A factors only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import IntegralModeNonTypeA, InvalidDescriptor

_FACTOR_RE = re.compile(r"(BC|[ABCDEFG])(\d+)\Z")

_EXCEPTIONAL_RANK = {"G": 2, "F": 4}
_E_RANKS = (6, 7, 8)


@dataclass(frozen=True)
class RootSystemDescriptor:
    factors: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        if not self.factors:
            return "empty"
        return "x".join(
            fam if fam[-1].isdigit() else f"{fam}{rank}" for fam, rank in self.factors
        )


def parse_descriptor(text: str) -> RootSystemDescriptor:
    """Parse "A5xB3" style text; "" and "empty" denote the empty product."""
    if not isinstance(text, str):
        raise InvalidDescriptor(f"descriptor must be text, got {type(text).__name__}")
    cleaned = text.strip().replace("*", "x")
    if cleaned.lower() in ("", "empty", "0"):
        return RootSystemDescriptor(())
    factors = []
    for token in cleaned.split("x"):
        token = token.strip().upper()
        m = _FACTOR_RE.match(token)
        if not m:
            raise InvalidDescriptor(f"unrecognized factor {token!r}")
        fam, rank = m.group(1), int(m.group(2))
        factors.append(_check_factor(fam, rank, token))
    return RootSystemDescriptor(tuple(factors))


def _check_factor(fam: str, rank: int, token: str) -> tuple[str, int]:
    if fam == "A":
        if rank < 1:
            raise InvalidDescriptor(f"{token}: type A needs rank >= 1")
        return (fam, rank)
    if fam in ("B", "C", "BC"):
        if rank < 2:
            raise InvalidDescriptor(f"{token}: type {fam} needs rank >= 2")
        return (fam, rank)
    if fam == "D":
        if rank == 3:
            return ("A", 3)  # the rank-3 case is type A by convention
        if rank < 4:
            raise InvalidDescriptor(f"{token}: type D needs rank >= 4 (or exactly 3)")
        return (fam, rank)
    if fam in _EXCEPTIONAL_RANK:
        if rank != _EXCEPTIONAL_RANK[fam]:
            raise InvalidDescriptor(f"{token}: {fam}{_EXCEPTIONAL_RANK[fam]} is the only rank")
        return (fam + str(rank), rank)
    if fam == "E":
        if rank not in _E_RANKS:
            raise InvalidDescriptor(f"{token}: type E ranks are 6, 7, 8")
        return (fam + str(rank), rank)
    raise InvalidDescriptor(f"unrecognized factor {token!r}")


def _field_bound(fam: str, rank: int) -> int:
    if fam == "A":
        return (rank - 1) // 2
    if fam in ("B", "C", "BC"):
        return (rank - 2) // 2
    if fam == "D":
        return (rank - 3) // 2
    return 0


def vanishing_bound(descriptor, mode: str = "field") -> int:
    """Homology vanishing degree for the descriptor's group family.

    Field mode combines the per-family table values as (m-1) + sum; the
    empty product gives -1. Integral mode applies the type-A formula
    (m-1) + sum of floor((rank-1)/3) and rejects any non-A factor.
    """
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    if mode not in ("field", "integral"):
        raise ValueError(f"unknown mode {mode!r}")
    factors = descriptor.factors
    if not factors:
        return -1
    if mode == "integral":
        if any(fam != "A" for fam, _ in factors):
            raise IntegralModeNonTypeA(str(descriptor))
        return (len(factors) - 1) + sum((rank - 1) // 3 for _, rank in factors)
    return (len(factors) - 1) + sum(_field_bound(fam, rank) for fam, rank in factors)


def floor_inequality_sweep(bound: int = 20, divisors=(2, 3, 4, 5)) -> int:
    """Exhaustively check 1 + floor(a/d) + floor(b/d) >= floor((a+b+1)/d).

    Returns the number of verified triples; raises AssertionError with the
    offending triple otherwise.
    """
    checked = 0
    for d in divisors:
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                lhs = 1 + a // d + b // d
                rhs = (a + b + 1) // d
                if lhs < rhs:
                    raise AssertionError(f"floor inequality fails at a={a} b={b} d={d}")
                checked += 1
    return checked
