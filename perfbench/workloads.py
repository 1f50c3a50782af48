"""The benchmark's workloads and the values their results must equal.

Every operation runs through `reports.run_suite`, the path `titshom suite`
takes, and emits its JSON report as `titshom suite --report` does. Expected
values are frozen here, independently of the suites' own expectations, and
compared by exact equality of their JSON form (so `True` never equals `1`).
Each suite check is one operation; `flag` adds one direct homology profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

NO_FAILURES = {"failures": 0}


@dataclass(frozen=True)
class Suite:
    """One `run_suite` call and the (claim, computed value) list it must return."""

    name: str
    params: dict
    seeded: bool
    checks: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Direct:
    """One library call outside the suites, with its frozen value."""

    claim: str
    compute: Callable[[], object]
    expected: object


def _steinberg_5_2_profile() -> dict:
    from titshom import building
    from titshom.complexes import homology_profile

    prof = homology_profile(building.steinberg(5, 2).cx)
    return {str(d): [h.betti, list(h.torsion)] for d, h in sorted(prof.items())}


def _counts(instances: int) -> dict:
    return {"instances": instances, "failures": 0}


def _partitions(k: int) -> int:
    """Number of partitions of k, by the usual coin-change recurrence."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def _restriction_shapes(labels: int) -> int:
    """Exhaustive `barset` instances: on s labels, one per partition of each k <= s."""
    return sum(_partitions(k) for s in range(1, labels + 1) for k in range(s + 1))


_CLEAN_SYMBOLS = {"not_unimodular": 0, "eval_mismatch": 0, "descent_violations": 0}
_PART6_REST = (
    ("cycle-certificate", {"ok": True, "final_step": "kappa-generates"}),
    ("double-complex-identities", {"cells": 80, "ok": True}),
)

WORKLOADS: dict[str, tuple] = {
    # A few huge boundary maps whose Smith divisors are all units: the
    # building (5,2) rung, where elimination should own >= 80% of the time,
    # plus the rank-2 pairing and coinvariants, which reuse one cached
    # Steinberg model.
    "flag": (
        Direct(
            "steinberg-5-2-homology-profile",
            _steinberg_5_2_profile,
            {"-1": [0, []], "0": [0, []], "1": [0, []], "2": [0, []], "3": [1024, []]},
        ),
        Suite(
            "rank2",
            {"q": 3},
            False,
            (
                (
                    "product-map-onto-integers",
                    {
                        "coinvariants": "Z",
                        "image_gcd": 1,
                        "witness_hits_generator": True,
                        "surjective": True,
                    },
                ),
            ),
        ),
        Suite(
            "coinv",
            {},
            False,
            (("steinberg-coinvariants-vanish", "0"),) * 4
            + (("borel-coinvariants-are-integers", "Z"),) * 3,
        ),
        Suite(
            "bar",
            {"n": 3, "q": 3},
            False,
            (
                (
                    "decomposition-complex-exact",
                    {"ok": True, "top_kernel_rank": 729, "alternating_sum": 729},
                ),
            ),
        ),
    ),
    # Hundreds of medium complexes: enumeration, assembly, elimination and
    # certification all take visible shares. The restriction shapes on at
    # most 6 labels are criterion 11's exhaustive half; the seeded random
    # restrictions are on 6 labels, because on 7 labels one in six of them
    # is a 6-unit complex ten times the cost of the rest, and that binomial
    # count alone spreads a pass over 6-11 s from seed to seed.
    "partition": (
        Suite(
            "barset",
            {"n": 6, "count": 0},
            True,
            (
                ("block-partition-homology-spherical", _counts(_restriction_shapes(6))),
                ("block-partition-random-instances", _counts(0)),
            ),
        ),
        Suite(
            "barset",
            {"n": 4, "count": 50},
            True,
            (
                ("block-partition-homology-spherical", _counts(_restriction_shapes(4))),
                ("block-partition-random-instances", _counts(50)),
            ),
        ),
        Suite(
            "part6",
            {"n": 4},
            True,
            (("partition-claims-hold", {"failures": 0, "checks": 37}),) + _PART6_REST,
        ),
        Suite(
            "part6",
            {"n": 5, "shape": "x2-iii"},
            True,
            (("partition-claims-hold", NO_FAILURES),) + _PART6_REST,
        ),
        Suite(
            "part6",
            {"n": 6, "shape": "x2-iv"},
            True,
            (("partition-claims-hold", NO_FAILURES),) + _PART6_REST,
        ),
    ),
    # The same elimination layer through ~2e5 tiny lattice calls: a
    # big-matrix speed-up should not move it, and added per-call cost shows.
    "symbols": (
        Suite(
            "symbols",
            {"count": 50},
            True,
            (("determinant-descent-reduction", _CLEAN_SYMBOLS),) * 2,
        ),
        Suite(
            "bykovskii",
            {"bases": 50},
            True,
            (("relation-image-vanishes-x1", 0),) * 3
            + (
                (
                    "relation-image-vanishes-x2",
                    {"shapes": 20, "dd_failures": 0, "psi_failures": 0},
                ),
            ),
        ),
    ),
}


def attempted(workload: str) -> int:
    """Operations in one pass; fixed by this file, not by the code under test."""
    return sum(1 if isinstance(op, Direct) else len(op.checks) for op in WORKLOADS[workload])


def _same(computed, expected) -> bool:
    try:
        return json.dumps(computed, sort_keys=True) == json.dumps(expected, sort_keys=True)
    except (TypeError, ValueError):
        return False


def plan(workload: str, seed: int) -> list[Callable[[], tuple[int, list[str]]]]:
    """The pass's operations as calls returning (failed count, failure notes).

    A call that raises fails every check it owns; its time still counts.
    """
    from titshom import reports

    def direct(op: Direct):
        def run():
            try:
                got = op.compute()
            except Exception as exc:  # a raising operation is a failed one
                return 1, [f"{op.claim}: {type(exc).__name__}: {exc}"]
            return (0, []) if _same(got, op.expected) else (1, [f"{op.claim}: got {got!r}"])

        return run

    def suite(op: Suite):
        params = dict(op.params, seed=seed) if op.seeded else dict(op.params)

        def run():
            try:
                rep = reports.run_suite(op.name, params)
                rep.to_json()
            except Exception as exc:  # a raising suite fails all its checks
                return len(op.checks), [f"{op.name}: {type(exc).__name__}: {exc}"]
            notes = []
            for i, (claim, want) in enumerate(op.checks):
                if i >= len(rep.checks):
                    notes.append(f"{op.name} {params}: {claim}: missing")
                elif rep.checks[i].claim != claim or not _same(rep.checks[i].computed, want):
                    got = (rep.checks[i].claim, rep.checks[i].computed)
                    notes.append(f"{op.name} {params}: {claim}: got {got!r}")
            return len(notes), notes

        return run

    return [direct(op) if isinstance(op, Direct) else suite(op) for op in WORKLOADS[workload]]
