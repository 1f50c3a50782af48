"""Check suites and byte-stable reports.

A suite is a named list of checks; each check freezes an expected value and
computes an actual one, passing only on exact equality. Checks run one after
another in declaration order, so a report's bytes depend only on its
parameters (elapsed times can be zeroed for byte-identical comparisons).
`SUITES` declares the parameters each suite reads, with their defaults.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Callable

from . import actions, barres, bounds, building, partsix, snf, zsymbols
from .complexes import homology_profile
from .errors import UnknownParameter, UnknownSuite
from .intmat import SparseIntMatrix, linear_extend

SCHEMA_VERSION = 1


@dataclass
class CheckSpec:
    claim: str
    description: str
    expected: object
    compute: Callable[[], object]


@dataclass
class CheckResult:
    claim: str
    description: str
    expected: object
    computed: object
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self, stable_timings: bool = False) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "checks": [
                {
                    "claim": c.claim,
                    "description": c.description,
                    "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed),
                    "pass": c.passed,
                    "elapsed_ms": 0 if stable_timings else c.elapsed_ms,
                }
                for c in self.checks
            ],
            "all_pass": self.all_pass,
        }

    def to_json(self, stable_timings: bool = False) -> str:
        return (
            json.dumps(
                self.to_payload(stable_timings),
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )

    def to_csv(self, stable_timings: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "claim", "description", "expected", "computed", "pass", "elapsed_ms"])
        for c in self.checks:
            writer.writerow(
                [
                    self.suite,
                    c.claim,
                    c.description,
                    json.dumps(_jsonable(c.expected), sort_keys=True),
                    json.dumps(_jsonable(c.computed), sort_keys=True),
                    str(c.passed).lower(),
                    0 if stable_timings else c.elapsed_ms,
                ]
            )
        return buf.getvalue()


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class Suite:
    """A suite's check factory and the parameters it reads, with defaults."""

    build: Callable[..., list[CheckSpec]]
    defaults: dict

    def __call__(self, params: dict) -> list[CheckSpec]:
        """Build the checks; params gains the defaults of the keys it lacks.

        A key the suite does not read raises UnknownParameter, so a flag or
        config key that would change nothing is refused, not recorded.
        """
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            raise UnknownParameter(
                f"unknown parameter(s): {', '.join(unknown)}; "
                f"valid keys: {', '.join(self.defaults) or 'none'}"
            )
        for key, value in self.defaults.items():
            params.setdefault(key, value)
        return self.build(**params)


def run_suite(name: str, params: dict | None = None) -> SuiteReport:
    """Execute a registered suite's checks in order, recording its params."""
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; choose from {sorted(SUITES)}")
    params = dict(params or {})
    return SuiteReport(name, params, [_execute(spec) for spec in SUITES[name](params)])


def _execute(spec: CheckSpec) -> CheckResult:
    t0 = time.perf_counter()
    try:
        computed = spec.compute()
    except Exception as exc:  # recorded as a failing check, not a crash
        computed = f"error: {type(exc).__name__}: {exc}"
    ms = int(round((time.perf_counter() - t0) * 1000))
    return CheckResult(spec.claim, spec.description, spec.expected, computed, ms)


# -- the individual suites -----------------------------------------------------


def _suite_linalg(seed: int, count: int) -> list[CheckSpec]:
    def run_matrices() -> dict:
        rng = random.Random(seed)
        mismatches = 0
        for _ in range(count):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            mat = SparseIntMatrix.from_dense(dense)
            res = snf.smith_normal_form(mat)
            if list(res.divisors) != _divisors_by_minors(dense):
                mismatches += 1
        return {"matrices": count, "mismatches": mismatches}

    def saturation_roundtrip() -> dict:
        rng = random.Random(seed + 1)
        bad = 0
        trials = max(10, count // 3)
        for _ in range(trials):
            rows = rng.randint(1, 4)
            cols = rng.randint(rows, 5)
            dense = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            sat = snf.saturation(zsymbols.rows_as_columns(dense))
            if not snf.is_saturated(sat):
                bad += 1
        return {"trials": trials, "not_saturated": bad}

    return [
        CheckSpec(
            "smith-form-matches-minor-gcds",
            f"Smith divisors equal determinantal divisor quotients on {count} random matrices",
            {"matrices": count, "mismatches": 0},
            run_matrices,
        ),
        CheckSpec(
            "saturation-idempotent",
            "saturation of a random column lattice is saturated",
            {"trials": max(10, count // 3), "not_saturated": 0},
            saturation_roundtrip,
        ),
    ]


def _divisors_by_minors(dense: list[list[int]]) -> list[int]:
    """Smith divisors as quotients of the gcds of each level of minors."""
    table = zsymbols.minors(dense)
    out = []
    prev = 1
    for k in range(1, min(len(dense), len(dense[0])) + 1):
        g = gcd(*(m for idx, level in table.items() if len(idx) == k for m in level))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _suite_building(n: int, q: int) -> list[CheckSpec]:
    st_rank = q ** (n * (n - 1) // 2)

    def top_homology() -> dict:
        st = building.steinberg(n, q)
        prof = homology_profile(st.cx)
        return {
            "betti": prof[n - 2].betti,
            "torsion": list(prof[n - 2].torsion),
            "below": [str(prof[d]) for d in range(-1, n - 2)],
        }

    def unipotent_snf() -> list[int]:
        st = building.steinberg(n, q)
        _, mat = building.unipotent_basis_matrix(st)
        return list(snf.smith_normal_form(mat).divisors)

    return [
        CheckSpec(
            "solomon-tits-rank",
            f"building homology for n={n} q={q} is Z^{st_rank} in degree {n - 2} only",
            {"betti": st_rank, "torsion": [], "below": ["0"] * (n - 1)},
            top_homology,
        ),
        CheckSpec(
            "unipotent-classes-form-basis",
            "apartment classes over unipotent matrices have all-ones Smith form",
            [1] * st_rank,
            unipotent_snf,
        ),
    ]


def _suite_bar(n: int, q: int) -> list[CheckSpec]:
    def exactness() -> dict:
        rep = barres.verify_bar_exactness(n, q)
        return {
            "ok": rep["ok"],
            "top_kernel_rank": rep["top_kernel_rank"],
            "alternating_sum": rep["alternating_sum"],
        }

    expected_rank = q ** (n * (n - 1))
    return [
        CheckSpec(
            "decomposition-complex-exact",
            f"decomposition complex for n={n} q={q} is exact below the top kernel",
            {"ok": True, "top_kernel_rank": expected_rank, "alternating_sum": expected_rank},
            exactness,
        )
    ]


def _suite_rank2(q: int) -> list[CheckSpec]:
    def surjectivity() -> dict:
        rep = barres.rank2_e1_surjectivity(q)
        return {
            "coinvariants": str(rep.e110),
            "image_gcd": rep.image_gcd,
            "witness_hits_generator": abs(rep.witness_value) == 1,
            "surjective": rep.surjective,
        }

    return [
        CheckSpec(
            "product-map-onto-integers",
            f"rank-2 pairing for q={q}: chamber x Steinberg coinvariants map onto Z",
            {
                "coinvariants": "Z",
                "image_gcd": 1,
                "witness_hits_generator": True,
                "surjective": True,
            },
            surjectivity,
        )
    ]


def _suite_coinv() -> list[CheckSpec]:
    cases = [
        ("gl", 2, 2),
        ("gl", 2, 3),
        ("gl", 3, 2),
        ("sl", 2, 3),
    ]

    def coinv_for(kind: str, n: int, q: int) -> Callable[[], str]:
        def run() -> str:
            st = building.steinberg(n, q)
            gens = building.GROUP_GENERATORS[kind](n, q)
            mats = [actions.st_action_matrix(st, g) for g in gens]
            return str(actions.coinvariants(st.rank, mats))

        return run

    specs = [
        CheckSpec(
            "steinberg-coinvariants-vanish",
            f"{kind.upper()}_{n}(F_{q}) coinvariants of the Steinberg lattice are 0",
            "0",
            coinv_for(kind, n, q),
        )
        for kind, n, q in cases
    ]
    specs += [
        CheckSpec(
            "borel-coinvariants-are-integers",
            f"upper-triangular coinvariants of St for n={n} q={q} equal Z",
            "Z",
            coinv_for("borel", n, q),
        )
        for n, q in [(2, 2), (2, 3), (3, 2)]
    ]
    return specs


def _suite_symbols(seed: int, count: int) -> list[CheckSpec]:
    def reduction_batch(n: int) -> Callable[[], dict]:
        def run() -> dict:
            rng = random.Random(seed + n)
            not_unimodular = 0
            eval_mismatch = 0
            no_descent = 0
            for _ in range(count):
                vectors = tuple(
                    tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
                )
                if any(all(x == 0 for x in v) for v in vectors):
                    continue
                trace: list = []
                red = zsymbols.reduce_and_verify(vectors, trace=trace)
                not_unimodular += red.not_unimodular
                if not red.evaluation_matches:
                    eval_mismatch += 1
                if any(child >= parent for parent, child in trace):
                    no_descent += 1
            return {
                "not_unimodular": not_unimodular,
                "eval_mismatch": eval_mismatch,
                "descent_violations": no_descent,
            }

        return run

    return [
        CheckSpec(
            "determinant-descent-reduction",
            f"random degree-{n} symbols reduce to unimodular terms with equal evaluation",
            {"not_unimodular": 0, "eval_mismatch": 0, "descent_violations": 0},
            reduction_batch(n),
        )
        for n in (2, 3)
    ]


def _suite_bykovskii(seed: int, bases: int) -> list[CheckSpec]:
    def x1_zero(n: int) -> Callable[[], int]:
        def run() -> int:
            rng = random.Random(seed + n)
            failures = 0
            for _ in range(bases):
                basis = zsymbols.random_unimodular_basis(n, rng)
                failures += sum(1 for image in _x1_images(n, basis) if image)
            return failures

        return run

    def x2_zero() -> dict:
        rng = random.Random(seed + 99)
        dd_failures = 0
        psi_failures = 0
        shapes = 0
        for lines in _x2_instances(rng):
            shapes += 1
            second = zsymbols.byk_delta_combination(zsymbols.byk_delta(lines))
            if second:
                dd_failures += 1
            if zsymbols.byk_psi(second):
                psi_failures += 1
        return {"shapes": shapes, "dd_failures": dd_failures, "psi_failures": psi_failures}

    specs = [
        CheckSpec(
            "relation-image-vanishes-x1",
            f"deletion images of single-augmentation shapes evaluate to zero (n={n})",
            0,
            x1_zero(n),
        )
        for n in (2, 3, 4)
    ]
    specs.append(
        CheckSpec(
            "relation-image-vanishes-x2",
            "double-augmentation shapes: deletion squares to zero and evaluates to zero",
            {"shapes": 20, "dd_failures": 0, "psi_failures": 0},
            x2_zero,
        )
    )
    return specs


def _x1_instances(n: int, basis) -> list[tuple]:
    return [
        partsix.shape_lines(shape, n, eps, basis)[0]
        for shape in ("x1-i", "x1-ii")
        if n >= partsix.shape_arity(shape)
        for eps in product((1, -1), repeat=partsix.shape_arity(shape))
    ]


def _x1_images(n: int, basis) -> list[dict]:
    """psi(delta(lines)) for every single-augmentation instance over one basis.

    Sign patterns eps and -eps give the same lines, so each distinct
    instance is imaged once and its image listed for both. The instances
    over one basis share most of their deletion terms, so each distinct
    symbol is evaluated once, and their spans share one `spans` memo of
    Plücker keys (`zsymbols.span_key`); both caches live only as long as
    this call.
    """
    spans: dict = {}
    evaluate = lru_cache(maxsize=None)(lambda symbol: zsymbols.apartment_eval(symbol, spans))
    instances = _x1_instances(n, basis)
    images = {lines: linear_extend(zsymbols.byk_delta(lines), evaluate) for lines in dict.fromkeys(instances)}
    return [images[lines] for lines in instances]


def _x2_instances(rng: random.Random):
    for reps in range(5):
        for shape in ("x2-i", "x2-ii", "x2-iii", "x2-iv"):
            n = partsix.shape_arity(shape)
            basis = zsymbols.random_unimodular_basis(n, rng)
            eps = tuple(rng.choice((1, -1)) for _ in range(6))
            yield partsix.shape_lines(shape, n, eps[:n], basis)[0]


def _suite_barset(n: int, seed: int, count: int) -> list[CheckSpec]:
    """Restricted partition complexes: every restriction shape on at most n
    labels, and `count` random restrictions on n + 2 labels.

    Every instance is counted. Each distinct unit partition is built and
    checked once per call: two restrictions with equal
    `partsix.restriction_units` give equal complexes, so both checks share
    one memo of each unit partition's result, which lives as long as this
    call's checks.
    """
    spherical: dict[tuple, bool] = {}

    def check_size() -> None:
        if n < 1:
            raise ValueError(f"barset needs n >= 1, got n={n}")

    def is_sphere(labels, rsets) -> bool:
        units = partsix.restriction_units(labels, rsets)
        if units not in spherical:
            zc = partsix.zcomplex(labels, rsets)
            ok = partsix.zcomplex_is_spherical(zc)
            if ok:
                partsix.zcomplex_poset_iso(zc)
            spherical[units] = ok
        return spherical[units]

    def exhaustive() -> dict:
        check_size()
        instances = 0
        failures = 0
        for size in range(1, n + 1):
            for sizes in _partition_multisets(size):
                rsets, at = [], 0
                for k in sizes:
                    rsets.append(frozenset(range(at, at + k)))
                    at += k
                instances += 1
                failures += not is_sphere(range(size), rsets)
        return {"instances": instances, "failures": failures}

    def randomized() -> dict:
        check_size()
        rng = random.Random(seed)
        failures = 0
        for _ in range(count):
            failures += not is_sphere(*partsix.random_restriction(n + 2, rng))
        return {"instances": count, "failures": failures}

    expected_instances = sum(len(_partition_multisets(s)) for s in range(1, n + 1))
    return [
        CheckSpec(
            "block-partition-homology-spherical",
            f"restricted partition complexes on at most {n} labels are spheres",
            {"instances": expected_instances, "failures": 0},
            exhaustive,
        ),
        CheckSpec(
            "block-partition-random-instances",
            f"{count} random restriction instances on {n + 2} labels are spheres",
            {"instances": count, "failures": 0},
            randomized,
        ),
    ]


def _partition_multisets(total: int) -> list[tuple[int, ...]]:
    def parts(remaining: int, minimum: int):
        yield ()
        for k in range(minimum, remaining + 1):
            for rest in parts(remaining - k, k):
                yield (k,) + rest

    return sorted(set(parts(total, 1)))


def _suite_part6(n: int, shape: str, count: int, seed: int) -> list[CheckSpec]:
    frozen = 37 if (shape == "all" and n == 4) else None

    def claims() -> dict:
        checks = partsix.part6_claims(n, "all" if shape == "all" else (shape,))
        out = {"failures": sum(0 if c["ok"] else 1 for c in checks)}
        if frozen is not None:
            out["checks"] = len(checks)
        return out

    def certificate() -> dict:
        out = partsix.kappa_eta_certificate()
        return {"ok": out["ok"], "final_step": out["steps"][-1]}

    def identities() -> dict:
        out = partsix.verify_double_identities(samples=count, seed=seed)
        return {"cells": out["cells"], "ok": out["ok"]}

    expected_claims = {"failures": 0}
    if frozen is not None:
        expected_claims["checks"] = frozen
    return [
        CheckSpec(
            "partition-claims-hold",
            f"every shape and sign pattern for n={n} verifies",
            expected_claims,
            claims,
        ),
        CheckSpec(
            "cycle-certificate",
            "distinguished two-block cycle certificate verifies end to end",
            {"ok": True, "final_step": "kappa-generates"},
            certificate,
        ),
        CheckSpec(
            "double-complex-identities",
            "product rule and boundary squares on random localized cells",
            {"cells": count, "ok": True},
            identities,
        ),
    ]


def _suite_bounds() -> list[CheckSpec]:
    golden = [
        ("A1", "field", 0),
        ("A2", "field", 0),
        ("A5", "field", 2),
        ("A10", "field", 4),
        ("B2", "field", 0),
        ("B5", "field", 1),
        ("C3", "field", 0),
        ("C8", "field", 3),
        ("BC2", "field", 0),
        ("BC7", "field", 2),
        ("D3", "field", 1),
        ("D4", "field", 0),
        ("D7", "field", 2),
        ("G2", "field", 0),
        ("E8", "field", 0),
        ("empty", "field", -1),
        ("A1xA1", "field", 1),
        ("A2xB3xD5", "field", 3),
        ("A4", "integral", 1),
        ("A4xA7", "integral", 4),
    ]

    def table() -> list[int]:
        return [bounds.vanishing_bound(text, mode) for text, mode, _ in golden]

    def sweep() -> int:
        return bounds.floor_inequality_sweep(20, (2, 3, 4, 5))

    return [
        CheckSpec(
            "vanishing-bound-table",
            "twenty descriptor bounds match hand-evaluated values",
            [v for _, _, v in golden],
            table,
        ),
        CheckSpec(
            "floor-inequality-sweep",
            "1 + floor(a/d) + floor(b/d) >= floor((a+b+1)/d) on the stated grid",
            4 * 41 * 41,
            sweep,
        ),
    ]


SUITES: dict[str, Suite] = {
    "linalg": Suite(_suite_linalg, {"seed": 0, "count": 60}),
    "building": Suite(_suite_building, {"n": 3, "q": 2}),
    "bar": Suite(_suite_bar, {"n": 2, "q": 3}),
    "rank2": Suite(_suite_rank2, {"q": 2}),
    "coinv": Suite(_suite_coinv, {}),
    "symbols": Suite(_suite_symbols, {"seed": 0, "count": 30}),
    "bykovskii": Suite(_suite_bykovskii, {"seed": 0, "bases": 10}),
    "barset": Suite(_suite_barset, {"n": 5, "seed": 0, "count": 10}),
    "part6": Suite(_suite_part6, {"n": 4, "shape": "all", "count": 80, "seed": 0}),
    "bounds": Suite(_suite_bounds, {}),
}
