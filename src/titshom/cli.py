"""Batch front end: verification suites, symbol reduction, bounds calculator.

Every subcommand prints a human-readable verdict and exits 0 only when all
checks pass. `--report PATH` writes the byte-stable JSON form; config files
are key=value lines whose values lose to explicit flags. `suite NAME` runs
any registered suite; the alias subcommands (`building`, `bar`, `rank2`,
`bykovskii`, `barset`) run one suite each and are generated from the table
below, each with an option per parameter its suite declares in
`reports.SUITES`. A flag or config key that the suite does not read is a
usage error.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from . import actions
from . import bounds as bounds_mod
from . import partsix, reports, zsymbols
from .errors import TitshomError, UnknownParameter, UnknownSuite


def _read_config(path: str | None) -> dict:
    """key=value lines, each value converted by the type of its option; a
    key with no option stays a string, for the suite to refuse by name."""
    if not path:
        return {}
    out: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.BadParameter(f"expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip('"')
        convert = _PARAM_OPTIONS.get(key, {}).get("type", str)
        try:
            out[key] = convert(value)
        except ValueError:
            raise click.UsageError(
                f"config key {key!r}: {value!r} is not of type {convert.__name__}"
            ) from None
    return out


def _suite_params(config: dict, **flags) -> dict:
    """Config fills in params the flags left unset; explicit flags win."""
    return {**config, **{key: value for key, value in flags.items() if value is not None}}


# suite parameter -> its command-line option; every one is also a config key
_PARAM_OPTIONS = {
    "n": dict(type=int, help="Ambient rank, or the largest label count (barset)."),
    "q": dict(type=int, help="Field size."),
    "seed": dict(type=int, help="Random seed."),
    "count": dict(type=int, help="Random instances."),
    "bases": dict(type=int, help="Random bases per rank."),
    "shape": dict(type=str, help="One augmentation shape tag, or 'all'."),
}

# alias subcommand (a name in reports.SUITES) -> its help
_ALIASES = {
    "building": "Top-homology rank and unipotent basis checks for one (n, q).",
    "bar": "Exactness of the ordered-decomposition complex for one (n, q).",
    "rank2": "Rank-2 chamber pairing surjectivity for one q.",
    "bykovskii": "Presentation relations: deletion images vanish exactly.",
    "barset": "Restricted partition complexes are spheres; oracle cross-check.",
}


def _print_report(rep: reports.SuiteReport) -> None:
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        click.echo(f"[{status}] {c.claim}: {c.description} ({c.elapsed_ms} ms)")
        if not c.passed:
            click.echo("  expected: " + json.dumps(reports._jsonable(c.expected), sort_keys=True))
            click.echo("  computed: " + json.dumps(reports._jsonable(c.computed), sort_keys=True))
    click.echo("all checks passed" if rep.all_pass else "some checks FAILED")


def _finish(rep: reports.SuiteReport, report: str | None, csv: str | None, stable: bool) -> None:
    _print_report(rep)
    if report:
        Path(report).write_text(rep.to_json(stable_timings=stable))
    if csv:
        Path(csv).write_text(rep.to_csv(stable_timings=stable))
    if not rep.all_pass:
        sys.exit(1)


def _run(name: str, params: dict, report: str | None, csv: str | None = None,
         stable: bool = False) -> None:
    try:
        rep = reports.run_suite(name, params)
    except (UnknownSuite, UnknownParameter) as exc:
        raise click.UsageError(str(exc))
    except TitshomError as exc:
        raise click.ClickException(str(exc))
    _finish(rep, report, csv, stable)


def _param_options(keys):
    """Decorator adding one `--KEY` option per suite parameter."""
    def decorate(fn):
        for key in reversed(keys):
            fn = click.option(f"--{key}", default=None, **_PARAM_OPTIONS[key])(fn)
        return fn
    return decorate


report_option = click.option("--report", type=click.Path(dir_okay=False), default=None,
                             help="Write the JSON report here.")
stable_option = click.option("--stable-timings", is_flag=True,
                             help="Zero elapsed_ms fields for byte-identical reports.")
config_option = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                             default=None, help="key=value defaults; flags win.")


@click.group()
def main() -> None:
    """Exact homology checks for buildings, partition complexes, and bounds."""


_GROUP_RE = re.compile(r"(gl|sl|borel)\((\d+),(\d+)\)\Z")


@main.command()
@click.option("--group", "group_spec", default=None,
              help="gl(N,Q), sl(2,Q) or borel(N,Q); omit to run the full suite.")
@click.option("--module", "module_spec", default="steinberg",
              type=click.Choice(["steinberg", "trivial"]), show_default=True,
              help="Module acted on; only with --group.")
@report_option
@stable_option
@config_option
def coinv(group_spec, module_spec, report, stable_timings, config):
    """Coinvariants of the Steinberg lattice under matrix group actions."""
    if group_spec is None:
        source = click.get_current_context().get_parameter_source("module_spec")
        if source is not ParameterSource.DEFAULT:
            raise click.UsageError("--module applies only with --group")
        _run("coinv", _suite_params(_read_config(config)), report, stable=stable_timings)
        return
    for flag, value in (("--config", config), ("--stable-timings", stable_timings)):
        if value:
            raise click.UsageError(f"{flag} applies only without --group")
    m = _GROUP_RE.match(group_spec.strip().lower())
    if not m:
        raise click.BadParameter("group must look like gl(3,2), sl(2,3) or borel(3,2)")
    kind, n, q = m.group(1), int(m.group(2)), int(m.group(3))
    if n < 1:
        raise click.BadParameter(f"a matrix group needs n >= 1, got n={n}")
    if kind == "sl" and n != 2:
        raise click.BadParameter("special linear generators are only wired for rank 2")
    try:
        group = actions.matrix_group_coinvariants(kind, n, q, module_spec)
    except TitshomError as exc:
        raise click.ClickException(str(exc))
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    payload = {"group": group_spec, "module": module_spec, "coinvariants": str(group)}
    click.echo(json.dumps(payload, sort_keys=True))
    if report:
        Path(report).write_text(json.dumps(payload, sort_keys=True) + "\n")


def _parse_symbol(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for row in text.strip().split(";"):
        row = row.strip()
        if not row:
            raise click.BadParameter(f"empty row in symbol {text!r}")
        entries = []
        for x in row.split(","):
            try:
                entries.append(int(x))
            except ValueError:
                raise click.BadParameter(
                    f"entry {x.strip()!r} of symbol {text!r} is not an integer"
                ) from None
        rows.append(tuple(entries))
    if len({len(r) for r in rows}) != 1 or len(rows) != len(rows[0]):
        raise click.BadParameter(f"symbol {text!r} must be square: n rows of n entries")
    return tuple(rows)


def _reduce_one(vectors) -> dict:
    red = zsymbols.reduce_and_verify(vectors)
    return {
        "input": [list(v) for v in vectors],
        "terms": [
            {"coeff": coeff, "vectors": [list(v) for v in term.lines]}
            for coeff, term in red.terms
        ],
        "unimodular": not red.not_unimodular,
        "evaluation_matches": red.evaluation_matches,
        "verified": red.verified,
    }


@main.command()
@click.option("--symbol", default=None, help='Rows are the vectors: "a11,a12;a21,a22".')
@click.option("--batch", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File with one symbol per line, same syntax.")
@report_option
def reduce(symbol, batch, report):
    """Rewrite integer apartment symbols as verified unimodular combinations."""
    if (symbol is None) == (batch is None):
        raise click.UsageError("provide exactly one of --symbol or --batch")
    texts = [symbol] if symbol is not None else [
        line for line in Path(batch).read_text().splitlines() if line.strip()
    ]
    if not texts:
        raise click.UsageError(f"batch file {batch!r} holds no symbol")
    results = []
    for text in texts:
        try:
            results.append(_reduce_one(_parse_symbol(text)))
        except TitshomError as exc:
            raise click.ClickException(f"symbol {text!r}: {exc}")
    for res in results:
        click.echo(json.dumps(res, sort_keys=True))
    if report:
        Path(report).write_text(json.dumps(results, sort_keys=True) + "\n")
    if not all(r["verified"] for r in results):
        sys.exit(1)


@main.command()
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--shape", default="all", show_default=True,
              help="One augmentation shape tag, or 'all'.")
@report_option
def part6(n, shape, report):
    """Per-claim verdict table for the localized partition complexes."""
    try:
        checks = partsix.part6_claims(n, "all" if shape == "all" else (shape,))
    except TitshomError as exc:
        raise click.ClickException(str(exc))
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    table = []
    for c in checks:
        row = {
            "claim": c["claim"],
            "shape": c["shape"],
            "n": c["n"],
            "eps": list(c["eps"]),
            "d": c["d"],
            "profile": {str(deg): str(h) for deg, h in sorted(c["profile"].items())},
            "ok": c["ok"],
        }
        if "badcase" in c:
            row["badcase"] = {
                "homology": str(c["badcase"]["homology"]),
                "class_generates": c["badcase"]["class_generates"],
            }
        table.append(row)
    payload = {
        "schema": reports.SCHEMA_VERSION,
        "n": n,
        "shape": shape,
        "claims": table,
        "all_pass": all(r["ok"] for r in table),
    }
    click.echo(json.dumps(payload, sort_keys=True))
    if report:
        Path(report).write_text(json.dumps(payload, sort_keys=True) + "\n")
    if not payload["all_pass"]:
        sys.exit(1)


@main.command()
@click.argument("descriptor")
@click.option("--mode", type=click.Choice(["field", "integral"]), default="field",
              show_default=True)
def bounds(descriptor, mode):
    """Homology vanishing bound for a product of irreducible root systems."""
    try:
        value = bounds_mod.vanishing_bound(descriptor, mode)
    except TitshomError as exc:
        raise click.ClickException(str(exc))
    click.echo(str(value))


@main.command()
@click.argument("name")
@_param_options(tuple(_PARAM_OPTIONS))
@click.option("--csv", type=click.Path(dir_okay=False), default=None,
              help="Write the flat CSV projection here.")
@report_option
@stable_option
@config_option
def suite(name, csv, report, stable_timings, config, **flags):
    """Run one registered check suite by name."""
    _run(name, _suite_params(_read_config(config), **flags), report, csv, stable_timings)


def _add_alias(name: str, help_text: str) -> None:
    @_param_options(tuple(reports.SUITES[name].defaults))
    @report_option
    @stable_option
    @config_option
    def alias(report, stable_timings, config, **flags):
        _run(name, _suite_params(_read_config(config), **flags), report, stable=stable_timings)

    main.command(name, help=help_text)(alias)


for _name, _help in _ALIASES.items():
    _add_alias(_name, _help)


if __name__ == "__main__":
    main()
