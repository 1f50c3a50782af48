import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from titshom import complexes, partsix, reports, zsymbols
from titshom.cli import main
from titshom.errors import UnknownSuite
from titshom.reports import CheckSpec, SuiteReport, run_suite


runner = CliRunner()


def test_bounds_values():
    assert runner.invoke(main, ["bounds", "A5"]).output.strip() == "2"
    assert runner.invoke(main, ["bounds", "A4", "--mode", "integral"]).output.strip() == "1"
    assert runner.invoke(main, ["bounds", "empty"]).output.strip() == "-1"
    assert runner.invoke(main, ["bounds", "A2xB3xD5"]).output.strip() == "3"
    bad = runner.invoke(main, ["bounds", "Z9"])
    assert bad.exit_code != 0


def test_reduce_symbol_verifies():
    res = runner.invoke(main, ["reduce", "--symbol", "1,0;1,2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["verified"] is True
    assert payload["input"] == [[1, 0], [1, 2]]
    assert sum(t["coeff"] for t in payload["terms"]) >= 1
    for term in payload["terms"]:
        assert len(term["vectors"]) == 2


def test_reduce_rejects_ragged_symbol():
    res = runner.invoke(main, ["reduce", "--symbol", "1,0;1"])
    assert res.exit_code != 0
    res = runner.invoke(main, ["reduce", "--symbol", "1,0,0;0,1,0"])
    assert res.exit_code != 0


@pytest.mark.parametrize("text, entry", [("1,x;2,3", "'x'"), ("1,2,;3,4", "''")])
def test_reduce_rejects_non_integer_entry(tmp_path, text, entry):
    res = runner.invoke(main, ["reduce", "--symbol", text])
    assert res.exit_code == 2
    assert f"entry {entry} of symbol {text!r} is not an integer" in res.output
    batch = tmp_path / "symbols.txt"
    batch.write_text(f"1,0;1,2\n{text}\n")
    res = runner.invoke(main, ["reduce", "--batch", str(batch)])
    assert res.exit_code == 2
    assert f"symbol {text!r}" in res.output


def test_reduce_rejects_empty_symbol():
    res = runner.invoke(main, ["reduce", "--symbol", ""])
    assert res.exit_code == 2
    assert "empty row in symbol ''" in res.output


def test_reduce_batch(tmp_path):
    batch = tmp_path / "symbols.txt"
    batch.write_text("1,0;1,2\n3,1;1,2\n")
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["reduce", "--batch", str(batch), "--report", str(out)])
    assert res.exit_code == 0
    lines = [json.loads(l) for l in res.output.splitlines()]
    assert len(lines) == 2 and all(r["verified"] for r in lines)
    assert json.loads(out.read_text()) == lines


def test_reduce_rejects_empty_batch(tmp_path):
    batch = tmp_path / "symbols.txt"
    out = tmp_path / "report.json"
    for text in ("", "\n  \n"):
        batch.write_text(text)
        res = runner.invoke(main, ["reduce", "--batch", str(batch), "--report", str(out)])
        assert res.exit_code == 2
        assert "holds no symbol" in res.output
        assert not out.exists()


def _identity_symbol(n: int) -> str:
    return ";".join(",".join(str(int(i == j)) for j in range(n)) for i in range(n))


def test_reduce_refuses_a_symbol_past_the_apartment_ordering_budget(tmp_path, monkeypatch):
    # 7! = 5040 orderings, while its C(14, 7) = 3432 minors stay within the budget
    out = tmp_path / "report.json"
    monkeypatch.setattr(complexes, "CELL_BUDGET", 5039)
    res = runner.invoke(main, ["reduce", "--symbol", _identity_symbol(7), "--report", str(out)])
    assert res.exit_code == 1
    assert "5040 apartment orderings exceed budget 5039" in res.output
    assert not out.exists()


def _refuse_plan(n, k):
    raise AssertionError("a level of minors was started")


def test_reduce_refuses_a_symbol_past_the_minors_budget(tmp_path, monkeypatch):
    # C(24, 12) minors at the default budget, refused before any is taken
    out = tmp_path / "report.json"
    monkeypatch.setattr(zsymbols, "_laplace_plan", _refuse_plan)
    res = runner.invoke(main, ["reduce", "--symbol", _identity_symbol(12), "--report", str(out)])
    assert res.exit_code == 1
    assert f"2704156 minors exceed budget {complexes.CELL_BUDGET}" in res.output
    assert not out.exists()


def _refuse_partitions(items):
    raise AssertionError("partitions were enumerated")


def test_part6_refuses_rank_nine_by_the_partition_cell_budget(tmp_path, monkeypatch):
    # the x0 complex on 9 units, refused before any partition is enumerated
    out = tmp_path / "report.json"
    monkeypatch.setattr(partsix, "_unordered_partitions", _refuse_partitions)
    res = runner.invoke(main, ["part6", "--n", "9", "--report", str(out)])
    assert res.exit_code == 1
    assert f"7087261 partition cells exceed budget {complexes.CELL_BUDGET}" in res.output
    assert not out.exists()


def test_reduce_needs_exactly_one_source():
    assert runner.invoke(main, ["reduce"]).exit_code != 0


def test_suite_unknown_name():
    res = runner.invoke(main, ["suite", "nosuch"])
    assert res.exit_code == 2
    with pytest.raises(UnknownSuite):
        run_suite("nosuch")


def test_suite_report_files(tmp_path):
    rep_path = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    res = runner.invoke(
        main,
        ["suite", "bounds", "--report", str(rep_path), "--csv", str(csv_path), "--stable-timings"],
    )
    assert res.exit_code == 0
    payload = json.loads(rep_path.read_text())
    assert payload["schema"] == 1
    assert payload["all_pass"] is True
    assert all(c["elapsed_ms"] == 0 for c in payload["checks"])
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("suite,claim,description")
    assert len(rows) == 1 + len(payload["checks"])


def test_reports_byte_stable_across_runs():
    a = run_suite("bounds").to_json(stable_timings=True)
    b = run_suite("bounds").to_json(stable_timings=True)
    assert a == b


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(reports.SUITES))
def test_suite_report_matches_golden(name):
    """Default-parameter reports stay byte-identical to the committed ones."""
    got = run_suite(name).to_json(stable_timings=True).encode()
    assert got == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize(
    "args, name",
    [
        (["part6", "--n", "4"], "part6-n4"),
        (["part6", "--n", "5", "--shape", "x1-ii"], "part6-n5-x1-ii"),
        (["reduce", "--symbol", "3,1;1,2"], "reduce-2x2"),
        (["reduce", "--symbol", "2,1,0;0,3,1;1,0,5"], "reduce-3x3"),
        (["part6", "--n", "7", "--shape", "x2-iv"], "part6-n7-x2-iv"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_command_stdout_matches_golden(args, name):
    """The printed output of these commands stays byte-identical."""
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (GOLDEN / "cli" / f"{name}.txt").read_bytes()


@pytest.mark.parametrize(
    "name, flags",
    [
        ("building", ["--n", "2", "--q", "3"]),
        ("bar", ["--n", "2", "--q", "2"]),
        ("rank2", ["--q", "2"]),
        ("bykovskii", ["--seed", "3", "--bases", "1"]),
        ("barset", ["--n", "3", "--seed", "1", "--count", "2"]),
    ],
)
def test_alias_report_matches_suite(tmp_path, name, flags):
    reports_written = []
    for args in ([name], ["suite", name]):
        out = tmp_path / f"{len(reports_written)}.json"
        res = runner.invoke(main, args + flags + ["--stable-timings", "--report", str(out)])
        assert res.exit_code == 0, res.output
        reports_written.append(out.read_bytes())
    assert reports_written[0] == reports_written[1]
    params = json.loads(reports_written[1])["params"]
    for flag, value in zip(flags[::2], flags[1::2]):
        assert params[flag[2:]] == int(value)


def test_config_fills_unset_flags(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# defaults\ncount = 3\nseed = 5\n")
    rep_path = tmp_path / "r.json"
    res = runner.invoke(
        main,
        ["suite", "barset", "--config", str(cfg), "--seed", "7", "--n", "4",
         "--report", str(rep_path), "--stable-timings"],
    )
    assert res.exit_code == 0
    payload = json.loads(rep_path.read_text())
    # config supplied count, the explicit flag beat the config seed
    assert payload["params"]["count"] == 3
    assert payload["params"]["seed"] == 7
    assert payload["params"]["n"] == 4


@pytest.mark.parametrize("line", ["cuont = 3", "workers = 4"])
def test_config_rejects_unknown_keys(tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seed = 1\n{line}\n")
    res = runner.invoke(main, ["suite", "symbols", "--config", str(cfg)])
    assert res.exit_code == 2
    key = line.split("=")[0].strip()
    assert f"unknown parameter(s): {key};" in res.output
    assert "valid keys: seed, count" in res.output


@pytest.mark.parametrize("command", [["suite", "building"], ["building"]], ids=["suite", "alias"])
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = x\nq = 2\n")
    rep_path = tmp_path / "r.json"
    res = runner.invoke(main, command + ["--config", str(cfg), "--report", str(rep_path)])
    assert res.exit_code == 2, res.output
    assert "config key 'n': 'x' is not of type int" in res.output
    assert not rep_path.exists()


def test_config_keeps_a_string_option_a_string(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 3\nshape = x1-ii\ncount = 2\n")
    rep_path = tmp_path / "r.json"
    res = runner.invoke(
        main, ["suite", "part6", "--config", str(cfg), "--report", str(rep_path), "--stable-timings"]
    )
    assert res.exit_code == 0, res.output
    assert json.loads(rep_path.read_text())["params"] == {"n": 3, "shape": "x1-ii", "count": 2, "seed": 0}


@pytest.mark.parametrize(
    "args, key, valid",
    [
        (["suite", "coinv", "--n", "3"], "n", "none"),
        (["suite", "building", "--n", "2", "--q", "2", "--seed", "1"], "seed", "n, q"),
        (["suite", "bar", "--shape", "x1-i"], "shape", "n, q"),
    ],
    ids=["coinv-n", "building-seed", "bar-shape"],
)
def test_suite_rejects_a_flag_it_does_not_read(tmp_path, args, key, valid):
    rep_path = tmp_path / "r.json"
    res = runner.invoke(main, args + ["--report", str(rep_path)])
    assert res.exit_code == 2, res.output
    assert f"unknown parameter(s): {key}; valid keys: {valid}" in res.output
    assert not rep_path.exists()


@pytest.mark.parametrize("args", [["suite", "bar"], ["bar"]], ids=["suite-bar", "bar"])
def test_budget_is_not_a_flag(args):
    res = runner.invoke(main, args + ["--budget", "5"])
    assert res.exit_code == 2
    assert "No such option '--budget'" in res.output


def test_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not a pair\n")
    res = runner.invoke(main, ["suite", "bounds", "--config", str(cfg)])
    assert res.exit_code != 0


def test_part6_claim_table():
    res = runner.invoke(main, ["part6", "--n", "4"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["all_pass"] is True
    assert len(payload["claims"]) == 37
    badcases = [c for c in payload["claims"] if "badcase" in c]
    assert len(badcases) == 8
    assert all(c["badcase"]["homology"] == "Z" for c in badcases)
    unavailable = runner.invoke(main, ["part6", "--n", "3", "--shape", "x2-iv"])
    assert unavailable.exit_code != 0


def test_part6_rejects_rank_below_one(tmp_path):
    for n in ("0", "-2"):
        res = runner.invoke(main, ["part6", "--n", n])
        assert res.exit_code == 2, res.output
        assert "must be at least 1" in res.output
    rep_path = tmp_path / "r.json"
    res = runner.invoke(main, ["suite", "part6", "--n", "0", "--count", "5",
                               "--report", str(rep_path), "--stable-timings"])
    assert res.exit_code != 0
    assert json.loads(rep_path.read_text())["all_pass"] is False


@pytest.mark.parametrize("command", ["bar", "building", "barset"])
def test_rank_below_one_names_the_input(command):
    res = runner.invoke(main, [command, "--n", "0"])
    assert res.exit_code != 0
    assert "error: ValueError:" in res.output and "n=0" in res.output


def test_coinv_direct_group():
    res = runner.invoke(main, ["coinv", "--group", "gl(2,2)"])
    assert res.exit_code == 0
    assert json.loads(res.output)["coinvariants"] == "0"
    res = runner.invoke(main, ["coinv", "--group", "borel(2,2)"])
    assert json.loads(res.output)["coinvariants"] == "Z"
    # generated over an F_2-basis of F_4, SL_2(F_4) leaves no coinvariants
    res = runner.invoke(main, ["coinv", "--group", "sl(2,4)"])
    assert json.loads(res.output)["coinvariants"] == "0"
    res = runner.invoke(main, ["coinv", "--group", "gl(2,2)", "--module", "trivial"])
    assert json.loads(res.output)["coinvariants"] == "Z"
    assert runner.invoke(main, ["coinv", "--group", "sp(4,2)"]).exit_code != 0
    # ValueError is a usage error (exit 2), TitshomError a plain one (exit 1)
    for group, code, message in [
        ("gl(0,2)", 2, "n=0"),
        ("gl(2,6)", 2, "6 is not a prime power"),
        ("gl(2,1)", 2, "1 is not a prime power"),
        ("gl(2,512)", 1, "q = 512 exceeds"),  # FieldTooLarge
        ("gl(9,2)", 1, "exceed budget"),  # BudgetExceeded
    ]:
        res = runner.invoke(main, ["coinv", "--group", group])
        assert res.exit_code == code, (group, res.output)
        assert message in res.output and "Traceback" not in res.output, group
        assert isinstance(res.exception, SystemExit), group


@pytest.mark.parametrize(
    "args, message",
    [
        (["--group", "gl(2,2)", "--config", "CFG"], "--config applies only without --group"),
        (["--group", "gl(2,2)", "--stable-timings"], "--stable-timings applies only without --group"),
        (["--module", "trivial"], "--module applies only with --group"),
    ],
    ids=["group-config", "group-stable-timings", "module-without-group"],
)
def test_coinv_rejects_a_flag_that_changes_nothing(tmp_path, args, message):
    # the config holds a key the suite refuses, so reading it would fail too
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 3\n")
    rep_path = tmp_path / "r.json"
    args = [str(cfg) if a == "CFG" else a for a in args]
    res = runner.invoke(main, ["coinv", *args, "--report", str(rep_path)])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not rep_path.exists()


def test_building_subcommand_quick():
    res = runner.invoke(main, ["building", "--n", "2", "--q", "3"])
    assert res.exit_code == 0
    assert "all checks passed" in res.output


def test_failure_exit_code_and_exception_capture():
    def boom():
        raise RuntimeError("synthetic")

    specs = [CheckSpec("claim-a", "always explodes", 1, boom)]
    report = SuiteReport("demo", {}, [])
    result = None
    # route through the runner so exceptions become failing checks
    orig = reports.SUITES.get("demo")
    reports.SUITES["demo"] = lambda params: specs
    try:
        result = run_suite("demo")
    finally:
        if orig is None:
            del reports.SUITES["demo"]
        else:
            reports.SUITES["demo"] = orig
    assert not result.all_pass
    assert "RuntimeError" in result.checks[0].computed
    assert report.all_pass  # empty report passes vacuously


def test_every_registered_suite_has_specs():
    for name, factory in reports.SUITES.items():
        specs = factory({})
        assert specs, name
        assert all(isinstance(s, CheckSpec) for s in specs)
        slugs = [s.claim for s in specs]
        assert all(s == s.lower() and " " not in s for s in slugs), name
