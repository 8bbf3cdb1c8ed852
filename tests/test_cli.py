import dataclasses
import os
from pathlib import Path

import pytest

from husrm import cli
from husrm.dataio import dedup_max_utility, format_rule, load_database
from husrm.miner import VARIANTS, mine as real_mine
from husrm.model import InvariantError
from husrm.oracle import OracleConfig, oracle_mine

from conftest import SAMPLE_NATIVE, deep_path_rows, thr


@pytest.fixture
def sample_path(tmp_path):
    path = tmp_path / "sample.usdb"
    path.write_text(SAMPLE_NATIVE, encoding="utf-8")
    return str(path)


def test_mine_sample(sample_path, capsys):
    code = cli.main(["mine", sample_path, "--delta", "0.1", "--minconf", "0.6"])
    out = capsys.readouterr()
    assert code == 0
    lines = out.out.splitlines()
    assert lines == [
        "a ==> c #UTIL: 13 #SUP: 3 #CONF: 0.7500",
        "c,e ==> b #UTIL: 16 #SUP: 1 #CONF: 1.0000",
        "b ==> c #UTIL: 16 #SUP: 2 #CONF: 0.6667",
        "e ==> b #UTIL: 14 #SUP: 1 #CONF: 1.0000",
    ]
    assert "[config] minutil=64/10" in out.err
    assert "[config] threads=" not in out.err
    assert "rules=4" in out.err


def test_mine_sorted_output(sample_path, capsys):
    code = cli.main(["mine", sample_path, "--delta", "0.1", "--sort"])
    assert code == 0
    firsts = [l.split(" ==> ")[0] for l in capsys.readouterr().out.splitlines()]
    assert firsts == ["b", "c,e", "e", "a"]


def test_mine_absolute_minutil_above_total(sample_path, capsys):
    code = cli.main(["mine", sample_path, "--minutil", "64.01"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_mine_rejects_both_threshold_flags(sample_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mine", sample_path, "--delta", "0.1", "--minutil", "5"])
    assert exc.value.code == 2


def test_mine_requires_a_threshold_flag(sample_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mine", sample_path])
    assert exc.value.code == 2


def test_unknown_flag_is_rejected(sample_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mine", sample_path, "--delta", "0.1", "--frobnicate"])
    assert exc.value.code == 2


def test_mine_bad_minconf(sample_path):
    assert cli.main(["mine", sample_path, "--delta", "0.1", "--minconf", "0"]) == 2
    assert cli.main(["mine", sample_path, "--delta", "0.1", "--minconf", "1.5"]) == 2


@pytest.mark.parametrize("command", ["oracle", "verify", "bench"])
@pytest.mark.parametrize("minconf", ["0", "1.5"])
def test_bad_minconf_exits_2_in_every_command(sample_path, capsys, command, minconf):
    assert cli.main([command, sample_path, "--delta", "0.1", "--minconf", minconf]) == 2
    assert "minconf must lie in (0, 1]" in capsys.readouterr().err


def config_lines(err: str) -> list[str]:
    lines = err.splitlines()
    echoed = [line for line in lines if line.startswith("[config] ")]
    assert lines[: len(echoed)] == echoed, "the [config] lines come first"
    return [line.removeprefix("[config] ") for line in echoed]


def sample_config(path, command, *, minconf="6/10", fmt="auto"):
    return [f"command={command}", f"input={path}", f"format={fmt}", "minutil=64/10", f"minconf={minconf}"]


def test_config_echo_of_every_command(sample_path, tmp_path, capsys):
    def echoed(argv):
        assert cli.main(argv) == 0
        return config_lines(capsys.readouterr().err)

    out, stats = tmp_path / "rules.txt", tmp_path / "stats.txt"
    assert echoed(
        ["mine", sample_path, "--delta", "0.1", "--dedup", "--sort", "--out", str(out), "--stats", str(stats)]
    ) == sample_config(sample_path, "mine") + ["dedup=true", "sort=true", f"out={out}", f"stats={stats}"]
    assert echoed(["mine", sample_path, "--delta", "0.1"]) == sample_config(sample_path, "mine") + [
        "dedup=false", "sort=false", "out=-", "stats=<stderr>",
    ]
    assert echoed(["mine", sample_path, "--delta", "0.1", "--out", "-", "--stats", "-"])[-2:] == [
        "out=-", "stats=-",
    ]
    assert echoed(["oracle", sample_path, "--minutil", "6.4", "--minconf", "0.75"]) == sample_config(
        sample_path, "oracle", minconf="75/100"
    ) + ["max_len=8", "out=-"]
    assert echoed(["verify", sample_path, "--delta", "0.1", "--format", "native", "--max-len", "5"]) == (
        sample_config(sample_path, "verify", fmt="native") + ["max_len=5"]
    )
    assert echoed(["bench", sample_path, "--delta", "0.1", "--variants", "rsc, rscr", "--dedup"]) == (
        sample_config(sample_path, "bench") + ["dedup=true", "variants=rsc,rscr", "repeat=1"]
    )
    assert echoed(["stats", sample_path]) == ["command=stats", f"input={sample_path}", "format=auto"]
    gen_out = tmp_path / "g.usdb"
    assert echoed(
        ["gen", "--sequences", "3", "--alphabet", "4", "--avg-len", "2", "--max-len", "5", "--out", str(gen_out)]
    ) == [
        "command=gen", "sequences=3", "alphabet=4", "avg_len=2.0", "max_len=5",
        "util_min=1", "util_max=9", "skew=1.0", "seed=0", f"out={gen_out}",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mine", "--minconf", "0"], "minconf must lie in (0, 1]"),
        (["oracle", "--max-len", "1"], "max_len must be at least 2"),
        (["verify", "--max-len", "1"], "max_len must be at least 2"),
        (["bench", "--variants", "rsc,bogus"], "unknown variant 'bogus'"),
        (["bench", "--variants", ","], "no variants given"),
        (["bench", "--repeat", "0"], "repeat must be positive"),
        (
            ["gen", "--sequences", "5", "--alphabet", "0", "--avg-len", "4", "--max-len", "12"],
            "alphabet_size must be at least 1",
        ),
        (["bench", "--variants", "rsc,rscr,rsc"], "repeated variant 'rsc'"),
        (
            ["gen", "--sequences", "1", "--alphabet", "4", "--avg-len", "2", "--max-len", "5",
             "--skew", "nan"],
            "item_skew must be non-negative",
        ),
        (
            ["gen", "--sequences", "1", "--alphabet", "4", "--avg-len", "1e17",
             "--max-len", "100000000000000000000"],
            "avg_length is too large",
        ),
    ],
)
def test_every_command_echoes_its_config_before_rejecting_it(sample_path, capsys, argv, message):
    if argv[0] != "gen":
        argv = [argv[0], sample_path, "--delta", "0.1", *argv[1:]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(config_lines(err)) == len(lines) - 1 > 5
    assert lines[-1].startswith("error: ") and message in lines[-1]


def test_verify_rejects_max_len_before_mining(sample_path, capsys, monkeypatch):
    calls = []

    def recording_mine(db, cfg):
        calls.append(cfg)
        return real_mine(db, cfg)

    monkeypatch.setattr(cli, "mine", recording_mine)
    assert cli.main(["verify", sample_path, "--delta", "0.1", "--max-len", "1"]) == 2
    assert calls == []
    assert "max_len must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--minutil", "\u0663\u0660\u0660\u0660\u0660", "--minconf", "0.9"],
        ["--minutil", "30000", "--minconf", "\uff10.\uff19"],
        ["--delta", "\uff10.\uff11"],
    ],
)
def test_non_ascii_threshold_digits_exit_2(sample_path, capsys, flags):
    assert cli.main(["mine", sample_path, *flags]) == 2
    assert "not a decimal threshold" in capsys.readouterr().err


def test_threshold_past_the_int_string_limit_exits_2(sample_path, capsys):
    assert cli.main(["mine", sample_path, "--minutil", "1" * 4301]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: not a decimal threshold: 4301 digits"]
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("command", ["mine", "bench"])
def test_delta_scaled_past_the_int_string_limit_exits_2(tmp_path, capsys, command):
    # 0.<4,299 nines> parses, but times the total utility 3,000,000 its
    # numerator has 4,306 digits, too many to echo or write to the stats.
    path = tmp_path / "big.usdb"
    path.write_text("a:1000000 b:2000000\n", encoding="utf-8")
    delta = "0." + "9" * 4299
    assert cli.main([command, str(path), "--delta", delta, "--minconf", "0.5"]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: minutil too long: 4306 digits (at most 4300)"]
    assert "set_int_max_str_digits" not in err


def test_mine_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.usdb"
    bad.write_text("a:1\nbroken\n", encoding="utf-8")
    assert cli.main(["mine", str(bad), "--delta", "0.1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_mine_missing_file_exits_2(tmp_path):
    assert cli.main(["mine", str(tmp_path / "nope.usdb"), "--delta", "0.1"]) == 2


def test_mine_spmf_format(tmp_path, capsys):
    path = tmp_path / "db.txt"
    path.write_text("1[5] -1 2[3] -1 -2 SUtility:8\n", encoding="utf-8")
    code = cli.main(["mine", str(path), "--minutil", "4", "--minconf", "0.5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "1 ==> 2 #UTIL: 8 #SUP: 1 #CONF: 1.0000"
    ]


def test_mine_writes_rules_and_stats_files(sample_path, tmp_path, capsys):
    out = tmp_path / "rules.txt"
    stats = tmp_path / "stats.txt"
    code = cli.main(
        ["mine", sample_path, "--delta", "0.1", "--out", str(out), "--stats", str(stats)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 4
    assert "rules=4" in stats.read_text()


def test_mine_dedup_gives_the_oracle_rules_on_the_deduped_database(sample_path, capsys):
    assert cli.main(["mine", sample_path, "--delta", "0.1", "--dedup"]) == 0
    got = capsys.readouterr().out.splitlines()
    db = load_database(sample_path)
    cfg = OracleConfig(thr("0.1").times(db.total_utility), thr("0.6"), 8)
    expected, truncated = oracle_mine(dedup_max_utility(db), cfg)
    assert not truncated
    assert sorted(got) == sorted(format_rule(rule, db.items) for rule in expected)
    plain, _ = oracle_mine(db, cfg)
    assert set(plain) != set(expected)  # the dedup matters on this input


@pytest.mark.parametrize(
    "command, target, flag",
    [("mine", "mine", "--out"), ("mine", "mine", "--stats"), ("oracle", "oracle_mine", "--out")],
)
def test_unopenable_output_exits_2_before_mining(
    sample_path, tmp_path, capsys, monkeypatch, command, target, flag
):
    def must_not_run(*args):
        pytest.fail(f"{target} ran before {flag} was opened")

    monkeypatch.setattr(cli, target, must_not_run)
    path = str(tmp_path / "missing" / "out.txt")
    assert cli.main([command, sample_path, "--delta", "0.1", flag, path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = [line for line in out.err.splitlines() if not line.startswith("[config] ")]
    assert len(lines) == 1 and lines[0].startswith("error: ") and "missing" in lines[0]


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_mine_rejects_one_file_for_rules_and_stats(sample_path, tmp_path, capsys, monkeypatch, exists):
    def must_not_run(*args):
        pytest.fail("mine ran with --out and --stats on one file")

    monkeypatch.setattr(cli, "mine", must_not_run)
    path = tmp_path / "both.txt"
    other = tmp_path / "sub" / ".." / "both.txt"  # the same file, spelled differently
    if exists:
        path.write_text("kept\n")
        (tmp_path / "sub").mkdir()
    argv = ["mine", sample_path, "--delta", "0.1", "--out", str(path), "--stats", str(other)]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = [line for line in out.err.splitlines() if not line.startswith("[config] ")]
    assert lines == [f"error: --out and --stats name the same file: {other}"]
    if exists:
        assert path.read_text() == "kept\n"
    else:
        assert not path.exists()


@pytest.mark.parametrize(
    "command, flag, spelling",
    [
        ("mine", "--out", "same"),
        ("mine", "--stats", "same"),
        ("oracle", "--out", "same"),
        ("mine", "--out", "hard-link"),
    ],
)
def test_an_output_naming_the_input_leaves_it_unchanged(
    sample_path, tmp_path, capsys, command, flag, spelling
):
    before = Path(sample_path).read_bytes()
    path = sample_path
    if spelling == "hard-link":
        path = str(tmp_path / "alias.usdb")
        os.link(sample_path, path)
    assert cli.main([command, sample_path, "--delta", "0.1", flag, path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = [line for line in out.err.splitlines() if not line.startswith("[config] ")]
    assert lines == [f"error: {flag} names the input file: {path}"]
    assert Path(sample_path).read_bytes() == before


def test_mine_writes_rules_and_stats_to_stdout_together(sample_path, capsys):
    assert cli.main(["mine", sample_path, "--delta", "0.1", "--out", "-", "--stats", "-"]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert len(lines) == 4 + 12  # the rules, then the stats
    assert lines[4].startswith("sequences=") and "rules=4" in lines
    assert "rules=4" not in out.err


def test_mine_is_deterministic_across_runs(sample_path, tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert cli.main(["mine", sample_path, "--delta", "0.1", "--out", str(out1)]) == 0
    assert cli.main(["mine", sample_path, "--delta", "0.1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_flag_is_rejected(sample_path):
    # Mining is serial, and ablations run only as bench variants.
    for flag in (["--threads", "2"], ["--no-seu-prune"], ["--no-rrs-prune"], ["--use-ru"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mine", sample_path, "--delta", "0.1", *flag])
        assert exc.value.code == 2



def test_mine_deep_path_exits_0(tmp_path):
    path = tmp_path / "deep.usdb"
    lines = [" ".join(f"{item}:{u}" for item, u in row) for row in deep_path_rows(1100)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "rules.txt"
    code = cli.main(
        ["mine", str(path), "--minutil", "2200", "--out", str(out), "--stats", str(tmp_path / "s")]
    )
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1099


def test_oracle_subcommand(sample_path, capsys):
    code = cli.main(["oracle", sample_path, "--delta", "0.1"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_verify_ok(sample_path, capsys):
    code = cli.main(["verify", sample_path, "--delta", "0.1", "--minconf", "0.6"])
    assert code == 0
    assert "OK" in capsys.readouterr().err


def test_verify_detects_a_corrupted_miner(sample_path, capsys, monkeypatch):
    def broken_mine(db, cfg):
        rules, stats = real_mine(db, cfg)
        return rules[1:], stats  # drop one rule

    monkeypatch.setattr(cli, "mine", broken_mine)
    code = cli.main(["verify", sample_path, "--delta", "0.1"])
    out = capsys.readouterr()
    assert code == 1
    assert "only oracle:" in out.out
    assert "MISMATCH" in out.err


def test_invariant_failure_exits_1(sample_path, capsys, monkeypatch):
    def failing_mine(db, cfg):
        raise InvariantError("duplicate item pushed onto path")

    monkeypatch.setattr(cli, "mine", failing_mine)
    assert cli.main(["mine", sample_path, "--delta", "0.1"]) == 1
    assert "internal invariant failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, target, error, message",
    [
        ("mine", "mine", MemoryError(), "error: out of memory"),
        ("oracle", "oracle_mine", RecursionError("maximum recursion depth exceeded"),
         "error: maximum recursion depth exceeded"),
    ],
    ids=["mine-out-of-memory", "oracle-out-of-recursion-depth"],
)
def test_resource_exhaustion_exits_1(sample_path, capsys, monkeypatch, command, target, error, message):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, target, exhausted)
    assert cli.main([command, sample_path, "--delta", "0.1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if not line.startswith("[config] ")] == [message]


def test_verify_generated_database(tmp_path, capsys):
    path = tmp_path / "g.usdb"
    assert (
        cli.main(
            ["gen", "--sequences", "6", "--alphabet", "5", "--avg-len", "4",
             "--max-len", "8", "--seed", "42", "--out", str(path)]
        )
        == 0
    )
    assert cli.main(["verify", str(path), "--delta", "0.05", "--minconf", "0.6"]) == 0
    assert "OK" in capsys.readouterr().err


def test_verify_cap_hit_exits_3(tmp_path, capsys):
    path = tmp_path / "long.usdb"
    path.write_text("a:1 b:1 c:1 d:1\n", encoding="utf-8")
    code = cli.main(["verify", str(path), "--minutil", "0", "--minconf", "0.5", "--max-len", "2"])
    assert code == 3
    assert "length cap" in capsys.readouterr().err


def test_oracle_cap_hit_exits_3_and_writes_the_rules_under_the_cap(tmp_path, capsys):
    path = tmp_path / "long.usdb"
    path.write_text("a:1 b:1 c:1 d:1\n", encoding="utf-8")
    out = tmp_path / "rules.txt"
    args = ["oracle", str(path), "--minutil", "0", "--minconf", "0.5", "--max-len", "2"]
    assert cli.main(args + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if not line.startswith("[config] ")] == [
        "warning: length cap reached; rule set may be truncated"
    ]
    assert out.read_text(encoding="utf-8").splitlines() == [
        f"{x} ==> {y} #UTIL: 2 #SUP: 1 #CONF: 1.0000"
        for x, y in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    ]


@pytest.mark.parametrize(
    "change, counts",
    [("drop", "0 extra, 1 missing"), ("alter", "1 extra, 1 missing")],
)
def test_verify_under_the_cap_fails_on_a_definite_difference(
    tmp_path, capsys, monkeypatch, change, counts
):
    # The reference is complete up to --max-len items, so a missing rule,
    # or a mined rule of at most that many items that it lacks, is a
    # failure even though the enumeration hit its cap. The miner's longer
    # rules are not counted.
    path = tmp_path / "g.usdb"
    gen = ["gen", "--sequences", "30", "--alphabet", "5", "--avg-len", "5",
           "--max-len", "8", "--seed", "3", "--out", str(path)]
    assert cli.main(gen) == 0
    args = ["verify", str(path), "--delta", "0.1", "--max-len", "2"]
    assert cli.main(args) == 3
    capsys.readouterr()

    def changed_mine(db, cfg):
        rules, stats = real_mine(db, cfg)
        k = next(k for k, r in enumerate(rules) if len(r.antecedent) + len(r.consequent) == 2)
        if change == "drop":
            return rules[:k] + rules[k + 1 :], stats
        bumped = dataclasses.replace(rules[k], utility=rules[k].utility + 1)
        return rules[:k] + [bumped] + rules[k + 1 :], stats

    monkeypatch.setattr(cli, "mine", changed_mine)
    assert cli.main(args) == 1
    out = capsys.readouterr()
    assert "only oracle:" in out.out
    assert f"MISMATCH: {counts}" in out.err
    assert "inconclusive" not in out.err


def test_gen_is_deterministic(tmp_path):
    args = [
        "gen", "--sequences", "50", "--alphabet", "10", "--avg-len", "4",
        "--max-len", "12", "--seed", "7",
    ]
    f1 = tmp_path / "g1.usdb"
    f2 = tmp_path / "g2.usdb"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_gen_invalid_params_exit_2(tmp_path):
    code = cli.main(
        ["gen", "--sequences", "5", "--alphabet", "0", "--avg-len", "4", "--max-len", "12"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--util-min", "18446744073709551616", "--util-max", "18446744073709551616"], "utility_max"),
        (["--util-max", "18446744073709551616"], "utility_max"),
        (["--out", "{missing}"], "missing"),
    ],
    ids=["util-min-and-max", "util-max", "out"],
)
def test_gen_rejects_before_drawing(tmp_path, capsys, monkeypatch, extra, named):
    def must_not_run(*args):
        pytest.fail("generate ran before the parameters and --out were checked")

    monkeypatch.setattr(cli, "generate", must_not_run)
    missing = str(tmp_path / "missing" / "out.usdb")
    argv = ["gen", "--sequences", "20000", "--alphabet", "10", "--avg-len", "4", "--max-len", "12"]
    assert cli.main(argv + [arg.format(missing=missing) for arg in extra]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = [line for line in out.err.splitlines() if not line.startswith("[config] ")]
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]


def test_gen_then_stats_round_trip(tmp_path, capsys):
    path = tmp_path / "g.usdb"
    assert (
        cli.main(
            ["gen", "--sequences", "400", "--alphabet", "30", "--avg-len", "6",
             "--max-len", "24", "--seed", "3", "--out", str(path)]
        )
        == 0
    )
    capsys.readouterr()
    assert cli.main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    stats = dict(line.split("=") for line in out.splitlines())
    assert stats["sequences"] == "400"
    assert abs(float(stats["avg_events"]) - 6.0) / 6.0 < 0.10


def test_stats_sample(sample_path, capsys):
    code = cli.main(["stats", sample_path])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sequences=5" in lines
    assert "distinct_items=6" in lines
    assert "total_utility=64" in lines
    assert "max_events=6" in lines
    assert "avg_events=3.80" in lines


def test_bench_all_variants(sample_path, capsys):
    code = cli.main(["bench", sample_path, "--delta", "0.1", "--repeat", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rules=4" in out
    # Every variant runs by default, in the miner's order.
    assert cli.build_parser().parse_args(["bench", sample_path, "--delta", "0.1"]).variants.split(",") == (
        list(VARIANTS)
    )
    for name in ("rsc", "rscn", "rscp", "rscr"):
        assert f"variant={name}" in out
    # parse per-variant candidate counters
    counters = {}
    current = None
    for line in out.splitlines():
        if line.startswith("variant="):
            current = line.split("=", 1)[1]
        elif line.startswith("candidates=") and current:
            counters[current] = int(line.split("=", 1)[1])
    assert counters["rsc"] <= counters["rscp"]
    assert counters["rsc"] <= counters["rscn"]
    assert counters["rsc"] <= counters["rscr"]
    blocks = [block.splitlines() for block in out.strip().split("\n\n")]
    assert [[line.split("=")[0] for line in block] for block in blocks] == [
        ["variant", "candidates", "srtgrowth_calls", "rrs_prunes", "view_prunes", "iip_prunes",
         "rules", "median_runtime_ms"]
    ] * 4
    for key in ("rrs_prunes", "view_prunes", "iip_prunes"):
        assert f"{key}=0" in blocks[2]  # rscp: no gate


def test_bench_empty_database(tmp_path, capsys):
    path = tmp_path / "empty.usdb"
    path.write_text("", encoding="utf-8")
    code = cli.main(["bench", str(path), "--delta", "0.1", "--repeat", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "candidates=0" in out
    assert "rules=0" in out


def test_bench_rejects_unknown_variant(sample_path):
    assert cli.main(["bench", sample_path, "--delta", "0.1", "--variants", "bogus"]) == 2


def test_bench_detects_soundness_violations(sample_path, capsys, monkeypatch):
    calls = {"n": 0}

    def flaky_mine(db, cfg):
        rules, stats = real_mine(db, cfg)
        calls["n"] += 1
        if calls["n"] > 1:
            rules = rules[:-1]
        return rules, stats

    monkeypatch.setattr(cli, "mine", flaky_mine)
    code = cli.main(["bench", sample_path, "--delta", "0.1", "--variants", "rsc,rscn"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().err
