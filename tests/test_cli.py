"""Command-line surface: exit codes, formats, reproducibility."""

import json

import numpy as np
import pytest

from kerdock3.cli import DEFAULT_EPSILON, DEFAULT_M, build_parser, main
from kerdock3.graph import parse_census
from kerdock3.markov import FULL_CHAIN_MAX_M, TransitionMatrix, parse_csv_probs


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, (out.read_text() if out.exists() else "")


def test_defaults():
    assert DEFAULT_M == 3
    assert DEFAULT_EPSILON == 0.01
    args = build_parser().parse_args(["field-info"])
    assert args.m == 3 and args.format == "text"


def test_field_info_text(tmp_path):
    rc, text = run(tmp_path, "field-info", "--m", "3")
    assert rc == 0
    assert "m = 3" in text
    assert "poly = 0xb" in text
    assert "trace = 01010101" in text  # elements 1,3,5,7 have trace 1
    assert "gram_rows = 0x1 0x4 0x2" in text


def test_field_info_json_and_poly_override(tmp_path):
    rc, text = run(tmp_path, "field-info", "--m", "3", "--poly", "D",
                   "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["poly"] == "0xd"
    assert obj["order"] == 8
    assert len(obj["gram"]) == 3


def test_graph_census_text_and_round_trip(tmp_path):
    rc, text = run(tmp_path, "graph-census", "--m", "2")
    assert rc == 0
    assert "srg = 15,6,1,3" in text
    parsed = parse_census(text)
    assert parsed.m == 2
    assert parsed.enumerated["vertices"] == 15


def test_graph_census_json(tmp_path):
    rc, text = run(tmp_path, "graph-census", "--m", "3", "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["srg"] == [63, 30, 13, 15]


def test_chain_text_contains_r_block(tmp_path):
    rc, text = run(tmp_path, "chain", "--m", "3", "--chain", "edges")
    assert rc == 0
    assert "chain = edges" in text
    assert "denominator = 252" in text
    assert "# R (4x transvection counts)" in text
    assert "8,8,8,8,8,8" in text
    assert text.rstrip().endswith("checks = ok")


def test_chain_json_round_trip(tmp_path):
    rc, text = run(tmp_path, "chain", "--m", "3", "--chain", "nonedges",
                   "--format", "json")
    assert rc == 0
    tm = TransitionMatrix.from_json(text)
    assert len(tm.states) == 4
    assert tm.denominator == 252


def test_chain_csv_round_trip(tmp_path):
    rc, text = run(tmp_path, "chain", "--m", "2", "--chain", "edges",
                   "--format", "csv")
    assert rc == 0
    assert text.startswith("# chain edges\n")
    body = text.split("\n", 1)[1].rsplit("checks =", 1)[0]
    names, probs = parse_csv_probs(body)
    assert names == ["TYPE1:0x2", "TYPE1:0x3", "TYPE2:0x1"]
    assert np.allclose(probs.sum(axis=1), 1.0)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_chain_failed_check_exits_1_in_every_format(fmt, tmp_path, monkeypatch, capsys):
    import kerdock3.cli as cli

    monkeypatch.setattr(cli, "stationary_check", lambda tm: False)
    rc, _ = run(tmp_path, "chain", "--m", "2", "--format", fmt)
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == \
        {"failures": ["edges:stationary", "nonedges:stationary"]}


def test_spectra_text_and_json(tmp_path):
    rc, text = run(tmp_path, "spectra", "--m", "2", "--epsilon", "0.01")
    assert rc == 0
    assert "bound = 46" in text
    assert "approx_variant = 15" in text
    rc, text = run(tmp_path, "spectra", "--m", "3", "--chain", "edges",
                   "--format", "json")
    assert rc == 0
    first, second = text.strip().split("\n")
    assert "lambda2" in json.loads(first)
    assert json.loads(second)["bound"] == 38


def test_convergence_csv(tmp_path):
    rc, text = run(tmp_path, "convergence", "--m", "2", "--t-max", "5")
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0] == "chain,start,t,tv"
    # 3 edge states + 2 non-edge states, 6 rows each (t = 0..5)
    assert len(lines) == 1 + 5 * 6
    assert lines[1].startswith("edges,TYPE1:0x2,0,")


def test_sample_byte_identity_across_runs_and_threads(tmp_path):
    argv = ["sample", "--m", "2", "--count", "50", "--steps", "8",
            "--seed", "42"]
    _, a = run(tmp_path, *argv)
    _, b = run(tmp_path, *argv)
    _, c = run(tmp_path, *argv, "--threads", "4")
    assert a == b == c
    assert len(a.strip().split("\n")) == 50
    first = json.loads(a.split("\n", 1)[0])
    assert first["index"] == 0
    assert len(first["transvections"]) == 8


def test_sample_default_epsilon_and_env_seed(tmp_path, monkeypatch, capsys):
    rc, by_default = run(tmp_path, "sample", "--m", "2", "--count", "2")
    assert rc == 0
    rc, by_flag = run(tmp_path, "sample", "--m", "2", "--count", "2",
                      "--epsilon", "0.01")
    assert by_default == by_flag  # default epsilon is 0.01
    monkeypatch.setenv("KERDOCK3_SEED", "7")
    rc, by_env = run(tmp_path, "sample", "--m", "2", "--count", "2",
                     "--steps", "5")
    rc, by_seed_flag = run(tmp_path, "sample", "--m", "2", "--count", "2",
                           "--steps", "5", "--seed", "7")
    assert by_env == by_seed_flag
    rc, flag_wins = run(tmp_path, "sample", "--m", "2", "--count", "2",
                        "--steps", "5", "--seed", "8")
    assert flag_wins != by_env


def test_sample_stdout(capsys):
    rc = main(["sample", "--m", "2", "--count", "3", "--steps", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_epsilon_steps_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--epsilon", "0.1", "--steps", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--poly", "D"],
    ["field-info", "--threads", "2"],
    ["chain", "--threads", "2"],
    ["spectra", "--threads", "2"],
    ["convergence", "--threads", "2"],
    ["spectra", "--steps", "5"],
    ["convergence", "--steps", "3"],
    ["convergence", "--format", "json"],
    ["sample", "--format", "json"],
    ["verify", "--format", "text"],
    ["field-info", "--format", "csv"],
    ["graph-census", "--format", "csv"],
    ["spectra", "--format", "csv"],
])
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_invalid_arguments_exit_2(capsys):
    assert main(["field-info", "--m", "1"]) == 2
    assert main(["field-info", "--m", "17"]) == 2
    assert main(["sample", "--m", "2", "--count", "1",
                 "--epsilon", "1.5"]) == 2
    assert main(["field-info", "--m", "3", "--poly", "F"]) == 2
    capsys.readouterr()
    for eps in ("0", "-1"):
        assert main(["spectra", "--m", "2", "--epsilon", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eps must be in (0, 1)\n"
    assert main(["convergence", "--m", "2", "--t-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t_max must be non-negative" in captured.err



def test_bad_chain_arguments_are_refused_before_any_chain(monkeypatch, capsys):
    """spectra refuses a bad --epsilon and convergence a negative --t-max
    before any q_empirical call; a valid spectra run still builds both."""
    from kerdock3 import cli
    calls = []
    original = cli.q_empirical
    monkeypatch.setattr(cli, "q_empirical", lambda *a: calls.append(a) or original(*a))
    for eps in ("0", "-1", "1"):
        assert main(["spectra", "--m", "8", "--epsilon", eps]) == 2
    assert main(["convergence", "--m", "8", "--t-max", "-1"]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: eps must be in (0, 1)\n") == 3
    assert "error: t_max must be non-negative, got -1\n" in captured.err
    assert main(["spectra", "--m", "2"]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out
    assert out.startswith("chain = edges\n")
    assert out.splitlines()[-1].startswith("pi_star = ")  # the mix block prints last

def test_verify_m2_passes(tmp_path):
    rc, text = run(tmp_path, "verify", "--m", "2", "--count", "20000",
                   "--steps", "8", "--seed", "1")
    assert rc == 0, text
    lines = text.strip().split("\n")
    assert lines, text
    assert all(line.startswith("PASS ") for line in lines)
    names = {line.split()[1] for line in lines}
    assert "field-dual-bases" in names
    assert "census-closed-form" in names
    assert "unitary-generators" in names
    assert "kerdock-frame-potential" in names


def test_verify_m3_skips_m2_only_checks(tmp_path):
    rc, text = run(tmp_path, "verify", "--m", "3", "--count", "20000",
                   "--steps", "6", "--seed", "1")
    assert rc == 0, text
    assert all(line.startswith("PASS ") for line in text.strip().split("\n"))


def test_verify_poly_override_passes(tmp_path):
    rc, text = run(tmp_path, "verify", "--m", "3", "--poly", "0xD",
                   "--count", "20000", "--steps", "6", "--seed", "1")
    assert rc == 0, text
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_poly_walks_pair_statistics_in_chosen_field(tmp_path, monkeypatch):
    import kerdock3.cli as cli

    fields = []
    original = cli.pair_statistics_stream

    def recording(config, probes, threads=1, batch_size=1 << 17, ctx=None):
        fields.append(ctx.poly)
        return original(config, probes, threads, batch_size, ctx)

    monkeypatch.setattr(cli, "pair_statistics_stream", recording)
    rc, text = run(tmp_path, "verify", "--m", "3", "--poly", "D",
                   "--count", "20000", "--steps", "6", "--seed", "1")
    assert rc == 0, text
    assert "PASS pair-statistics" in text
    assert fields == [0xD]


def test_verify_caps_m(capsys):
    assert main(["verify", "--m", str(FULL_CHAIN_MAX_M + 1)]) == 2
    assert "FULL_CHAIN_MAX_M" in capsys.readouterr().err


def test_census_mismatch_would_fail_rc(tmp_path):
    # closed-form-only reports (beyond the enumeration cap) count as failure
    rc, _ = run(tmp_path, "graph-census", "--m", "7")
    assert rc == 1
