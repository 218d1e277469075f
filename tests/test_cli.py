"""Command-line surface: exit codes, formats, reproducibility."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kerdock3 import cli, markov, unitary
from kerdock3.cli import DEFAULT_EPSILON, DEFAULT_M, build_parser, main
from kerdock3.gf2m import FieldContext
from kerdock3.graph import EdgeKind, parse_census
from kerdock3.markov import FULL_CHAIN_MAX_M, TransitionMatrix, parse_csv_probs


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, (out.read_text() if out.exists() else "")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each report below, pinned before the orbit keys of graph.py
# were routed through determinant_keys: a refactor keeps every byte
PINS = {
    "field-info-text": "93fe523a8655926d0fdc381bc436b44c90d862592a36954de32c9cfbc096f044",
    "field-info-json": "5231928834a4beec94a32bce1657d3b7e395c4ad7f2f5aa3dff512e4bc617ac9",
    "graph-census-json": "55ba01b14755cec3b12f56bc382898cedfe7a5a51d8b17ada3089e86c255945b",
    "chain-text": "078ecef1fd0c74af9fffb8300fbb5a7ee821386c8a68cade10b6b80ec9c2a035",
    "chain-json": "ce051c622b8c1f6a8edef622f4486faed6cd9909497c7ae0ba9562c3c26c897d",
    "chain-csv": "ad8eeace5a15fe122928939fd0345fa940a57565829892f5d49f41fabf0f4ddd",
    "spectra-text": "793a15223729f1005c0473424f76bec64e973ac82b9ae80e6450354544d80fcb",
    "spectra-json": "7fad6c325c79f19674ad6379a833269e293f3bb4c1daea335546f8f8820b525a",
    "convergence": "54623d1b37771f774644ff8592f62d25d6f3623570e2c53bbddd215eb762a968",
    "verify-m2": "b7731c18399f86b8e15b0886c91eb1b68501a0fb4bc97c112f7a0f43470922fd",
    "verify-m3": "23050a195f2c9340f12bd203ad1a9c539fc0d81a94ccb162d98f6eca85f9f8e5",
}


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
    assert sha256(text) == PINS["field-info-text"]


def test_field_info_json_and_poly_override(tmp_path):
    rc, text = run(tmp_path, "field-info", "--m", "3", "--poly", "D",
                   "--format", "json")
    assert rc == 0
    obj = json.loads(text)
    assert obj["poly"] == "0xd"
    assert obj["order"] == 8
    assert len(obj["gram"]) == 3
    assert sha256(text) == PINS["field-info-json"]


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
    assert sha256(text) == PINS["graph-census-json"]


def test_chain_text_contains_r_block(tmp_path):
    rc, text = run(tmp_path, "chain", "--m", "3", "--chain", "edges")
    assert rc == 0
    assert "chain = edges" in text
    assert "denominator = 252" in text
    assert "# R (4x transvection counts)" in text
    assert "8,8,8,8,8,8" in text
    assert text.rstrip().endswith("checks = ok")
    assert sha256(text) == PINS["chain-text"]


def test_chain_json_round_trip(tmp_path):
    rc, text = run(tmp_path, "chain", "--m", "3", "--chain", "nonedges",
                   "--format", "json")
    assert rc == 0
    tm = TransitionMatrix.from_json(text)
    assert len(tm.states) == 4
    assert tm.denominator == 252
    assert sha256(text) == PINS["chain-json"]


def test_chain_csv_round_trip(tmp_path):
    rc, text = run(tmp_path, "chain", "--m", "2", "--chain", "edges",
                   "--format", "csv")
    assert rc == 0
    assert text.startswith("# chain edges\n")
    body = text.split("\n", 1)[1].rsplit("checks =", 1)[0]
    names, probs = parse_csv_probs(body)
    assert names == ["TYPE1:0x2", "TYPE1:0x3", "TYPE2:0x1"]
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert sha256(text) == PINS["chain-csv"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_chain_failed_check_exits_1_in_every_format(fmt, tmp_path, monkeypatch, capsys):
    import kerdock3.cli as cli

    monkeypatch.setattr(cli, "stationary_check", lambda tm: False)
    rc, _ = run(tmp_path, "chain", "--m", "2", "--format", fmt)
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == \
        {"failures": ["edges:stationary", "nonedges:stationary"]}


# each closed form of markov.closed_form_failures forced to fail, with the
# token ``kerdock3 chain`` then reports
FORCED = {
    "q1_closed_form": (lambda ctx: None, "nonedges:closed-form"),
    "q0_closed_form": (lambda ctx: None, "edges:closed-form"),
}


@pytest.mark.parametrize("check", FORCED)
def test_each_failed_closed_form_fails_chain_and_verify(check, tmp_path, monkeypatch,
                                                        capsys):
    """A failed closed form is one token on chain's stderr list, with
    exit 1, and fails verify's chain-closed-forms with the same token."""
    fake, token = FORCED[check]
    monkeypatch.setattr(markov, check, fake)
    rc, text = run(tmp_path, "chain", "--m", "2")
    assert rc == 1
    assert text.endswith("checks = FAILED\n")
    assert json.loads(capsys.readouterr().err) == {"failures": [token]}
    checks = dict(cli._verify_checks(build_parser().parse_args(["verify", "--m", "2"])))
    assert checks["chain-closed-forms"]() == token


def test_chain_failure_tokens_keep_their_order(tmp_path, monkeypatch, capsys):
    """Per chain in CHAINS order: stationary, then the closed forms."""
    for check, (fake, _) in FORCED.items():
        monkeypatch.setattr(markov, check, fake)
    monkeypatch.setattr(cli, "stationary_check", lambda tm: False)
    rc, _ = run(tmp_path, "chain", "--m", "2", "--format", "json")
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["failures"] == [
        "edges:stationary", "edges:closed-form", "nonedges:stationary",
        "nonedges:closed-form"]


def test_spectra_text_and_json(tmp_path):
    rc, text = run(tmp_path, "spectra", "--m", "2", "--epsilon", "0.01")
    assert rc == 0
    assert "bound = 46" in text
    assert "approx_variant = 15" in text
    assert sha256(text) == PINS["spectra-text"]
    rc, text = run(tmp_path, "spectra", "--m", "3", "--chain", "edges",
                   "--format", "json")
    assert rc == 0
    first, second = text.strip().split("\n")
    assert "lambda2" in json.loads(first)
    assert json.loads(second)["bound"] == 38
    assert sha256(text) == PINS["spectra-json"]


def test_convergence_csv(tmp_path):
    rc, text = run(tmp_path, "convergence", "--m", "2", "--t-max", "5")
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0] == "chain,start,t,tv"
    # 3 edge states + 2 non-edge states, 6 rows each (t = 0..5)
    assert len(lines) == 1 + 5 * 6
    assert lines[1].startswith("edges,TYPE1:0x2,0,")
    assert sha256(text) == PINS["convergence"]


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


def test_negative_polynomial_exits_2_without_building_tables():
    """A negative --poly passes the degree and low-bit checks, and the
    factor search never ends on it, so it is refused before any table is
    built, in ``checked_int``'s wording.  The subprocess timeout turns a
    hang into a failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for m, poly in (("2", "-5"), ("4", "-13")):
        proc = subprocess.run([sys.executable, "-m", "kerdock3.cli", "field-info",
                               "--m", m, "--poly", poly],
                              capture_output=True, text=True, timeout=30, env=env)
        assert proc.returncode == 2, proc.stderr
        assert f"poly = {int(poly, 16)} must be an int >= 0" in proc.stderr
        assert proc.stdout == ""


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
        assert captured.err == f"error: eps = {float(eps)!r} must be in (0, 1)\n"
    assert main(["convergence", "--m", "2", "--t-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t_max = -1 must be an int >= 0" in captured.err



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
    for eps in ("0", "-1", "1"):
        assert captured.err.count(f"error: eps = {float(eps)!r} must be in (0, 1)\n") == 1
    assert "error: t_max = -1 must be an int >= 0\n" in captured.err
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
    assert sha256(text) == PINS["verify-m2"]


def test_verify_m3_skips_m2_only_checks(tmp_path):
    rc, text = run(tmp_path, "verify", "--m", "3", "--count", "20000",
                   "--steps", "6", "--seed", "1")
    assert rc == 0, text
    assert all(line.startswith("PASS ") for line in text.strip().split("\n"))
    assert sha256(text) == PINS["verify-m3"]


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


def test_verify_walks_the_count_it_is_given(tmp_path, monkeypatch):
    """--count is the number of pair-statistics walks, walked as given,
    not raised to the default of 200 000."""
    counts = []
    original = cli.pair_statistics_stream

    def recording(config, probes, threads=1, batch_size=1 << 17, ctx=None):
        counts.append(config.count)
        return original(config, probes, threads, batch_size, ctx)

    monkeypatch.setattr(cli, "pair_statistics_stream", recording)
    rc, text = run(tmp_path, "verify", "--m", "2", "--count", "20000",
                   "--steps", "8", "--seed", "1")
    assert rc == 0, text
    assert counts == [20000]
    assert build_parser().parse_args(["verify"]).count == 200_000
    assert build_parser().parse_args(["sample"]).count == 1


def test_verify_failure_is_a_fail_line_and_a_json_list_with_exit_1(tmp_path, monkeypatch):
    monkeypatch.setattr(markov, "q0_closed_form", lambda ctx: None)
    rc, text = run(tmp_path, "verify", "--m", "2", "--count", "20000",
                   "--steps", "8", "--seed", "1")
    assert rc == 1
    *lines, last = text.splitlines()
    assert lines[2] == "FAIL chain-closed-forms: edges:closed-form"
    assert all(line.startswith("PASS ") for line in lines[:2] + lines[3:])
    assert json.loads(last) == {"failures": [
        {"check": "chain-closed-forms", "detail": "edges:closed-form"}]}


def test_verify_caps_m(capsys):
    assert main(["verify", "--m", str(FULL_CHAIN_MAX_M + 1)]) == 2
    err = capsys.readouterr().err
    assert "FULL_CHAIN_MAX_M" in err
    assert err.startswith(f"error: verify requires m <= {FULL_CHAIN_MAX_M} ")


def test_verify_refuses_a_count_below_1_before_any_check(monkeypatch, capsys):
    """--count below 1 exits 2 before any check thunk runs (it used to run
    eight checks first, and the pair-statistics check refused it)."""
    ran = []
    original = cli._verify_checks

    def recording(args):
        return [(name, lambda name=name, fn=fn: ran.append(name) or fn())
                for name, fn in original(args)]

    monkeypatch.setattr(cli, "_verify_checks", recording)
    for count in ("0", "-1"):
        assert main(["verify", "--m", "2", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: count = {count} must be an int >= 1\n"
    assert ran == []


def test_census_mismatch_would_fail_rc(tmp_path):
    # closed-form-only reports (beyond the enumeration cap) count as failure
    rc, _ = run(tmp_path, "graph-census", "--m", "7")
    assert rc == 1


def test_each_subcommand_is_declared_once_with_its_handler():
    """build_parser names each handler in its command(...) call; no
    second table maps subcommands to handlers."""
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == ["chain", "convergence", "field-info", "graph-census",
                                    "sample", "spectra", "verify"]
    for name, sub in subs.choices.items():
        assert sub.get_default("run") is getattr(cli, "_cmd_" + name.replace("-", "_"))
    with open(cli.__file__) as fh:
        assert "_COMMANDS" not in fh.read()


@pytest.mark.parametrize("command", ["chain", "spectra"])
def test_chain_option_is_read_once(command, tmp_path, monkeypatch):
    """``--chain`` is read in one place, cli._chains: "both" reports CHAINS
    in order, and a chain name that chain alone."""
    with open(cli.__file__) as fh:
        assert fh.read().count("args.chain") == inspect.getsource(cli._chains).count("args.chain")
    calls = []
    original = cli.q_empirical
    monkeypatch.setattr(cli, "q_empirical",
                        lambda ctx, chain: calls.append(chain) or original(ctx, chain))
    for value, expected in (("both", ["edges", "nonedges"]), ("edges", ["edges"]),
                            ("nonedges", ["nonedges"])):
        calls.clear()
        rc, _ = run(tmp_path, command, "--m", "2", "--chain", value)
        assert rc == 0
        assert calls == expected


@pytest.mark.parametrize("m", [2, 3])
def test_verify_builds_each_orbit_chain_once(m, tmp_path, monkeypatch):
    calls = []
    original = cli.q_empirical
    monkeypatch.setattr(cli, "q_empirical",
                        lambda ctx, chain: calls.append(chain) or original(ctx, chain))
    rc, text = run(tmp_path, "verify", "--m", str(m), "--count", "20000",
                   "--steps", "8", "--seed", "1")
    assert rc == 0, text
    assert calls == ["edges", "nonedges"]


def _replaced_tm(tm):
    """The same chain over a doubled denominator: equal as probabilities,
    unequal as an exact TransitionMatrix."""
    return TransitionMatrix(tm.states, 2 * tm.numerators, 2 * tm.denominator)


def _second_probe_off(orig):
    """pair_statistics_stream whose second probe reads a TV of 0.5."""
    def stream(*args, **kwargs):
        rep = orig(*args, **kwargs)
        off = dataclasses.replace(rep.probes[1], tv_to_uniform=0.5)
        return dataclasses.replace(rep, probes=[rep.probes[0], off])
    return stream


# check, (owner, attribute, fake built from the original), detail; each fake
# is patched in only while its check runs, so no other check fails
VERIFY_FAILURES = [
    ("field-dual-bases", FieldContext, "dual_decode",
     lambda orig: lambda self, c: orig(self, c) ^ (c == self.dual_coords(2)),
     "dual round-trip fails at 0x2"),
    ("field-dual-bases", FieldContext, "trace_product",
     lambda orig: lambda self, x, y: orig(self, x, y) ^ ((x, y) == (1, 3)),
     "duality identity fails at (0x1, 0x3)"),
    ("census-closed-form", cli, "census",
     lambda orig: lambda ctx: dataclasses.replace(orig(ctx), exhaustive=False),
     "census mismatch"),
    ("chain-stationary-exact", cli, "stationary_check",
     lambda orig: lambda tm: tm.states[0].kind != EdgeKind.NON_EDGE,
     "nonedges stationary check failed"),
    ("full-chain-lumping", cli, "lump_chain",
     lambda orig: lambda ctx, full: _replaced_tm(orig(ctx, full)),
     "edges lumping mismatch"),
    ("unitary-generators", unitary, "partial_hadamard_unitary",
     lambda orig: lambda m, t: np.eye(1 << m) if t == 1 else orig(m, t),
     "conjugation mismatch at index (1, 0): residual 1.000e+00"),
    ("unitary-psl", unitary, "psl_unitary",
     lambda orig: lambda ctx, g: np.eye(ctx.order),
     "psl (1, 1, 0, 1): conjugation mismatch at index (1, 0): residual 2.000e+00"),
    ("unitary-samples", unitary, "sample_unitary",
     lambda orig: lambda ctx, s: np.eye(ctx.order),
     "conjugation mismatch at index (1, 0): residual 1.000e+00"),
    ("pair-statistics", cli, "pair_statistics_stream", _second_probe_off,
     "tv 0.5000 exceeds margin for anticommuting_pairs"),
    ("kerdock-frame-potential", unitary, "frame_potential",
     lambda orig: lambda ens, k: 0.0, "F2 = 0.0, want 2"),
    ("kerdock-frame-potential", unitary, "frame_potential",
     lambda orig: lambda ens, k: {2: 2.0, 3: 7.5}[k],
     "F3 = 7.5 disagrees with closed form"),
]


@pytest.mark.parametrize("check,owner,attr,fake,detail", VERIFY_FAILURES,
                         ids=["dual-round-trip", "duality-identity", "census",
                              "stationary", "lumping", "generators", "psl", "samples",
                              "pair-statistics", "F2", "F3"])
def test_every_verify_failure_detail(check, owner, attr, fake, detail, tmp_path,
                                     monkeypatch):
    """Each failure detail of each check, forced: one FAIL line among PASS
    lines, the same detail in the closing JSON list, and exit 1.  The
    ConjugationFailure details are the exception's own text."""
    original = cli._verify_checks

    def forced(fn):
        def thunk():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(owner, attr, fake(getattr(owner, attr)))
                return fn()
        return thunk

    monkeypatch.setattr(cli, "_verify_checks", lambda args: [
        (name, forced(fn) if name == check else fn) for name, fn in original(args)])
    rc, text = run(tmp_path, "verify", "--m", "2", "--count", "20000",
                   "--steps", "8", "--seed", "1")
    assert rc == 1
    *lines, last = text.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")] == \
        [f"FAIL {check}: {detail}"]
    assert len(lines) == 10
    assert json.loads(last) == {"failures": [{"check": check, "detail": detail}]}
