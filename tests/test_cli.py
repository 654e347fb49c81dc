import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasibps.cli as cli
from quasibps import bps, oracle, verify
from quasibps.verify import CheckResult

TORIC1 = {"vertices": ["0", "1"], "arrows": [[1, 3], [3, 1]]}
ASYM = {"vertices": ["0", "1"], "arrows": [[0, 2], [1, 0]]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_magic_count_loops_table(capsys):
    code, out, _ = run(capsys, "magic-count", "--loops", "3", "--dim", "2", "--v", "1")
    assert code == 0
    assert out.split() == ["magic_k0_dim", "1"]


def test_magic_count_formats_agree(capsys):
    args = ["magic-count", "--loops", "3", "--dim", "2", "--v", "0"]
    _, table, _ = run(capsys, *args)
    _, js, _ = run(capsys, *args, "--output", "json")
    _, csvout, _ = run(capsys, *args, "--output", "csv")
    value = int(table.split()[-1])
    assert json.loads(js) == {"magic_k0_dim": value}
    assert csvout == f"magic_k0_dim\r\n{value}\r\n"


def test_magic_count_quiver_file(tmp_path, capsys):
    path = write_json(tmp_path, "toric.json", TORIC1)
    code, out, _ = run(capsys, "magic-count", "--quiver", path, "--dim", "1,1",
                       "--v", "1", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"magic_k0_dim": 4}


def test_magic_count_fractional_delta(capsys):
    code, out, _ = run(capsys, "magic-count", "--loops", "1", "--dim", "1",
                       "--delta", "1/2", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"magic_k0_dim": 0}


def test_magic_count_checked_and_threads(capsys):
    # three score sequences at g=1, d=3, v=1: (0,0,1), (-1,0,2), (-1,1,1)
    code, out, _ = run(capsys, "magic-count", "--loops", "3", "--dim", "3",
                       "--v", "1", "--fast-membership", "checked",
                       "--threads", "2", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"magic_k0_dim": 3}


def test_checked_disagreement_exits_five(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "window_count_dfs", lambda q, d, delta: 4)
    code, out, err = run(capsys, "magic-count", "--loops", "3", "--dim", "3",
                         "--v", "1", "--fast-membership", "checked")
    assert code == 5
    assert out == ""
    assert err.startswith("error: window counts disagree") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "magic-count", "--dim", "2", "--v", "0")
    assert code == 2 and "quiver" in err
    code, _, err = run(capsys, "magic-count", "--loops", "3", "--dim", "2")
    assert code == 2 and "central weight" in err
    code, _, err = run(capsys, "magic-count", "--loops", "3", "--dim", "2,2", "--v", "0")
    assert code == 2
    code, _, err = run(capsys, "s-set", "--loops", "3", "--dim", "3,x", "--v", "0")
    assert code == 2 and "comma-separated integers" in err
    asym = write_json(tmp_path, "asym.json", ASYM)
    code, _, err = run(capsys, "magic-count", "--quiver", asym, "--dim", "1,1", "--v", "0")
    assert code == 3 and "symmetric" in err
    code, _, err = run(capsys, "magic-count", "--loops", "1", "--dim", "13", "--v", "0")
    assert code == 4 and "cutoff" in err
    # a bad argument is reported before the rank is refused
    code, _, err = run(capsys, "magic-count", "--loops", "1", "--dim", "13", "--v", "0",
                       "--threads", "0")
    assert code == 2 and "jobs" in err
    code, _, err = run(capsys, "magic-count", "--loops", "1", "--dim", "13", "--delta", "1,2")
    assert code == 2 and "vertices" in err
    # a file that is not UTF-8 or nests past the parser's limit: one error line
    for name, data in (("binary.json", b"\xff\xfe\x00bad"), ("deep.json", b"[" * 200_000)):
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (("magic-count", "--quiver", str(path), "--dim", "1", "--v", "0"),
                     ("bps-dim", "--loops", "3", "--dim", "1", "--v", "0",
                      "--blocks", str(path))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_reused_without_carrying_options(capsys):
    code, out, _ = run(capsys, "magic-count", "--loops", "0", "--dim", "13", "--v", "0", "--force")
    assert code == 0 and out.split() == ["magic_k0_dim", "0"]
    code, _, err = run(capsys, "magic-count", "--loops", "0", "--dim", "13", "--v", "0")
    assert code == 4 and "cutoff" in err


def test_one_run_builds_no_argparse_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ("magic-count", "--loops", "3", "--dim", "2", "--v", "1")
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert built == []


def test_help_names_every_flag_and_subcommand(capsys):
    for name, (about, _, rows) in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: quasibps {name} [-h] ") and about in out
        for flag, meta, convert, _, help_text in rows:
            if isinstance(meta, tuple):
                flag += " {" + ",".join(meta) + "}"
            elif convert is not None:
                flag += f" {meta}"
            assert f"  {flag}  " in out and help_text in out
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (about, *_) in cli._COMMANDS.items():
        assert f"  {name}  " in out and about in out


def reference_parser(parser, name):
    """argparse's parser for subcommand ``name``, built from the CLI's option table."""
    exclusive = None
    for flag, meta, convert, default, help_text in cli._COMMANDS[name][2]:
        group = parser
        if flag in cli._EXCLUSIVE:
            group = exclusive = exclusive or parser.add_mutually_exclusive_group()
        if convert is None:
            group.add_argument(flag, action="store_true", help=help_text)
            continue
        required = default is cli._REQUIRED
        shown = {"choices": meta} if isinstance(meta, tuple) else {"metavar": meta}
        group.add_argument(flag, type=convert, required=required, help=help_text,
                           default=None if required else default, **shown)
    return parser


def reference_read(argv):
    """The parent's reading of a command line: the subcommand's own parser when
    the line starts with a subcommand, else the full parser."""
    if argv and argv[0] in cli._COMMANDS:
        parser = reference_parser(argparse.ArgumentParser(prog=f"quasibps {argv[0]}"), argv[0])
        return argv[0], parser.parse_args(argv[1:])
    parser = argparse.ArgumentParser(prog="quasibps")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (about, *_) in cli._COMMANDS.items():
        reference_parser(subs.add_parser(name, help=about), name)
    args = parser.parse_args(argv)
    return args.command, args


BENCH_LINES = [
    "magic-count --loops 3 --dim 8 --v 1",
    "ih-dim --loops 3 --dim 10 --v 1",
    "magic-count --quiver toric1.json --dim 3,4 --v 1",
    "magic-count --quiver cross.json --dim 3,3 --v 0",
    "magic-count --quiver three.json --dim 2,2,2 --v 1",
    "s-set --loops 3 --dim 13 --v 0",
    "s-set --loops 3 --dim 12 --v 1",
    "bps-dim --loops 3 --dim 12 --v 0 --builtin tripled-one-loop",
]
README_LINES = [
    "magic-count --loops 3 --dim 2 --v 1",
    "magic-count --quiver toric.json --dim 1,1 --v 1 --output json",
    "magic-count --loops 5 --dim 4 --v 0 --fast-membership checked",
    "s-set --loops 3 --dim 4 --v 0",
    "ih-dim --loops 3 --dim 2 --v 1",
    "bps-dim --loops 3 --dim 4 --v 0 --builtin tripled-one-loop --flavor mf",
    "find-delta --loops 2 --dim 6 --output json",
    "verify --report report.json",
]
FORM_LINES = [
    "magic-count --loops=3 --dim=2 --v=1 --output=csv",
    "magic-count --lo 3 --di 2 --v 1 --fa checked --th 2 --fo --out json",
    "magic-count --lo=3 --di=2,2 --de=1/2,-1/2",
    "magic-count --loops 3 --dim 2 --v -1",
    "magic-count --loops 3 --dim 2 --v 1 --v 2",
    "magic-count --loops 3 --loops 5 --dim 2 --delta=-1/2",
    "find-delta --loops 3 --dim 4 --max-v -1",
    "find-delta --loops 3 --dim 21 --force --output json",
    "bps-dim --quiver q.json --dim 1,1 --v 0 --blocks t.json --fl preprojective",
    "ih-dim --loops 3 --dim 2 --v 1 --output csv",
    "verify --deep --quiet --output json",
    "s-set --dim 3 --loops 3 --v 0 --force",
    "magic-count --dim ' 2' --loops ' -1' --v ' 3'",
]
REJECTED_LINES = [
    "magic-count --loops 3 --dim 2 --v 1 --delta 1/2",
    "magic-count --loops 3 --dim 2 --delta -1/2",
    "magic-count --loops 3 --v 1",
    "magic-count --loops 3 --dim 2 --v",
    "magic-count --loops 3 --dim --v 1",
    "magic-count --loops x --dim 2 --v 1",
    "magic-count --loops 3 --dim 2 --v 1 --output xml",
    "verify --output csv",
    "magic-count --loops 3 --dim 2 --v 1 stray",
    "magic-count --loops 3 --dim 2 --v 1 --bogus 4",
    "magic-count --loops 3 --dim 2 --f",
    "magic-count --loops 3 --dim 2 --v 1 --force=yes",
    "magic-count --loops 3 --dim 2 --v 1 --",
    "ih-dim --loops 3 --dim 2 --delta 1/2",
    "",
    "transmogrify --loops 3",
    "--bogus magic-count --loops 3 --dim 2 --v 1",
]
HELP_LINES = ["--help", "-h", "magic-count -h", "s-set --he", "verify --help --bogus"]


def outcome(read, argv):
    """(0, subcommand, option values) for an accepted line, else (exit code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            name, args = read(list(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue().splitlines()[-1:]
    return 0, name, {k: v for k, v in vars(args).items() if k != "command"}


@pytest.mark.parametrize("line", BENCH_LINES + README_LINES + FORM_LINES + REJECTED_LINES
                         + HELP_LINES)
def test_parser_matches_argparse_reference(line):
    argv = shlex.split(line)
    read = outcome(cli._read, argv)
    assert read == outcome(reference_read, argv)
    accepted = line in BENCH_LINES + README_LINES + FORM_LINES + HELP_LINES
    assert read[0] == (0 if accepted else 2)


TOKENS = ["--loops", "--lo", "--dim", "--d", "--de", "--delta=1/2", "--v", "--v=-1", "--f",
          "--fo", "--fast-membership", "--th", "--out=csv", "--output", "--output=xml", "--max",
          "--flavor", "--bu", "--deep", "--quiet", "--force=1", "-h", "--he", "-hh", "-hx", "--",
          "-", "", "3", "-1", "-1.5", "1,2", "1/2", "-1/2", "json", "mf", "x", "a b", "-x",
          "--bogus", "--=x"]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from([*cli._COMMANDS, "--bogus", "-h", "--", "x"]),
       st.lists(st.sampled_from(TOKENS), max_size=8))
def test_parser_matches_argparse_on_random_lines(first, rest):
    argv = [first, *rest]
    assert outcome(cli._read, argv) == outcome(reference_read, argv)


def test_closed_stdout_exits_141_without_traceback():
    # without PYTHONUNBUFFERED stdout is block-buffered, as it is by default
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    s_set = ["s-set", "--loops", "3", "--dim", "20", "--v", "0", "--output"]
    for argv in (s_set + ["table"], s_set + ["csv"], ["magic-count", "--help"], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run([sys.executable, "-m", "quasibps.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120, env={**env, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


def test_unrecognized_option_reports_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["magic-count", "--loops", "3", "--dim", "2", "--v", "1", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quasibps magic-count ")
    assert err.endswith("quasibps magic-count: error: unrecognized arguments: --bogus\n")


def test_importing_the_cli_leaves_csv_unloaded():
    # nor argparse, gettext or locale, whose cold imports cost more than a small count
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, quasibps.cli as cli\n"
            "def loaded(): return [n for n in ('csv', 'argparse', 'gettext', 'locale')"
            " if n in sys.modules]\n"
            "print(loaded())\n"
            "cli.main(['magic-count', '--loops', '3', '--dim', '2', '--v', '1'])\n"
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\nmagic_k0_dim  1\n[]\n"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def test_s_set_outputs(capsys):
    code, out, _ = run(capsys, "s-set", "--loops", "3", "--dim", "4", "--v", "0")
    assert code == 0
    assert out.splitlines() == ["4", "3+1", "2+2", "2+1+1", "1+1+1+1"]
    _, js, _ = run(capsys, "s-set", "--loops", "3", "--dim", "4", "--v", "0",
                   "--output", "json")
    payload = json.loads(js)
    assert payload["count"] == 5
    assert payload["partitions"][0] == [[4]]
    _, csvout, _ = run(capsys, "s-set", "--loops", "3", "--dim", "4", "--v", "1",
                       "--output", "csv")
    assert csvout == "partition\r\n4\r\n"
    _, csvout, _ = run(capsys, "s-set", "--loops", "3", "--dim", "3", "--v", "0",
                       "--output", "csv")
    assert csvout == "partition\r\n3\r\n2+1\r\n1+1+1\r\n"


def test_ih_dim(capsys):
    code, out, _ = run(capsys, "ih-dim", "--loops", "3", "--dim", "2", "--v", "1")
    assert code == 0
    assert out.split() == ["ih_dim", "1"]
    assert run(capsys, "ih-dim", "--loops", "2", "--dim", "2", "--v", "1")[0] == 2
    assert run(capsys, "ih-dim", "--loops", "3", "--dim", "2,2", "--v", "1")[0] == 2
    assert run(capsys, "ih-dim", "--loops", "3", "--dim", "2")[0] == 2
    for loops in ("-1", "-2", "-3"):
        code, out, err = run(capsys, "ih-dim", "--loops", loops, "--dim", "2", "--v", "1")
        assert (code, out) == (2, "")
        assert "ih-dim needs --loops 2g+1 (an odd loop count)" in err


def test_ih_dim_high_rank_returns(capsys):
    # the count keeps no call stack per entry, so a rank above the
    # interpreter's recursion limit still returns
    for v, want in ((0, "1"), (1, "0")):
        code, out, err = run(capsys, "ih-dim", "--loops", "1", "--dim", "1200", "--v", str(v))
        assert code == 0
        assert out.split() == ["ih_dim", want]
        assert "Traceback" not in err


IH_DIM_LINES = [line for line in BENCH_LINES + README_LINES + FORM_LINES
                if line.startswith("ih-dim")] + [
    "ih-dim --loops 1 --dim 6 --v 0", "ih-dim --loops 5 --dim 6 --v 4 --output json",
    "ih-dim --loops 3 --dim 8 --v -2"]


def test_ih_dim_prints_the_walk_count_without_calling_the_walk(monkeypatch, capsys):
    want = {}
    for line in IH_DIM_LINES:
        args = cli._read(shlex.split(line))[1]
        cli._emit({"ih_dim": bps.score_sequence_count((args.loops - 1) // 2, int(args.dim),
                                                       args.v)}, args.output)
        want[line] = capsys.readouterr().out

    def walk(*args):
        raise AssertionError("ih-dim called the score walk")

    monkeypatch.setattr(bps, "score_sequence_count", walk)
    monkeypatch.setattr(cli, "score_sequence_count", walk, raising=False)
    for line in IH_DIM_LINES:
        assert run(capsys, *shlex.split(line)) == (0, want[line], "")


def test_ih_dim_at_rank_200_weight_zero_returns_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ih-dim", "--loops", "3", "--dim", "200", "--v", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    key, value = out.split()
    assert key == "ih_dim" and int(value) > 0


def test_bps_dim_builtin(capsys):
    code, out, _ = run(capsys, "bps-dim", "--loops", "3", "--dim", "4", "--v", "0",
                       "--builtin", "tripled-one-loop", "--flavor", "mf",
                       "--output", "json")
    assert code == 0
    assert json.loads(out) == {"bps_dim": 5, "k0_dim": 5, "k1_dim": 5}
    code, out, _ = run(capsys, "bps-dim", "--loops", "3", "--dim", "4", "--v", "0",
                       "--builtin", "tripled-one-loop", "--flavor", "preprojective",
                       "--output", "json")
    assert json.loads(out) == {"bps_dim": 5, "k0_dim": 5, "k1_dim": 0}


def test_bps_dim_table_file(tmp_path, capsys):
    path = write_json(tmp_path, "blocks.json",
                      {"blocks": [{"e": [1], "dim": 3}, {"e": [2], "dim": 5}]})
    code, out, _ = run(capsys, "bps-dim", "--loops", "3", "--dim", "2", "--v", "0",
                       "--blocks", path, "--output", "json")
    assert code == 0
    assert json.loads(out) == {"bps_dim": 11}


def test_bps_dim_errors(tmp_path, capsys):
    code, _, err = run(capsys, "bps-dim", "--loops", "3", "--dim", "2", "--v", "0")
    assert code == 2 and "block table" in err
    path = write_json(tmp_path, "toric_table.json",
                      {"blocks": [{"e": [1, 0], "dim": 1}]})
    toric = write_json(tmp_path, "toric.json", TORIC1)
    code, _, err = run(capsys, "bps-dim", "--quiver", toric, "--dim", "1,1",
                       "--v", "0", "--blocks", path)
    assert code == 2 and "no block dimension" in err
    # block-table numbers must be nonnegative ints: one error line, no traceback
    for extra in ({"default_dim": "x"}, {"default_dim": 1.5}, {"default_dim": True},
                  {"monodromy": "full-input", "invariant_dim": "foo"}):
        path = write_json(tmp_path, "bad_table.json", {"blocks": [], **extra})
        code, out, err = run(capsys, "bps-dim", "--loops", "3", "--dim", "2", "--v", "0",
                             "--flavor", "mf", "--blocks", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nonnegative integer" in err
    # a part listed twice is refused whatever the row order, not resolved silently
    for rows in ([{"e": [1], "dim": 5}, {"e": [1], "dim": 1}],
                 [{"e": [1], "dim": 1}, {"e": [1], "dim": 5}]):
        path = write_json(tmp_path, "twice.json", {"blocks": rows})
        code, out, err = run(capsys, "bps-dim", "--loops", "1", "--dim", "3", "--v", "0",
                             "--blocks", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "appears twice" in err
    # a part with another vertex count is refused, not skipped as unused
    path = write_json(tmp_path, "wrong_length.json",
                      {"blocks": [{"e": [1, 0], "dim": 1}], "default_dim": 1})
    code, out, err = run(capsys, "bps-dim", "--loops", "3", "--dim", "2", "--v", "0",
                         "--blocks", path)
    assert code == 2 and out == ""
    assert err.startswith("error: block part (1, 0)") and err.count("\n") == 1


def test_find_delta(tmp_path, capsys):
    code, out, _ = run(capsys, "find-delta", "--loops", "3", "--dim", "2",
                       "--output", "json")
    assert code == 0
    assert json.loads(out) == {"delta": ["1/2"], "v": 1}
    code, out, _ = run(capsys, "find-delta", "--loops", "3", "--dim", "1")
    assert code == 0
    assert out.split() == ["delta", "0", "v", "0"]
    code, out, _ = run(capsys, "find-delta", "--loops", "3", "--dim", "4",
                       "--max-v", "0", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"delta": None, "v": None}
    # no spread weight works here: the answer comes from the corrected weights
    path = write_json(tmp_path, "q.json", {"vertices": ["0", "1"], "arrows": [[0, 1], [1, 1]]})
    code, out, _ = run(capsys, "find-delta", "--quiver", path, "--dim", "2,2",
                       "--output", "json")
    assert code == 0
    assert out == '{"delta":["-2/3","2/3"],"v":0}\n'
    for bad in ("-1", "-7"):
        code, out, err = run(capsys, "find-delta", "--loops", "3", "--dim", "4",
                             "--max-v", bad)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "max_v" in err
    # the search lists no partition, but keeps the partition cutoff unless forced
    code, out, err = run(capsys, "find-delta", "--loops", "3", "--dim", "21")
    assert code == 4 and out == ""
    assert err == "error: total rank 21 above partition cutoff 20; use force to override\n"
    code, out, err = run(capsys, "find-delta", "--loops", "3", "--dim", "21", "--force",
                         "--output", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"delta": ["1/21"], "v": 1}


FAKE_PASS = [CheckResult("alpha", "first anchor", "1", "1", True, 3),
             CheckResult("beta", "second anchor", "2", "2", True, 4)]
FAKE_FAIL = [CheckResult("alpha", "first anchor", "1", "1", True, 3),
             CheckResult("beta", "second anchor", "2", "7", False, 4)]


def test_verify_pass_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_checks", lambda deep=False, progress=None: FAKE_PASS)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--quiet", "--report", str(report),
                         "--output", "json")
    assert code == 0
    raw = out.strip()
    assert report.read_text().strip() == raw
    parsed = json.loads(raw)
    assert parsed["pass"] is True
    assert [c["name"] for c in parsed["checks"]] == ["alpha", "beta"]
    # canonical serialization: parse and re-serialize byte-identically
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == raw


def test_verify_unwritable_report_exits_two(tmp_path, monkeypatch, capsys):
    def must_not_run(deep=False, progress=None):
        raise AssertionError("checks ran before the report path was opened")

    monkeypatch.setattr(verify, "run_checks", must_not_run)
    report = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--quiet", "--report", str(report))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write report") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_verify_report_write_failure_exits_two(monkeypatch, capsys):
    # the path opens, but writing the report after the checks fails
    monkeypatch.setattr(verify, "run_checks", lambda deep=False, progress=None: FAKE_PASS)
    code, out, err = run(capsys, "verify", "--quiet", "--report", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write report") and err.count("\n") == 1


def test_verify_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_checks", lambda deep=False, progress=None: FAKE_FAIL)
    code, out, _ = run(capsys, "verify", "--quiet")
    assert code == 1
    assert "FAIL" in out
    assert "expected: 2" in out
    assert "computed: 7" in out


def test_verify_progress_goes_to_stderr(monkeypatch, capsys):
    def fake_run(deep=False, progress=None):
        if progress is not None:
            for r in FAKE_PASS:
                progress(r)
        return FAKE_PASS

    monkeypatch.setattr(verify, "run_checks", fake_run)
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert "alpha" in err and "PASS" in err
    assert "alpha" in out  # table on stdout as well
