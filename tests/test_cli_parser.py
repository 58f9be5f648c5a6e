"""The CLI's own parser against argparse, and the flags every subcommand shares.

``cli._parse`` reads the flag rows of ``cli._COMMANDS``; ``oracles.argparse_namespace``
builds an argparse parser from the same rows, as the CLI did before. Drawn
command lines (``test_cli_contract``'s argvs, with flags respelled by unique or
ambiguous prefixes and '=' forms, and small --config files named before or
after the subcommand) must give both parsers the same subcommand, key and flag
values, or be refused by both. Only these differences are allowed, each named
where it is handled:

- the --config pre-parser bug: argparse's pre-parser took any prefix of
  --config for it, wherever it stood, even one the subcommand's flags make
  ambiguous (``bound … --co FILE``); the CLI refuses such a prefix;
- usage and help text, which the tests do not compare;
- a usage error: argparse raises SystemExit(2), ``cli._parse`` raises an error
  that ``cli.main`` turns into exit code 2.

A malformed config value is still accepted when its flag is given on the
command line, as with argparse, since only the values that fill unset flags
are read; a malformed config switch value is refused even then, as before.
"""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bayeslb import cli
from bayeslb.info import DistributionError
from test_cli_contract import CHOICES, _value, argvs

ROOT = Path(__file__).resolve().parents[1]
SWITCH_TEXT = ["yes", "no", "on", "0", "1", "maybe", ""]


def _respelled(draw, token: str) -> str:
    """A flag token as itself, a prefix of it or a prefix not unique to it."""
    how = draw(st.sampled_from(["exact", "prefix", "prefix", "short"]))
    if how == "exact":
        return token
    if how == "prefix":
        return token[:draw(st.integers(min_value=3, max_value=len(token)))]
    return token[:3]


@st.composite
def command_lines(draw, command, config_path):
    """An argv of ``argvs(command)``, respelled, with maybe a --config file."""
    argv = draw(argvs(command))
    rows = {cli._flag(row[0]): row for row in cli._COMMANDS[command][4]}
    out, at = argv[:1], 1
    while at < len(argv):
        token, at = argv[at], at + 1
        if token not in rows:  # the positional key
            out.append(token)
            continue
        spelled = _respelled(draw, token)
        valued = rows[token][1] is not bool
        if valued and draw(st.booleans()):
            out.append(f"{spelled}={argv[at]}")
            at += 1
        elif not valued and draw(st.integers(0, 9)) == 0:
            out.append(f"{spelled}=yes")  # a switch takes no value
        else:
            out.append(spelled)
    if draw(st.booleans()):
        keys = [row for name in cli._COMMANDS for row in cli._COMMANDS[name][4]
                if row[0] not in ("config", "help")] + [("volume", float, None)]
        lines = []
        for dest, kind, *_ in draw(st.lists(st.sampled_from(keys), max_size=4)):
            if kind is bool:
                text = draw(st.sampled_from(SWITCH_TEXT))
            elif kind is str and dest not in CHOICES:
                text = "x.csv"
            else:
                text = draw(_value(dest, kind))
            key = dest.replace("_", "-") if draw(st.booleans()) else dest
            lines.append(f"{key}={text}")
        config_path.write_text("\n".join(lines) + "\n")
        spelling = draw(st.sampled_from(["--config", "--conf", "--co", "--c"]))
        at = draw(st.sampled_from([0, 1, len(out)]))
        out[at:at] = [f"{spelling}={config_path}"] if draw(st.booleans()) else \
            [spelling, str(config_path)]
    return out


def _outcome(parse, argv):
    """The subcommand, its key and flag values and whether --seed was given,
    or "refused", or "help"."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        # declared: argparse refuses by SystemExit(2) where cli._parse raises
        except SystemExit as exc:
            return "refused" if exc.code == 2 else "help"
        except (DistributionError, OSError):
            return "refused"
    name = next((name for name, entry in cli._COMMANDS.items() if entry[1] is args.func), None)
    if name is None:  # cli._parse's help runs no subcommand
        return "help"
    key = cli._COMMANDS[name][2].lstrip("-")
    dests = [key] + [row[0] for row in cli._COMMANDS[name][4] if row[0] not in ("config", "help")]
    return (name, {dest: repr(getattr(args, dest)) for dest in dests},
            "seed" in getattr(args, "given", ()))


def _ambiguous_config_prefix(argv) -> bool:
    """Declared difference: a prefix of --config after the subcommand that
    its flags make ambiguous, which argparse's pre-parser took for --config."""
    name = next(token for token in argv if token in cli._COMMANDS)
    flags = [cli._flag(row[0]) for row in cli._COMMANDS[name][4]]
    for token in argv[argv.index(name) + 1:]:
        spelled = token.partition("=")[0]
        if len(spelled) > 2 and "--config".startswith(spelled) and spelled != "--config" \
                and sum(flag.startswith(spelled) for flag in flags) > 1:
            return True
    return False


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_parser_matches_argparse(command, tmp_path_factory):
    config_path = tmp_path_factory.mktemp(command) / "run.cfg"

    @given(command_lines(command, config_path))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(argv):
        ours = _outcome(cli._parse, argv)
        if _ambiguous_config_prefix(argv):
            assert ours == "refused", argv
            return
        assert ours == _outcome(oracles.argparse_namespace, argv), argv

    check()


# ---------------------------------------------------------------------------
# --config and --help are flags of every subcommand


def command_tokens(text):
    return next(line for line in text.splitlines() if line.startswith("# command: ")).split()


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, others", [
    (["bound", "--thm", "6", "--outside", "2", "--co", "run.cfg"], "--colocated, --config"),
    (["simulate", "gauss-gauss", "--reps", "10", "--c"], "--capacity, --check, --config"),
])
def test_ambiguous_prefix_of_config_exits_2(argv, others, capsys):
    """Once the pre-parser took these for --config and failed on a missing
    file or value."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    spelled = next(token for token in argv if token.startswith("--c"))
    assert f"ambiguous option: {spelled} could match {others}" in err


def test_config_prefix_and_place(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("outside=3\n")
    argv = ["bound", "--thm", "6", "--csv"]
    for spelled in (["--config", str(cfg)], ["--conf", str(cfg)], [f"--con={cfg}"]):
        for at in (0, 1, len(argv)):
            code, out, _ = run(argv[:at] + spelled + argv[at:], capsys)
            assert code == 0
            tokens = command_tokens(out)
            assert tokens[tokens.index("--outside") + 1] == "3"
    # before the subcommand --co is --config; after it, --col is still --colocated
    code, out, _ = run(["--co", str(cfg), *argv, "--col", "--m", "2"], capsys)
    assert code == 0
    assert {"--outside", "3", "--colocated"} <= set(command_tokens(out))


def test_help_names_every_subcommand(capsys):
    code, out, err = run(["--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: bayeslb ")
    for name, (about, *_) in cli._COMMANDS.items():
        assert name in out.splitlines()[0]
        assert any(line.split() == [name, *about.split()] for line in out.splitlines())


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_subcommand_help_lists_every_row(name, capsys):
    for spelled in ("-h", "--help", "--he"):
        code, out, err = run([name, spelled], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: bayeslb {name} ")
        lines = out.splitlines()
        for dest, kind, _, *text in cli._COMMANDS[name][4]:
            line = next(line for line in lines[1:] if cli._flag(dest) in line.split())
            if text:
                assert line.endswith(text[0]), line


def test_help_comes_before_a_later_error(capsys):
    code, out, _ = run(["figure", "-h", "--points", "x"], capsys)
    assert code == 0 and out.startswith("usage: bayeslb figure")
    code, out, err = run(["figure", "--points", "x", "-h"], capsys)
    assert (code, out) == (2, "")
    assert "argument --points: invalid int value: 'x'" in err


@pytest.mark.parametrize("argv", [["--help"], ["bound", "-h"], ["bound", "--thm", "9"],
                                  ["scenario"], ["figure", "fig2", "--nope"]])
def test_no_message_names_the_module_file(argv):
    proc = subprocess.run([sys.executable, "-m", "bayeslb", *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == (0 if "-h" in argv or "--help" in argv else 2)
    assert "__main__" not in proc.stdout + proc.stderr
    for line in (proc.stdout + proc.stderr).splitlines():
        assert not line.startswith("usage:") or line.startswith("usage: bayeslb")
