"""Command-line front end: evaluate bounds, run scenarios, emit figure data.

Every CSV the tool writes starts with '#'-prefixed manifest lines carrying
the tool version, a canonical command line, the full model echo, and the
resolved seed, so the file can be regenerated byte-for-byte by re-running
the manifest command. Timestamps are added only on request since they break
reproducibility. A --config file supplies flag defaults that are parsed
exactly like flags given on the command line, which override them. Exit
codes: 0 success, 1 failed --check, 2 usage error.
"""
from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .bounds import (lb_diff_entropy, lb_mi_smallball, mi_ub_cutset,
                     mi_ub_interactive, mi_ub_multi_iid, mi_ub_single)
from .info import (DistortionSpec, DistributionError, PriorSpec,
                   UnsupportedPairError, small_ball)
from .scenarios import (SCENARIOS, SEED_LIMIT, SPEC_FIELDS, ScenarioSpec,
                        fig2_data, fig34_data)
from .simulate import SCHEMES, SimulationConfig, sandwich_check, simulate_multi

__all__ = ["main"]


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise DistributionError(f"cannot read {text!r} as a boolean")


def _parse_etas(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


def _int(text: str) -> int:
    """An integer flag's type: the parser refuses, naming the flag, a value
    past the float range, in which bounds and scenarios compute
    (SimulationConfig holds a simulated run to the samplers' narrower ranges)."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise OverflowError("lies beyond the float range")
    return value


# Every valued flag or switch is one (dest, type, default[, help]) row, spelled
# "--" + dest with "-" for "_". A subcommand's rows here are parsed and, in
# order, make its manifest command (_COMMANDS adds those it does not echo). The
# model rows are those of SPEC_FIELDS, in its order and with its types and
# defaults, which ScenarioSpec checks; the field rho_bias is the flag --rho.
_FLAG_TYPES = {int: _int, int | None: _int, float: float, float | None: float, bool: bool}
_MODEL_FLAGS = tuple(("rho" if name == "rho_bias" else name, _FLAG_TYPES[kind], default)
                     for name, kind, default, *_ in SPEC_FIELDS)
_RUN_FLAGS = (
    ("reps", _int, None, "replications (simulate) or Monte Carlo draws for "
                        "mass estimates (scenario gauss-ball)"),
    ("seed", int, None),
)
_BOUND_FLAGS = (
    ("I", float, None), ("h", float, None), ("hx", float, None),
    ("i_single", float, None), ("i_cond", float, None), ("b", float, None),
    ("capacity", float, None), ("T", _int, 1), ("m", _int, 1), ("n", _int, 1),
    ("d", _int, 1), ("r", float, 1.0), ("outside", _int, None),
    ("eta_stat", float, 1.0), ("eta_uses", float, 1.0),
    ("eta_uses_mt", float, None), ("eta_s", float, 1.0),
    ("alpha", float, None), ("colocated", bool, False),
    ("noiseless", bool, False), ("prior", str, None),
    ("prior_var", float, None), ("prior_dim", _int, 1),
    ("prior_radius", float, None), ("prior_size", _int, None),
    ("distortion", str, None), ("distortion_r", float, 1.0),
)
_COMMAND_FLAGS = {
    "bound": _BOUND_FLAGS,
    "scenario": _MODEL_FLAGS + (
        ("alpha", float, None, "small-ball level (CEO scenario)"),) + _RUN_FLAGS,
    "simulate": _MODEL_FLAGS + _RUN_FLAGS + (
        ("check", bool, False, "compare against the matching closed-form report"),),
    "figure": (("p", float, 0.3), ("etas", _parse_etas, (1.0, 0.75, 0.5)),
               ("points", _int, 61), ("m", _int, 10), ("d", _int, 512),
               ("b", float, None), ("rho", float, 0.01)),
}

# One row per theorem: the flags it cannot do without, and its bounds call.
# The calls go through this module's names so that rebinding them (as a
# tracer does) reaches every call. Unset budget flags are read as infinite.
_BUDGETS = ("I", "hx", "b", "capacity", "i_single", "i_cond")
_THEOREMS = {
    1: (("I", "prior"), lambda a: lb_mi_smallball(a.I, _small_ball_profile(a))),
    3: (("I", "h"), lambda a: lb_diff_entropy(a.I, a.h, d=a.d, r=a.r)),
    4: ((), lambda a: mi_ub_single(a.I, a.hx, a.b, a.capacity, a.T,
                                   a.eta_stat, a.eta_uses)),
    5: ((), lambda a: mi_ub_multi_iid(a.I, a.i_single, a.eta_stat, a.m, a.b,
                                      a.capacity, a.T, a.eta_uses,
                                      eta_uses_mT=a.eta_uses_mt)),
    6: (("outside",), lambda a: mi_ub_cutset(
        a.i_cond, a.eta_s, a.outside, a.b, a.capacity, a.T, a.eta_uses,
        colocated=a.colocated, m=a.m if a.colocated else None,
        noiseless=a.noiseless)),
    7: (("alpha",), lambda a: mi_ub_interactive(a.alpha, a.n, a.m, a.b, a.I)),
}
# One row per figure: the figure flags it reads, which its manifest command
# echoes, and its data call, which returns (header, rows).
_FIGURES = {
    "fig2": (("p", "etas", "points"), lambda a: fig2_data(
        p=a.p, points=a.points, etas=a.etas)),
    "fig3": (("m", "d", "b"), lambda a: fig34_data(
        m=a.m, d=a.d, b=a.b, rho_rule="quarter_n")),
    "fig4": (("m", "d", "b", "rho"), lambda a: fig34_data(
        m=a.m, d=a.d, b=a.b, rho_rule="fixed", rho=a.rho)),
}


def _small_ball_profile(a):
    """rho -> L(rho) for the --prior* and --distortion* flags."""
    prior = PriorSpec(a.prior.replace("-", "_"), var=a.prior_var or 0.0,
                      dim=a.prior_dim, radius=a.prior_radius or 0.0,
                      size=a.prior_size or 0)
    dist = DistortionSpec((a.distortion or "absolute").replace("-", "_"),
                          r=a.distortion_r)
    return lambda rho: small_ball(prior, rho, dist)


def _require(args, needs, what: str) -> None:
    """Refuse a run that leaves any flag of ``needs`` unset, naming them."""
    missing = [_flag(dest) for dest in needs if getattr(args, dest) is None]
    if missing:
        raise DistributionError(f"{what} needs {' and '.join(missing)}")


def _load_config(path: str) -> dict:
    """Flat key=value file ('#' starts a comment) of flag names to their text."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError:
        raise DistributionError(f"config file {path!r} is not text") from None
    values = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DistributionError(f"config line {raw!r} is not key=value")
        key, text = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = text
    return values


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    # a seed the command line did not give came from the --config file
    source = "--seed" if "seed" in args.given else "config key seed"
    if seed is None:
        env = os.environ.get("BAYESLB_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "BAYESLB_SEED"
        except ValueError:
            raise DistributionError("BAYESLB_SEED must be an integer") from None
    if not 0 <= seed < SEED_LIMIT:
        raise DistributionError(f"{source} {seed} is outside [0, 2^64)")
    return seed


# ---------------------------------------------------------------------------
# formatting


def _text(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return "%.9g" % (value + 0.0)  # + 0.0 turns -0.0 into 0.0
    return str(value)


def _arg_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(part)) for part in value)
    return str(value)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _canonical(head: list, args, rows) -> list:
    """``head`` plus every set value of the flag ``rows``, in row order."""
    tokens = list(head)
    for dest, *_ in rows:
        value = getattr(args, dest)
        if value is None or value is False:
            continue
        tokens.append(_flag(dest))
        if value is not True:
            tokens.append(_arg_text(value))
    return tokens


def _flat_items(mapping: dict, prefix: str = "") -> list:
    items = []
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            items.extend(_flat_items(value, name + "."))
        elif isinstance(value, (list, tuple)):
            continue
        else:
            items.append((name, value))
    return items


def _manifest(tokens: list, args, spec=None, seed=None) -> list:
    """The '#' header lines: version, command, spec echo, seed, timestamp."""
    out = [f"# bayeslb {__version__}", f"# command: {' '.join(tokens)}"]
    if spec is not None:
        echo = " ".join(f"{name}={_arg_text(getattr(spec, name))}"
                        for name in spec._fields)
        out.append(f"# spec: {echo}")
    if seed is not None:
        out.append(f"# seed: {seed}")
    if args.timestamp:
        from datetime import datetime, timezone  # here only: it slows start-up
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        out.append(f"# timestamp: {stamp}")
    return out


def _emit(lines: list, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# bound subcommand


def cmd_bound(args) -> int:
    needs, call = _THEOREMS[args.thm]
    _require(args, needs, f"--thm {args.thm}")
    unset = {dest: math.inf for dest in _BUDGETS if getattr(args, dest) is None}
    report = call(SimpleNamespace(**{**vars(args), **unset}))
    pairs = [("value", report.value), ("kind", report.kind),
             ("clamped", report.clamped), ("asymptotic", report.asymptotic),
             ("infeasible", report.infeasible)]
    pairs += _flat_items(report.arguments)
    pairs += _flat_items(report.inputs, "input.")
    if args.csv:
        tokens = _canonical(["bound", "--thm", str(args.thm)], args, _BOUND_FLAGS)
        lines = _manifest(tokens, args)
        lines += ["key,value"] + [f"{k},{_text(v)}" for k, v in pairs]
    else:
        lines = [f"{k}={_text(v)}" for k, v in pairs]
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# scenario subcommand


def _spec_from_args(tag: str, args) -> ScenarioSpec:
    return ScenarioSpec(tag, *(getattr(args, dest) for dest, *_ in _MODEL_FLAGS))


def _report_rows(report) -> list:
    header = "group,name,value,kind,asymptotic,clamped,infeasible"
    rows = []
    for name, bound in report.lower_bounds.items():
        rows.append(("lower", name, bound.value, bound.kind,
                     bound.asymptotic, bound.clamped, bound.infeasible))
    for name, value in report.upper_bounds.items():
        rows.append(("upper", name, value, "achievable", False, False, False))
    for name, value in report.derived.items():
        if hasattr(value, "value"):
            rows.append(("derived", name, value.value, value.kind,
                         value.asymptotic, value.clamped, value.infeasible))
        elif isinstance(value, (bool, int, float)):
            rows.append(("derived", name, value, "derived", False, False, False))
    return [header] + [",".join(_text(cell) for cell in row) for row in rows]


def cmd_scenario(args) -> int:
    seed = _resolve_seed(args)
    args.seed = seed
    spec = _spec_from_args(args.tag, args)
    extra = {}
    if args.tag == "ceo":
        _require(args, ("alpha",), "the CEO scenario")
        extra = {"alpha": args.alpha}
    elif args.tag == "gauss-ball":
        extra = {"reps": args.reps, "seed": seed}
    report = SCENARIOS[args.tag](spec, **extra)
    tokens = _canonical(["scenario", args.tag], args, _COMMAND_FLAGS["scenario"])
    lines = _manifest(tokens, args, spec=spec, seed=seed)
    lines += [f"# notice: {v}" for v in report.derived.values() if isinstance(v, str)]
    lines += _report_rows(report)
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate subcommand


def cmd_simulate(args) -> int:
    _require(args, ("reps",), "simulate")
    if args.parallel < 1:
        raise DistributionError("--parallel must be >= 1")
    seed = _resolve_seed(args)
    args.seed = seed
    scheme = SCHEMES[args.scheme]
    config = SimulationConfig(spec=_spec_from_args(scheme.tag, args), replications=args.reps,
                              seed=seed, scheme=args.scheme)
    spec = config.spec
    # the manifest echoes the model the scheme ran, values it fixed included
    for (dest, *_), name in zip(_MODEL_FLAGS, spec._fields[1:]):
        setattr(args, dest, getattr(spec, name))
    result = simulate_multi(config)
    tokens = _canonical(["simulate", args.scheme], args, _COMMAND_FLAGS["simulate"])
    lines = _manifest(tokens, args, spec=spec, seed=seed)
    lines.append("scheme,empirical_risk,ci_halfwidth,replications,seed")
    lines.append(",".join([result.scheme, _text(result.empirical_risk),
                           _text(result.ci_halfwidth),
                           str(result.replications), str(result.seed)]))
    code = 0
    if args.check:
        verdict = sandwich_check(scheme.report(spec), result)
        lines.append(f"# check: {'pass' if verdict.passed else 'FAIL'}")
        lines += [f"# margin: {label}={_text(margin)}"
                  for label, margin in verdict.margins.items()]
        lines += [f"# check-failure: {text}" for text in verdict.hard_failures]
        lines += [f"# advisory: {text}" for text in verdict.advisories]
        if not verdict.passed:
            code = 1
    _emit(lines, args.out)
    return code


# ---------------------------------------------------------------------------
# figure subcommand


def cmd_figure(args) -> int:
    reads, call = _FIGURES[args.which]
    if args.b is None:  # fig3 and fig4 default their bit budget to 3 d
        args.b = 3.0 * args.d
    header, rows = call(args)
    tokens = _canonical(["figure", args.which], args,
                        [row for row in _COMMAND_FLAGS["figure"] if row[0] in reads])
    lines = _manifest(tokens, args)
    lines.append(",".join(header))
    lines += [",".join(_text(cell) for cell in row) for row in rows]
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# command table and parser

# Each subcommand: its help, its handler, its key (the flag or positional, as errors
# name it, that picks its table's row) with the key's choices, and its flag rows.
_SHARED_FLAGS = (("out", str, None, "write output to this file"),
                 ("timestamp", bool, False, "add a timestamp line (not byte-reproducible)"))
_PROGRAM_FLAGS = (("config", str, None, "flat key=value file of flag values; given flags win"),
                  ("help", bool, False, "show this help and exit"))
_COMMANDS = {name: (*entry[:4], entry[4] + _SHARED_FLAGS + _PROGRAM_FLAGS) for name, entry in {
    "bound": ("evaluate one closed-form bound", cmd_bound, "--thm", _THEOREMS, _BOUND_FLAGS + (
        ("thm", int, None, "theorem number; theorem 2 needs a full information-density "
                           "distribution, so call bounds.lb_info_density from Python"),
        ("csv", bool, False, "emit key,value CSV with a manifest header"))),
    "scenario": ("closed-form report for one model", cmd_scenario, "tag", SCENARIOS,
                 _COMMAND_FLAGS["scenario"]),
    "simulate": ("Monte Carlo run of one scheme", cmd_simulate, "scheme", SCHEMES,
                 _COMMAND_FLAGS["simulate"] + (
                     ("parallel", int, 1, "accepted, never changes the output bytes"),)),
    "figure": ("emit the data behind a figure", cmd_figure, "which", _FIGURES,
               _COMMAND_FLAGS["figure"]),
}.items()}
# the program before its subcommand, which is its key; no config file sets its flags
_PROGRAM = ("Lower bounds and simulations for distributed estimation under communication "
            "constraints.", None, "command", _COMMANDS, _PROGRAM_FLAGS)


def _help(name) -> list:
    """The -h lines of subcommand ``name``, or of the program, from the rows."""
    about, _, key, choices, rows = _COMMANDS.get(name, _PROGRAM)
    head = (f"{key} " if key.startswith("-") else "") + f"{{{','.join(map(str, choices))}}}"
    lines = [f"usage: bayeslb {name or '[flags]'} {head} {'[flags]' if name else '...'}", about]
    lines += [f"  {cmd:<10}{entry[0]}" for cmd, entry in _COMMANDS.items() if not name]
    for dest, kind, _, *text in rows:
        spelling = "-h, " * (dest == "help") + _flag(dest) + f" {dest.upper()}" * (kind is not bool)
        lines.append(f"  {spelling:<24} {''.join(text)}".rstrip())
    return lines


def _match(table: dict, token: str) -> tuple:
    """(row, text after '=') of the flag ``token`` names by spelling or unique prefix, else
    (None, None) for a value (no leading '-', or '-', a negative number, spaced) or ((), None)."""
    name, eq, text = token.partition("=")
    hits = [name] if name in table else [
        flag for flag in table if name[2:] and name.startswith("--") and flag.startswith(name)]
    if len(hits) > 1:
        raise DistributionError(f"ambiguous option: {token} could match {', '.join(sorted(hits))}")
    if hits:
        return table[hits[0]], text if eq else None
    number = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    return (None if token[:1] != "-" or token == "-" or " " in token or number else ()), None


def _value(row, text: str):
    """A flag's text read by its row's type; a refusal names the flag."""
    try:
        return row[1](text)
    except OverflowError as exc:  # _int's refusal
        raise DistributionError(f"argument {_flag(row[0])}: {exc}")
    except ValueError:
        kind = {float: "float", _parse_etas: "float list"}.get(row[1], "int")
        raise DistributionError(f"argument {_flag(row[0])}: invalid {kind} value: {text!r}")


def _parse(argv: list):
    """The run's values and handler, or help if asked for before any error. A --config file's
    values fill the flags the command line leaves unset, and only those are read: a malformed
    value stays unread when its flag is given, but a switch's is read and refused even then."""
    name, (_, _, key, choices, rows), values = None, _PROGRAM, {}
    table, at = {"-h": rows[1], **{_flag(row[0]): row for row in rows}}, 0
    while at < len(argv):
        token, at = argv[at], at + 1
        row, text = _match(table, token)
        if row == () or row is None and (key.startswith("-") or key in values):
            raise DistributionError(f"unrecognized arguments: {token}")
        if row is None:  # the subcommand, then its positional key
            row, text = (key, str), token
        elif row[1] is bool and text is not None:
            raise DistributionError(f"argument {_flag(row[0])}: ignored explicit argument {text!r}")
        elif row[0] == "help":
            return SimpleNamespace(func=lambda _: _emit(_help(name), None) or 0)
        elif row[1] is not bool and text is None:
            if at == len(argv) or _match(table, argv[at])[0] is not None:
                raise DistributionError(f"argument {_flag(row[0])}: expected one argument")
            text, at = argv[at], at + 1
        value = True if row[1] is bool else _value(row, text)
        if row[0] == key.lstrip("-") and value not in choices:
            raise DistributionError(f"argument {key}: invalid choice: {value!r} (choose from "
                                    f"{', '.join(map(repr, sorted(choices)))})")
        if row[0] == "command":
            name, (_, _, key, choices, rows) = value, _COMMANDS[value]
            table.update({_flag(row[0]): row for row in rows})
        else:
            values[row[0]] = value
    path = values.pop("config", None)
    kinds = {row[0]: row[1] for entry in _COMMANDS.values() for row in entry[4]
             if row[0] not in ("out", "config", "help")}
    defaults = {row[0]: row[2] for row in rows}
    for dest, text in (_load_config(path) if path is not None else {}).items():
        if dest not in kinds:
            raise DistributionError(f"unknown config key {dest!r}")
        text = _parse_bool(text) if kinds[dest] is bool else text
        if dest in defaults.keys() - values.keys() - {key.lstrip("-")}:
            defaults[dest] = text if kinds[dest] is bool else _value((dest, kinds[dest]), text)
    if key.lstrip("-") not in values:
        raise DistributionError(f"the following arguments are required: {key}")
    return SimpleNamespace(**{**defaults, **values}, given=set(values), func=_COMMANDS[name][1])


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (DistributionError, UnsupportedPairError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
