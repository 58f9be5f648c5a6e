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

import argparse
import functools
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bounds import (lb_diff_entropy, lb_mi_smallball, mi_ub_cutset,
                     mi_ub_interactive, mi_ub_multi_iid, mi_ub_single)
from .info import (DistortionSpec, DistributionError, PriorSpec,
                   UnsupportedPairError, small_ball)
from .scenarios import (SEED_LIMIT, ScenarioSpec, fig2_data, fig34_data,
                        scenario_bern_bsc, scenario_bern_uniform,
                        scenario_bsc_bit, scenario_dglm_decentralized,
                        scenario_gauss_ball, scenario_gauss_gauss,
                        scenario_hide_seek, scenario_hypercube,
                        scenario_minimax_cube, scenario_noisy_ceo,
                        scenario_xor)
from .simulate import SCHEMES, SimulationConfig, sandwich_check, simulate_multi

__all__ = ["main", "build_parser"]

_SCENARIO_FNS = {
    "gauss-gauss": scenario_gauss_gauss,
    "bern-uniform": scenario_bern_uniform,
    "gauss-ball": scenario_gauss_ball,
    "bsc-bit": scenario_bsc_bit,
    "hypercube": scenario_hypercube,
    "bern-bsc": scenario_bern_bsc,
    "dglm": scenario_dglm_decentralized,
    "minimax-cube": scenario_minimax_cube,
    "ceo": scenario_noisy_ceo,
    "xor": scenario_xor,
    "hide-seek": scenario_hide_seek,
}

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise DistributionError(f"cannot read {text!r} as a boolean")


def _parse_etas(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


_parse_etas.__name__ = "float list"  # argparse reports "invalid float list value"


def _int(text: str) -> int:
    """An integer flag's type: argparse refuses, naming the flag, a value past
    the float range, in which bounds and scenarios compute (SimulationConfig
    holds a simulated run to the samplers' narrower ranges)."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise argparse.ArgumentTypeError("lies beyond the float range")
    return value


_int.__name__ = "int"  # argparse names the type in "invalid int value"


# Every valued flag or switch is one (dest, type, default[, help]) row, spelled
# "--" + dest with "-" for "_". A subcommand's rows build its parser and, in
# order, its manifest command. The model rows are ScenarioSpec's fields after
# its tag, with the types and defaults of its constructor's parameters; the
# field rho_bias is the flag --rho.
_MODEL_FLAGS = tuple(
    ("rho" if name == "rho_bias" else name,
     {"int": _int, "float": float, "bool": bool}[
         ScenarioSpec.__init__.__annotations__[name].split(" |")[0]],
     default)
    for name, default in zip(ScenarioSpec._fields[1:], ScenarioSpec.__init__.__defaults__))
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
    """Flat key=value file; '#' starts a comment, keys use flag spellings.

    Values stay text: ``build_parser`` makes them parser defaults.
    """
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
    source = "--seed" if "seed" in getattr(args, "given", ()) else "config key seed"
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
    report = call(argparse.Namespace(**{**vars(args), **unset}))
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
    return ScenarioSpec(tag=tag, **{"rho_bias" if dest == "rho" else dest:
                                    getattr(args, dest) for dest, *_ in _MODEL_FLAGS})


def _scenario_report(tag: str, spec: ScenarioSpec, args, seed: int):
    if tag == "ceo":
        _require(args, ("alpha",), "the CEO scenario")
        return scenario_noisy_ceo(spec, args.alpha)
    if tag == "gauss-ball":
        return scenario_gauss_ball(spec, reps=args.reps, seed=seed)
    return _SCENARIO_FNS[tag](spec)


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
    report = _scenario_report(args.tag, spec, args, seed)
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
    tag = SCHEMES[args.scheme].tag
    config = SimulationConfig(spec=_spec_from_args(tag, args), replications=args.reps,
                              seed=seed, scheme=args.scheme)
    spec = config.spec
    # the manifest echoes the model the scheme ran, values it fixed included
    for dest, *_ in _MODEL_FLAGS:
        setattr(args, dest, getattr(spec, "rho_bias" if dest == "rho" else dest))
    result = simulate_multi(config)
    tokens = _canonical(["simulate", args.scheme], args, _COMMAND_FLAGS["simulate"])
    lines = _manifest(tokens, args, spec=spec, seed=seed)
    lines.append("scheme,empirical_risk,ci_halfwidth,replications,seed")
    lines.append(",".join([result.scheme, _text(result.empirical_risk),
                           _text(result.ci_halfwidth),
                           str(result.replications), str(result.seed)]))
    code = 0
    if args.check:
        report = _scenario_report(tag, spec, args, seed)
        verdict = sandwich_check(report, result)
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
# parser assembly


class _Given(argparse.Action):
    """Stores a flag's value and adds its dest to ``namespace.given``, so a
    value can be told apart from a --config default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def _add_flags(parser, rows) -> None:
    for dest, kind, default, *help_text in rows:
        more = {"help": help_text[0]} if help_text else {}
        if kind is bool:
            parser.add_argument(_flag(dest), action="store_true", **more)
        else:
            parser.add_argument(_flag(dest), type=kind, default=default,
                                action=_Given, **more)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``config`` maps flag dests to text from a --config file.

    Config values become the defaults of every subcommand that has the flag,
    so argparse converts and rejects them exactly like flag text, and a flag
    given on the command line, abbreviated or not, wins. Switches read their
    text with ``_parse_bool``; a key no subcommand has is an error.
    """
    parser = argparse.ArgumentParser(
        prog="bayeslb",
        description="Lower bounds and simulations for distributed estimation "
                    "under communication constraints.")
    parser.add_argument("--config", default=None,
                        help="flat key=value file of defaults, read like flags; "
                             "flags override")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_bound = sub.add_parser("bound", help="evaluate one closed-form bound")
    p_bound.add_argument("--thm", type=int, required=True,
                         choices=sorted(_THEOREMS),
                         help="theorem number; theorem 2 needs a full "
                              "information-density distribution, so call "
                              "bounds.lb_info_density from Python")
    p_bound.add_argument("--csv", action="store_true",
                         help="emit key,value CSV with a manifest header")
    p_bound.set_defaults(func=cmd_bound)
    p_scen = sub.add_parser("scenario", help="closed-form report for one model")
    p_scen.add_argument("tag", choices=sorted(_SCENARIO_FNS))
    p_scen.set_defaults(func=cmd_scenario)
    p_sim = sub.add_parser("simulate", help="Monte Carlo run of one scheme")
    p_sim.add_argument("scheme", choices=sorted(SCHEMES))
    p_sim.add_argument("--parallel", type=int, default=1,
                       help="accepted, never changes the output bytes")
    p_sim.set_defaults(func=cmd_simulate)
    p_fig = sub.add_parser("figure", help="emit the data behind a figure")
    p_fig.add_argument("which", choices=sorted(_FIGURES))
    p_fig.set_defaults(func=cmd_figure)
    for name, command in sub.choices.items():
        # a group, unlike its parser, skips a help-formatter check per flag
        _add_flags(command.add_argument_group("parameters"), _COMMAND_FLAGS[name])
        command.add_argument("--out", default=None,
                             help="write output to this file")
        command.add_argument("--timestamp", action="store_true",
                             help="include a timestamp line "
                                  "(breaks byte reproducibility)")
    for key, text in (config or {}).items():
        owners = [(command, action) for command in sub.choices.values()
                  for action in command._actions
                  if action.dest == key and action.option_strings
                  and key not in ("help", "out")]
        if not owners:
            raise DistributionError(f"unknown config key {key!r}")
        for command, action in owners:
            # a switch (nargs 0) never converts its default, so read it here
            command.set_defaults(**{key: _parse_bool(text) if action.nargs == 0
                                    else text})
    return parser


@functools.lru_cache(maxsize=1)
def _default_parser() -> argparse.ArgumentParser:
    """The parser without --config defaults, built once per process."""
    return build_parser()


@functools.lru_cache(maxsize=1)
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser that finds --config, built once per process."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    return pre


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    pre_args, rest = _config_parser().parse_known_args(raw)
    try:
        args = (_default_parser() if pre_args.config is None
                else build_parser(_load_config(pre_args.config))).parse_args(rest)
        return args.func(args)
    except (DistributionError, UnsupportedPairError, OSError, OverflowError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
