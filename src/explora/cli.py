"""Command-line interface.

Exit codes: 0 = positive verdict, 1 = negative verdict, 2 = inconclusive
(bounded search exhausted / open case), 3 = usage or parse error.  With
--json, one JSON object is printed with the verdict, optional witness data
and timing, plus the environment knobs for reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import config
from .automata import Automaton, MultiAutomaton
from .constructions import (buchi_union_flatten, compose_monitor, to_13,
                            union_condition_automaton_02, union_power)
from .errors import ParseError
from .explorability import (PCPInstance,
                            explorability_bounded, is_k_explorable,
                            is_k_population_winnable, pcp_reduce,
                            pcp_to_explorability, explorability_witness)
from .games import format_objective, parse_arena, solve
from .generators import (atm_reduce, gen_ak, gen_bk, gen_c, gen_fig4,
                         parse_atm)
from .hdgames import is_hd_assuming_explorable, is_hd_exact
from .omega import is_omega_explorable
from .textio import _is_int, format_automaton, parse_automaton

SCHEMA = 1


def _read(path: str, kind=(Automaton, MultiAutomaton)):
    """The automaton in the file; a `kind` of `Automaton` or `MultiAutomaton`
    admits only single-channel or only multi-channel files."""
    a = parse_automaton(Path(path).read_text(), path)
    if not isinstance(a, kind):
        channels = "single" if kind is Automaton else "multi"
        raise ParseError(path, 1, f"a {channels}-channel automaton")
    return a


def _read_pcp(path: str) -> PCPInstance:
    """A population-control instance: a finite-acceptance automaton whose
    target state is named by a '# target: <id>' comment line."""
    text = Path(path).read_text()
    nfa = parse_automaton(text, path)
    lines = [raw.strip() for raw in text.splitlines()]
    if isinstance(nfa, MultiAutomaton) or nfa.condition != "finite":
        no = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith(("condition:", "channels:")))
        raise ParseError(path, no, "'condition: finite' in a population instance")
    found = [i for i, line in enumerate(lines, start=1) if line.startswith("# target:")]
    if not found:
        raise ParseError(path, 1, "a '# target: <id>' comment line")
    no = found[-1]
    target = lines[no - 1].split(":", 1)[1].strip()
    if not _is_int(target) or not 0 <= int(target) < nfa.num_states:
        raise ParseError(path, no, f"a target state in [0, {nfa.num_states - 1}] "
                                   "after '# target:'")
    return PCPInstance(nfa, int(target))


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _format_pcp(inst: PCPInstance) -> str:
    return f"# target: {inst.target}\n" + format_automaton(inst.nfa)


class _Report:
    def __init__(self, args, command: str, input_name: str):
        self.json = args.json
        self.command = command
        self.input = input_name
        self.t0 = time.perf_counter()
        self.extra = {}

    def finish(self, verdict: str, code: int) -> int:
        ms = round((time.perf_counter() - self.t0) * 1000, 3)
        if self.json:
            payload = {
                "schema": SCHEMA,
                "command": self.command,
                "input": self.input,
                "verdict": verdict,
                "timings_ms": ms,
                "channel_budget": config.channel_budget(),
                "lasso_bound": config.lasso_bound(),
            }
            payload.update(self.extra)
            print(json.dumps(payload))
        else:
            print(verdict)
        return code


def _maybe_monitor(args):
    if getattr(args, "monitor", None):
        return _read(args.monitor, Automaton)
    return None


def _dump_witness(args, witness):
    if getattr(args, "witness", None) and witness is not None:
        moves = {str(k): str(v) for k, v in witness.moves.items()}
        Path(args.witness).write_text(json.dumps(moves, indent=1))


def cmd_k_explorable(args) -> int:
    rep = _Report(args, "k-explorable", args.automaton)
    a = _read(args.automaton)
    if args.witness:
        witness = explorability_witness(a, args.k, _maybe_monitor(args))
        ok = witness is not None
        _dump_witness(args, witness)
    else:
        ok = is_k_explorable(a, args.k, _maybe_monitor(args))
    rep.extra["witness_k"] = args.k if ok else None
    return rep.finish(f"{args.k}-explorable: {ok}", 0 if ok else 1)


def cmd_explorable(args) -> int:
    rep = _Report(args, "explorable", args.automaton)
    a = _read(args.automaton)
    verdict = explorability_bounded(a, args.max_k, _maybe_monitor(args))
    if verdict.status == "explorable-with":
        rep.extra["witness_k"] = verdict.k
        _dump_witness(args, verdict.witness)
        return rep.finish(f"explorable-with: {verdict.k}", 0)
    return rep.finish(f"not-explorable-up-to: {verdict.k}", 2)


def cmd_hd(args) -> int:
    if not args.via_g2 and (args.witness_k is not None or args.unchecked):
        raise ValueError("--witness-k and --unchecked need --via-g2")
    rep = _Report(args, "hd", args.automaton)
    a = _read(args.automaton, Automaton if args.via_g2 else (Automaton, MultiAutomaton))
    if args.via_g2:
        ok = is_hd_assuming_explorable(a, args.witness_k, _maybe_monitor(args),
                                       unchecked=args.unchecked)
    else:
        ok = is_hd_exact(a, _maybe_monitor(args))
    return rep.finish(f"history-deterministic: {ok}", 0 if ok else 1)


def cmd_omega_explorable(args) -> int:
    rep = _Report(args, "omega-explorable", args.automaton)
    a = _read(args.automaton, Automaton)
    verdict = is_omega_explorable(a)
    if verdict.status == "unknown":
        if args.emit_reduction:
            _write(args.emit_reduction, format_automaton(verdict.reduced))
        return rep.finish("unknown (Buchi reduction available)", 2)
    code = 0 if verdict.status == "omega-explorable" else 1
    return rep.finish(verdict.status, code)


def cmd_pcp_reduce(args) -> int:
    rep = _Report(args, "pcp-reduce", args.automaton)
    inst = pcp_reduce(_read(args.automaton, Automaton))
    _write(args.output, _format_pcp(inst))
    rep.extra["target"] = inst.target
    return rep.finish(f"states: {inst.nfa.num_states}, target: {inst.target}", 0)


def cmd_population(args) -> int:
    rep = _Report(args, "population", args.pcp)
    ok = is_k_population_winnable(_read_pcp(args.pcp), args.k)
    return rep.finish(f"determiniser-wins: {ok}", 0 if ok else 1)


def cmd_pcp_to_nfa(args) -> int:
    rep = _Report(args, "pcp-to-nfa", args.pcp)
    out = pcp_to_explorability(_read_pcp(args.pcp))
    _write(args.output, format_automaton(out))
    return rep.finish(f"states: {out.num_states}", 0)


def cmd_generate(args) -> int:
    rep = _Report(args, f"generate {args.family}", args.family)
    if args.family == "ak":
        out = gen_ak(args.k)
    elif args.family == "bk":
        out = gen_bk(args.k)
    elif args.family == "c":
        out = gen_c()
    elif args.family == "fig4":
        out = gen_fig4(args.side)
    else:  # atm
        machine = parse_atm(Path(args.machine).read_text(), args.machine)
        out = atm_reduce(machine, args.word)
    _write(args.output, format_automaton(out))
    return rep.finish(f"states: {out.num_states}", 0)


def cmd_construct(args) -> int:
    rep = _Report(args, f"construct {args.operation}", getattr(args, "automaton", ""))
    if args.operation == "to13":
        out = to_13(_read(args.automaton, Automaton))
    elif args.operation == "power":
        out = union_power(_read(args.automaton, Automaton), args.k)
    elif args.operation == "flatten":
        out = buchi_union_flatten(_read(args.automaton, MultiAutomaton))
    elif args.operation == "cond02":
        out = union_condition_automaton_02(args.k)
    else:  # compose
        out = compose_monitor(_read(args.automaton, MultiAutomaton),
                              _read(args.condition, Automaton))
    _write(args.output, format_automaton(out))
    return rep.finish(f"states: {out.num_states}", 0)


def cmd_solve_game(args) -> int:
    arena, objective = parse_arena(Path(args.arena).read_text(), args.arena)
    result = solve(arena, objective)
    payload = {
        "schema": SCHEMA,
        "objective": format_objective(objective),
        "winning_region_0": sorted(result.winning_region_0),
        "winning_region_1": sorted(result.winning_region_1),
        "initial_winner": 0 if arena.initial in result.winning_region_0 else 1,
    }
    print(json.dumps(payload))
    return 0 if arena.initial in result.winning_region_0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.
    Parsing reads a parser and never writes it: each call gets a fresh
    namespace, and help and usage are formatted, at the terminal's current
    width, when they are printed."""
    parser = argparse.ArgumentParser(
        prog="explora",
        description="degrees of non-determinism for automata: explorability, "
                    "history-determinism, omega-explorability")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("k-explorable", help="decide k-explorability")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--monitor", help="deterministic monitor file (Buchi/parity inputs)")
    p.add_argument("--witness", help="write the winning move map as JSON")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_k_explorable)

    p = sub.add_parser("explorable", help="bounded explorability search")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--monitor")
    p.add_argument("--witness")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_explorable)

    p = sub.add_parser("hd", help="decide history-determinism")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--via-g2", action="store_true",
                       help="2-token game (needs a verified explorability witness)")
    p.add_argument("--witness-k", type=int)
    p.add_argument("--unchecked", action="store_true",
                   help="skip the explorability verification (use with care)")
    p.add_argument("--monitor")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_hd)

    p = sub.add_parser("omega-explorable", help="decide omega-explorability")
    p.add_argument("--emit-reduction", metavar="OUT",
                   help="write the Buchi reduction in the unknown case")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_omega_explorable)

    p = sub.add_parser("pcp-reduce", help="explorability -> population game instance")
    p.add_argument("automaton")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_pcp_reduce)

    p = sub.add_parser("population", help="decide the k-population game")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("pcp")
    p.set_defaults(func=cmd_population)

    p = sub.add_parser("pcp-to-nfa", help="population game instance -> NFA whose "
                                          "explorability mirrors it")
    p.add_argument("pcp")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_pcp_to_nfa)

    p = sub.add_parser("generate", help="canonical instance families")
    fam = p.add_subparsers(dest="family", required=True)
    g = fam.add_parser("ak")
    g.add_argument("-k", type=int, required=True)
    g = fam.add_parser("bk")
    g.add_argument("-k", type=int, required=True)
    fam.add_parser("c")
    g = fam.add_parser("fig4")
    g.add_argument("side", choices=["left", "right"])
    g = fam.add_parser("atm")
    g.add_argument("machine")
    g.add_argument("word")
    for name, g in fam.choices.items():
        g.add_argument("-o", "--output", default="-")
        g.set_defaults(func=cmd_generate)

    p = sub.add_parser("construct", help="automaton transformations")
    ops = p.add_subparsers(dest="operation", required=True)
    g = ops.add_parser("to13")
    g.add_argument("automaton")
    g = ops.add_parser("power")
    g.add_argument("-k", type=int, required=True)
    g.add_argument("automaton")
    g = ops.add_parser("flatten")
    g.add_argument("automaton")
    g = ops.add_parser("cond02")
    g.add_argument("-k", type=int, required=True)
    g = ops.add_parser("compose")
    g.add_argument("automaton", help="multi-channel automaton file")
    g.add_argument("condition", help="condition automaton over rank tuples")
    for name, g in ops.choices.items():
        g.add_argument("-o", "--output", default="-")
        g.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve-game", help="solve an arena dump, print regions as JSON")
    p.add_argument("arena")
    p.set_defaults(func=cmd_solve_game)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
