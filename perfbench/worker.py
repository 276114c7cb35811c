"""One workload in one fresh process: set up, then a closed loop of verdicts.

Run by run.py, from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        --workdir DIR [--setup-only] [--spans FILE]

Set-up imports explora from the checkout's ``src``, writes the seed's
instance set into DIR and prints ``READY`` with the process's CPU time so
far and the CPU time of one calibration loop.  The loop then runs whole passes
over the instance set, one verdict at a time through
``explora.cli.main(["--json", ...])``, until T seconds have passed and there
are ten verdicts beyond the workload's tail percentile, and checks
each exit code and verdict against the expected answer.  With --trace 1 the
passes alternate between untraced and traced.  The last line of output is one
JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from explora import cli, config  # noqa: E402

import instances  # noqa: E402
from tracer import Tracer  # noqa: E402

MAX_LOOP_S = 120  # the measuring loop never outlasts this


def calibrate() -> float:
    """CPU time of a fixed loop of tuple, dict and set work, the kind of work
    explora does.  The shared host's speed drifts by up to a third from
    minute to minute; this loop slows and speeds up with it, so run.py
    divides measured times by it."""
    gc.disable()  # the loop makes no cycles; a collection would only add noise
    try:
        t = time.process_time()
        for r in range(12):  # small tables, so as not to raise peak_rss_mb
            d = {}
            for i in range(5000):
                d[(i * 7919 + r) % 2003, i & 7] = i
            len({k for k, _ in sorted(d.items())})
        return time.process_time() - t
    finally:
        gc.enable()


def cli_verdict(argv) -> tuple[int, str]:
    """Exit code and verdict line of ``explora --json <argv>``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    return code, json.loads(buf.getvalue().splitlines()[-1])["verdict"]


def run_op(op) -> tuple[bool, str]:
    """One verdict; returns (matches the expected answer, what was seen)."""
    try:
        code, verdict = cli_verdict(op.argv)
    except Exception as e:  # a crash is a failed operation, not a harness error
        return False, f"{type(e).__name__}: {e}"
    seen = f"exit {code}, {verdict!r}"
    return code == op.code and verdict == op.verdict, seen


def run_pass(ops, failures: list, tracer: Tracer | None = None) -> list[float]:
    """One pass over `ops`; returns the CPU time of each verdict."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        t = time.process_time()
        ok, seen = run_op(op)
        latencies.append(time.process_time() - t)
        if not ok:
            failures.append(f"{op.base}: {' '.join(op.argv[:-1])}: {seen}, "
                            f"expected exit {op.code}, {op.verdict!r}")
    return latencies


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of a traced phase, per operation unless stated."""
    self_ms = dict.fromkeys(("cli", "textio", "explorability", "determinize",
                             "automata", "games", "omega", "hdgames"), 0.0)
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, dur, own in tracer.durations():
        layer = tracer.layer_of.get(name)
        if layer is None:
            continue
        self_ms[layer] += own * 1e3
        total_ms[name] = total_ms.get(name, 0.0) + dur * 1e3
        calls[name] = calls.get(name, 0) + 1
        if name == "explora.games.solve_parity" or name == "explora.omega.solve_parity":
            self_ms["games.solve"] = self_ms.get("games.solve", 0.0) + own * 1e3
    c = tracer.counts

    def per_op(x):
        return x / ops

    def ratio(x, y):
        return x / y if y else 0.0

    def total(*names):
        return sum(total_ms.get(f"explora.{n}", 0.0) for n in names)

    member = "explora.automata.member_lasso"
    return {
        "automata.oracle_ms": per_op(total("determinize.equivalent_on_lassos")),
        "automata.oracle_lassos": per_op(c["automata.lassos"]),
        "automata.member_lasso_us": 1e3 * ratio(total_ms.get(member, 0.0), calls.get(member, 0)),
        "automata.oracle_bound": ratio(c["automata.oracle_bound"], c["automata.oracle_calls"]),
        "determinize.monitor_ms": per_op(self_ms["determinize"]),
        "determinize.monitor_states": ratio(c["determinize.monitor_states"], c["determinize.monitor_builds"]),
        "determinize.monitor_builds_per_op": per_op(c["determinize.monitor_builds"]),
        "explorability.self_ms": per_op(self_ms["explorability"]),
        "explorability.k_attempts_per_op": per_op(c["explorability.k_attempts"]),
        "explorability.arena_positions": per_op(c["explorability.arena_positions"]),
        "games.self_ms": per_op(self_ms["games"]),
        "games.compile_ms": per_op(total("games.compile_objective")),
        "games.zielonka_ms": per_op(total("games.zielonka_tree")),
        "games.cond_states": ratio(c["games.cond_states"], c["games.compiles"]),
        "games.product_positions": per_op(c["games.product_positions"]),
        "games.product_edges": per_op(c["games.product_edges"]),
        "games.solve_ms": per_op(self_ms.get("games.solve", 0.0)),
        "games.verify_ms": per_op(total("games.verify_strategy")),
        "games.solves_per_op": per_op(c["games.solves"]),
        "omega.elim_ms": per_op(self_ms["omega"]),
        "omega.elim_positions": per_op(c["omega.elim_positions"]),
        "hdgames.self_ms": per_op(self_ms["hdgames"]),
        "hdgames.token_arena_ms": per_op(total("hdgames.build_token_game")),
        "hdgames.token_positions": per_op(c["hdgames.token_positions"]),
        "hdgames.token_reachable_share": ratio(c["hdgames.token_reachable"], c["hdgames.token_positions"]),
        "textio.parse_ms": per_op(total("cli.parse_automaton")),
        "cli.self_ms": per_op(self_ms["cli"]),
        "trace.op_ms": per_op(total("cli.main")),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced phase's spans here")
    args = p.parse_args(argv)
    # an inherited value must not shrink the oracle or the channel budget
    os.environ["EXPLORE_CHANNEL_BUDGET"] = str(config.DEFAULT_CHANNEL_BUDGET)
    os.environ["EXPLORE_LASSO_BOUND"] = str(config.DEFAULT_LASSO_BOUND)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = instances.write_instances(args.workload, args.seed, workdir, cli.main)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"READY {usage.ru_utime + usage.ru_stime} {calibrate()}", flush=True)
    if args.setup_only:
        return 0

    failures: list[str] = []
    result = {"lasso_bound": config.lasso_bound(),
              "channel_budget": config.channel_budget(),
              "oracle_bounds": sorted({config.capped_lasso_bound(len(letters))
                                       for letters in _alphabets(workdir)}),
              "pass_ops": len(ops)}
    # enough verdicts for ten beyond the tail percentile, unless that would
    # take longer than the run may last
    tail = instances.TAIL_PERCENTILE[args.workload]
    min_ops = 0 if args.trace else -(-1000 // (100 - tail))
    plain, traced, calibrations = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:  # whole passes; with --trace 1, traced and untraced alternate
        calibrations.append(calibrate())
        plain += run_pass(ops, failures)
        if args.trace:
            tracer.install()
            try:
                traced += run_pass(ops, failures, tracer)
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (len(plain) >= min_ops or elapsed >= MAX_LOOP_S):
            break
    result.update(attempted=len(plain) + len(traced))
    if args.trace:
        layers = layer_metrics(tracer, len(traced))
        layers["trace.overhead_share"] = 1 - sum(plain) / sum(traced)
        result.update(layers=layers)
        if args.spans:
            tracer.write(args.spans)
    else:
        result.update(latencies=plain, calibrations=calibrations,
                      wall_s=time.perf_counter() - start)
    result.update(failed=len(failures), failures=failures[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


def _alphabets(workdir: Path):
    for path in sorted(workdir.glob("*.aut")):
        for line in path.read_text().splitlines():
            if line.startswith("alphabet:"):
                yield line.split()[1:]


if __name__ == "__main__":
    sys.exit(main())
