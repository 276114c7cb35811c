"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  See perfbench/README.md for the workloads,
the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from instances import TAIL_PERCENTILE, WORKLOADS  # noqa: E402

SETUPS = 5  # set-ups per untraced run; setup_s is their median
# CPU time of worker.calibrate() on a 2.1 GHz Xeon VM at its usual speed.
# Every reported time is scaled by REFERENCE_CAL_S / (calibration time
# measured in the same process), so that it reads as CPU time on a host of
# that speed and the host's drift from minute to minute cancels out.
REFERENCE_CAL_S = 0.065
RUN_LIMIT_S = 170  # every run ends within this, or fails without a result


class BenchError(RuntimeError):
    pass


def tail_percentile(workload: str, n: int) -> int:
    """The workload's pinned tail percentile; a run with fewer than ten of
    its n samples beyond it has no result."""
    p = TAIL_PERCENTILE[workload]
    if n - _rank(p, n) < 10:
        raise BenchError(f"only {n - _rank(p, n)} of {n} verdicts lie beyond p{p}; "
                         "ten are needed for the tail")
    return p


def _rank(p: int, n: int) -> int:
    """Nearest rank of the p-th percentile among n samples (1-based)."""
    return max(1, -(-p * n // 100))


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Worker:
    """A workload process; `ready_s` is its CPU time from process start to
    the end of set-up, scaled to the reference speed by the calibration it
    reports with READY."""

    def __init__(self, args, workdir: Path, extra=(), deadline=None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir), *extra]
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        self.deadline = deadline
        self.workdir = workdir
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdout=subprocess.PIPE)
        try:
            ready, *values = self.proc.stdout.readline().split()
            if ready != "READY":
                raise BenchError("workload set-up failed")
            cpu_s, cal_s = map(float, values)
            self.ready_s = cpu_s * REFERENCE_CAL_S / cal_s
        except BaseException:
            self.proc.kill()
            self.close()
            raise

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("workload process ran past the time limit")
        finally:
            self.close()
        if self.proc.returncode != 0 or not out.strip():
            raise BenchError(f"workload process exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self):
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def inputs_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.suffix in (".aut", ".atm"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run the workload; returns (metrics with units, facts to print)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            w = Worker(args, work / f"setup{i}", ["--setup-only"], deadline)
            setups.append(w.ready_s)
            w.close()
    extra = []
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        extra = ["--spans", str(out / f"spans-{args.workload}.jsonl")]
    w = Worker(args, work / "run", extra, deadline)
    setups.append(w.ready_s)
    digest = inputs_digest(w.workdir)
    raw = w.result()
    shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values = raw["layers"]
        wanted = spec["per_layer"]
    else:
        speed = REFERENCE_CAL_S / statistics.median(raw["calibrations"])
        lat = [t * speed for t in raw["latencies"]]
        p = tail_percentile(args.workload, len(lat))
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_ms.p50": 1e3 * statistics.median(lat),
            "op_ms.tail": 1e3 * percentile(lat, p),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        raw["tail"] = f"p{p} of {len(lat)} verdicts"
        raw["speed"] = speed
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    raw.update(setups=len(setups), digest=digest)
    return metrics, raw


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "explora" / "cli.py").is_file():
        print(f"error: no explora sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        metrics, raw = measure(args, spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={nproc()} "
          f"lasso_bound={raw['lasso_bound']} oracle_bounds={raw['oracle_bounds']} "
          f"channel_budget={raw['channel_budget']} inputs_sha256={raw['digest']} "
          f"pass={raw['pass_ops']} verdicts")
    notes = {"setup_s": f"median of {raw['setups']} set-ups",
             "ops_per_s": (f"{attempted} verdicts, closed loop, one client; "
                           f"{attempted / raw['wall_s']:.4g}/s of wall-clock time; "
                           f"host speed {1 / raw['speed']:.3g} of reference"
                           if "wall_s" in raw else ""),
             "op_ms.tail": raw.get("tail", "")}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  {notes.get(name, '')}".rstrip())
    print(f"failed_share = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for line in raw["failures"]:
        print(f"# failed: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
