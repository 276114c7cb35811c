"""Record the reference verdicts of the base instances that have no paper
fact behind them (random automata, pcp-reduce sizes) into answers.json.

    python3 perfbench/record_answers.py

Run it only on a commit whose verdicts are trusted; the recorded file is the
reference every later run is checked against.  Token counts come from
``explora explorable --max-k K`` with K the largest count any benchmark
command asks about.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from worker import ROOT, cli, instances
from worker import cli_verdict as verdict


def record(base, workdir: Path) -> dict:
    path = workdir / f"{base.id}.aut"
    path.write_text(instances.base_text(base, cli.main, workdir))
    commands = {template[0] for template in base.ops}
    entry = {}
    if base.source[0] == "random" and commands & {"explorable", "k-explorable"}:
        kmax = max(int(t[t.index("--max-k") + 1] if "--max-k" in t else t[t.index("-k") + 1])
                   for t in base.ops)
        code, text = verdict(["explorable", "--max-k", str(kmax), str(path)])
        entry.update(tokens=int(text.split(": ")[1]) if code == 0 else None,
                     searched_up_to=kmax)
    if base.source[0] == "random" and "omega-explorable" in commands:
        code, text = verdict(["omega-explorable", str(path)])
        entry.update(omega_explorable=code == 0)
    if "pcp-reduce" in commands:
        code, text = verdict(["pcp-reduce", str(path), "-o", str(workdir / "x.pcp")])
        entry.update(pcp_pairs=int(text.rsplit(": ", 1)[1]))
    return entry


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    answers = {"_recorded_at": commit}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in instances.WORKLOADS:
            for base in instances.bases(workload):
                entry = record(base, Path(tmp))
                if entry:
                    answers[base.id] = entry
                    print(workload, base.id, entry, flush=True)
    instances.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
