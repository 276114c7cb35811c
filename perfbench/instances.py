"""Pinned inputs and their expected answers for the four workloads.

Every input is a random isomorphic copy of a pinned base instance: the
workload seed draws a permutation of the states, a permutation of the letters
and the order of the transition lines.  Verdicts are invariant under such a
relabelling, so one reference per base instance covers every seed, and the
instance set costs the same work whatever the seed.

Base instances come from three sources:

* the canonical families, written by ``explora generate`` (ak, bk, c, fig4),
  whose verdicts are facts from the paper;
* an alternating machine copied from the test corpus, reduced by
  ``explora generate atm``;
* automata drawn by the pinned generator below from fixed generator seeds,
  whose verdicts were recorded at the seed commit (``answers.json``).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"

WORKLOADS = ("infinite-explore", "omega-atm", "finite-explore", "hd-token-game")

# The alternating machine `loop-reject` of the test corpus, cut to a one-cell
# tape: (states, existential, accepting, transitions).  Its acceptance on that
# tape was worked out by hand: state 0 is existential and not accepting, and
# it has no move that stays on the tape (R on 0, none on 1), so the machine
# rejects both words.
LOOP_REJECT = (3, (0, 2), 2, [(0, "0", 1, "0", "R"), (1, "0", 0, "0", "L")])
LOOP_REJECT_SPACE = 1
LOOP_REJECT_ACCEPTS = {"0": False, "1": False}


def atm_text() -> str:
    """Machine file of `loop-reject` on its one-cell tape."""
    states, existential, accepting, transitions = LOOP_REJECT
    lines = ["atm", f"states: {states}", "initial: 0",
             "existential: " + " ".join(map(str, existential)),
             f"accepting: {accepting}", f"space: {LOOP_REJECT_SPACE}"]
    lines += [f"t {q} {r} {q2} {w} {d}" for q, r, q2, w, d in transitions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pinned random automata


def random_automaton_text(name: str, gen_seed: int, states: int, letters,
                          condition: str, max_branch: int) -> str:
    """Complete random automaton in explora's text format.

    Each (state, letter) gets 1..max_branch distinct successors; ranks are
    0/1 for safety and coBuchi; finite automata accept in about half of the
    states.  Depends only on `random.Random(gen_seed)`, not on explora.
    """
    rng = Random(gen_seed)
    lines = [f"automaton {name}", "alphabet: " + " ".join(letters),
             f"states: {states}", "initial: 0", f"condition: {condition}"]
    if condition == "finite":
        accepting = [q for q in range(states) if rng.random() < 0.5]
        lines.append("accepting: " + " ".join(map(str, accepting or [states - 1])))
    for q in range(states):
        for letter in letters:
            for d in rng.sample(range(states), rng.randint(1, max_branch)):
                if condition == "finite":
                    lines.append(f"t {q} {letter} {d}")
                else:
                    lines.append(f"t {q} {letter} {d} {rng.randint(0, 1)}")
    return "\n".join(lines) + "\n"


def relabel(text: str, rng: Random) -> str:
    """Isomorphic copy of a single-channel automaton file: states and letters
    permuted, transition lines shuffled."""
    header, transitions = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("t "):
            transitions.append(line.split())
        elif line:
            header.append(line)
    fields = {h.split(":", 1)[0]: h.split(":", 1)[1].split()
              for h in header if ":" in h}
    n = int(fields["states"][0])
    letters = fields["alphabet"]
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = letters[:]
    rng.shuffle(shuffled)
    rename = dict(zip(letters, shuffled))
    out = []
    for h in header:
        key = h.split(":", 1)[0]
        if key == "alphabet":
            order = letters[:]
            rng.shuffle(order)
            out.append("alphabet: " + " ".join(order))
        elif key == "initial":
            out.append(f"initial: {perm[int(fields['initial'][0])]}")
        elif key == "accepting":
            out.append("accepting: " + " ".join(
                str(q) for q in sorted(perm[int(p)] for p in fields["accepting"])))
        else:
            out.append(h)
    rng.shuffle(transitions)
    for t in transitions:
        t[1], t[2], t[3] = str(perm[int(t[1])]), rename[t[2]], str(perm[int(t[3])])
        out.append(" ".join(t))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# base instances per workload


@dataclass(frozen=True)
class Base:
    """A pinned base instance: how to write it and which commands run on it."""

    id: str
    source: tuple  # ("generate", argv...) | ("atm", word) | ("random", ...)
    ops: tuple  # command templates; "{x}" is the instance file


def _random(prefix, gen_seeds, states, letters, condition, max_branch, ops):
    return [Base(f"{prefix}-{s}",
                 ("random", s, states, tuple(letters), condition, max_branch),
                 ops)
            for s in gen_seeds]


def bases(workload: str) -> list[Base]:
    if workload == "infinite-explore":
        kexp = ("k-explorable", "-k", "4", "{x}")
        search = ("explorable", "--max-k", "4", "{x}")
        return (_random("cob3", INFINITE_SEARCH_SEEDS, 3, "ab", "cobuchi", 2, (kexp, search))
                + _random("cob3", INFINITE_SEEDS, 3, "ab", "cobuchi", 2, (kexp,)))
    if workload == "omega-atm":
        omega = (("omega-explorable", "{x}"),)
        out = [Base(f"atm1-loop-reject-{word}", ("atm", word), omega)
               for word in LOOP_REJECT_ACCEPTS]
        out += [Base("fig4-left", ("generate", "fig4", "left"), omega),
                Base("fig4-right", ("generate", "fig4", "right"), omega)]
        return out + _random("safe6", OMEGA_SEEDS, 6, "ab", "safety", 2, omega)
    if workload == "finite-explore":
        def search(k):  # up to the known token count of the families
            return (("explorable", "--max-k", str(k), "--witness", "{w}", "{x}"),)
        out = [Base(f"ak{k}", ("generate", "ak", "-k", str(k)), search(k))
               for k in (4, 5, 6)]
        out += [Base(f"bk{k}", ("generate", "bk", "-k", str(k)), search(2 ** k))
                for k in (2, 3)]
        out.append(Base("c", ("generate", "c"), search(6)))
        pcp = (("pcp-reduce", "{x}", "-o", "{p}"),
               ("population", "-k", "2", "{p}"),
               ("population", "-k", "3", "{p}"))
        out += [Base("pcp-ak3", ("generate", "ak", "-k", "3"), pcp),
                Base("pcp-bk1", ("generate", "bk", "-k", "1"), pcp)]
        return out + _random("nfa8", FINITE_SEEDS, 8, "abc", "finite", 2, search(3))
    if workload == "hd-token-game":
        g2 = ("hd", "--via-g2", "--witness-k", "2", "{x}")
        exact = ("hd", "--exact", "{x}")
        return (_random("det12", (0, 1, 2), 12, "ab", "cobuchi", 1, (g2, exact))
                + _random("det14", (0, 1, 2), 14, "ab", "cobuchi", 1, (g2,)))
    raise ValueError(f"unknown workload {workload!r}")


# Generator seeds of the random base instances, picked once so that each
# workload's verdicts take comparable time and stress the intended layer
# (see README.md).  A pass holds an odd number of verdicts, so that the
# median falls inside the samples of one verdict, not between two.
INFINITE_SEARCH_SEEDS = (25, 38)
INFINITE_SEEDS = (20, 22, 23, 33, 34, 41, 43)
OMEGA_SEEDS = (3, 4, 5, 7, 13, 14, 15)
FINITE_SEEDS = (0, 1, 2)

# Tail percentile of op_ms per workload, placed inside a group of verdicts of
# like cost (omega-atm: the two machine reductions); a run goes on until at
# least ten verdicts lie beyond it.
TAIL_PERCENTILE = {"infinite-explore": 75, "omega-atm": 90,
                   "finite-explore": 95, "hd-token-game": 75}


# ---------------------------------------------------------------------------
# writing the instance set of one seed


@dataclass(frozen=True)
class Op:
    """One CLI verdict with its expected exit code and verdict line."""

    base: str
    argv: tuple
    code: int
    verdict: str


def _generate(main, argv, out: Path) -> str:
    """Text written by ``explora generate ... -o out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["generate", *argv, "-o", str(out)])
    if code != 0:
        raise RuntimeError(f"explora generate {' '.join(argv)} exited with {code}")
    return out.read_text()


def base_text(base: Base, main, workdir: Path) -> str:
    """Text of the base instance (before relabelling)."""
    kind = base.source[0]
    out = workdir / f"{base.id}.base"
    if kind == "random":
        _, gen_seed, states, letters, condition, max_branch = base.source
        return random_automaton_text(base.id, gen_seed, states, letters,
                                     condition, max_branch)
    if kind == "generate":
        return _generate(main, base.source[1:], out)
    _, word = base.source
    path = workdir / f"{base.id}.atm"
    path.write_text(atm_text())
    return _generate(main, ("atm", str(path), word), out)


def write_instances(workload: str, seed: int, workdir: Path, main) -> list[Op]:
    """Write the seed's copy of every base instance into `workdir` and return
    the pass of operations, each with its expected outcome."""
    answers = json.loads(ANSWERS.read_text())
    rng = Random(f"{workload}/{seed}")
    order = bases(workload)
    rng.shuffle(order)
    ops = []
    for base in order:
        path = workdir / f"{base.id}.aut"
        path.write_text(relabel(base_text(base, main, workdir), rng))
        fill = {"x": str(path), "w": str(workdir / "witness.json"),
                "p": str(workdir / f"{base.id}.pcp")}
        for template in base.ops:
            argv = tuple(a.format(**fill) for a in template)
            code, verdict = expected(base, template, answers)
            ops.append(Op(base.id, argv, code, verdict))
    return ops


def expected(base: Base, template: tuple, answers: dict) -> tuple[int, str]:
    """Expected (exit code, verdict line) of one command on a base instance."""
    ref = reference(base, answers)
    cmd = template[0]
    if cmd == "explorable":
        kmax = int(template[template.index("--max-k") + 1])
        need = _tokens_needed(ref, kmax)
        if need is not None and need <= kmax:
            return 0, f"explorable-with: {need}"
        return 2, f"not-explorable-up-to: {kmax}"
    if cmd in ("k-explorable", "population"):
        k = int(template[template.index("-k") + 1])
        need = _tokens_needed(ref, k)
        ok = need is not None and need <= k
        if cmd == "population":  # cross-check: agrees with k-explorable
            return (0 if ok else 1), f"determiniser-wins: {ok}"
        return (0 if ok else 1), f"{k}-explorable: {ok}"
    if cmd == "pcp-reduce":
        return 0, f"states: {ref['pcp_pairs'] + 2}, target: {ref['pcp_pairs']}"
    if cmd == "omega-explorable":
        return ((0, "omega-explorable") if ref["omega_explorable"]
                else (1, "not-omega-explorable"))
    if cmd == "hd":  # --via-g2 must agree with --exact
        return (0 if ref["hd"] else 1), f"history-deterministic: {ref['hd']}"
    raise ValueError(f"no reference for command {cmd!r}")


def _tokens_needed(ref: dict, k: int):
    """Least token count, or None if the reference rules out every count
    up to `k`."""
    need = ref["tokens"]
    if need is None and k > ref["searched_up_to"]:
        raise ValueError(f"reference searched only up to {ref['searched_up_to']} tokens")
    return need


def reference(base: Base, answers: dict) -> dict:
    """Expected facts about a base instance: paper facts for the canonical
    families and the machines, recorded verdicts for the random automata."""
    kind = base.source[0]
    ref = dict(answers.get(base.id, {}))
    if kind == "generate" and base.source[1] in ("ak", "bk"):
        k = int(base.source[3])
        ref.update(tokens=k if base.source[1] == "ak" else 2 ** k,
                   searched_up_to=None)
    elif kind == "generate" and base.source[1] == "c":
        ref.update(tokens=None, searched_up_to=float("inf"))
    elif kind == "generate" and base.source[1] == "fig4":
        ref.update(omega_explorable=base.source[2] == "left")
    elif kind == "atm":
        ref.update(omega_explorable=not LOOP_REJECT_ACCEPTS[base.source[1]])
    elif kind == "random" and base.source[5] == 1:
        ref.update(hd=True)  # deterministic automata are HD
    return ref
