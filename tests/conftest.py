"""Shared corpora for the test suite.

The tiny alternating-machine corpus keeps two constraints the hardness
reduction needs to be faithful (see the machines' comments): at least two
machine transitions, and no length-1 accepting play.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import explora
from explora.automata import Automaton, complete
from explora.generators import ATM, random_automaton

# (name, machine, input word, expected acceptance)
ATM_CORPUS = [
    # two-state loop, accepting state unreachable
    ("loop-reject",
     ATM(3, frozenset({0, 2}),
         frozenset({(0, "0", 1, "0", "R"), (1, "0", 0, "0", "L")}), 0, 2, 2),
     "0", False),
    # universal player picks between accepting and looping
    ("forall-dodges",
     ATM(3, frozenset({0, 2}),
         frozenset({(0, "0", 1, "0", "R"), (1, "0", 2, "0", "L"),
                    (1, "0", 0, "0", "L")}), 0, 2, 2),
     "0", False),
    # universal player forced into the accepting state
    ("forall-forced",
     ATM(3, frozenset({0, 2}),
         frozenset({(0, "0", 1, "0", "R"), (0, "1", 1, "1", "R"),
                    (1, "0", 2, "0", "L")}), 0, 2, 2),
     "0", True),
    # input-dependent: accepts on '1', loops on '0'
    ("input-one",
     ATM(4, frozenset({0, 2}),
         frozenset({(0, "1", 1, "1", "R"), (0, "0", 3, "0", "R"),
                    (1, "0", 2, "0", "L"), (3, "0", 0, "0", "L")}), 0, 2, 2),
     "1", True),
    ("input-zero",
     ATM(4, frozenset({0, 2}),
         frozenset({(0, "1", 1, "1", "R"), (0, "0", 3, "0", "R"),
                    (1, "0", 2, "0", "L"), (3, "0", 0, "0", "L")}), 0, 2, 2),
     "0", False),
    # three-step forced chain into the accepting state
    ("chain-accept",
     ATM(4, frozenset({0, 2}),
         frozenset({(0, "0", 1, "0", "R"), (1, "0", 2, "0", "L"),
                    (2, "0", 3, "0", "R")}), 0, 3, 2),
     "0", True),
    # same chain but the universal player may divert into the loop
    ("chain-diverted",
     ATM(4, frozenset({0, 2}),
         frozenset({(0, "0", 1, "0", "R"), (1, "0", 2, "0", "L"),
                    (1, "0", 0, "0", "L"), (2, "0", 3, "0", "R")}), 0, 3, 2),
     "0", False),
]


def automaton_corpus(seed: int, count: int, num_states: int, alphabet,
                     condition: str, parity=None, max_branch: int = 2):
    rng = Random(seed)
    return [complete(random_automaton(rng, num_states, alphabet, condition,
                                      max_branch=max_branch, parity=parity))
            for _ in range(count)]


def gen_c_rejecting_aaa() -> Automaton:
    """A mutant of `gen_c`: a 5-state DFA over {a, b} that rejects exactly
    the words starting with aaa, so it accepts every word of length <= 2."""
    transitions = [(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 3), (3, "b", 3),
                   (0, "b", 4), (1, "b", 4), (2, "b", 4), (4, "a", 4), (4, "b", 4)]
    return Automaton.build("c-aaa", ["a", "b"], 5, 0, "finite",
                           [(s, l, d, 0) for s, l, d in transitions],
                           accepting={0, 1, 2, 4})


def run_python(script: str, *flags: str, timeout: float = 60,
               **env: str) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter with the given flags and
    extra environment variables, with explora and this directory importable;
    raise `subprocess.TimeoutExpired` if it runs longer than `timeout`
    seconds."""
    paths = [str(Path(explora.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **env)
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_optimized(script: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """`run_python` under `python -O`, which strips asserts."""
    return run_python(script, "-O", timeout=timeout)
