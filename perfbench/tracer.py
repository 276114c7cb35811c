"""Spans around calls into explora's modules, recorded from outside.

The tracer replaces public functions by timing wrappers under the names their
callers look them up by (``explora.cli.is_k_explorable`` is the function the
CLI calls, ``explora.explorability.resolve_monitor`` the one the
explorability module calls), and puts the originals back afterwards.  It never
touches the program's source.

A span is ``(name, start, end, parent, op)``: the wrapped lookup name, start
and end in seconds of process CPU time since the tracer started (the
benchmark's end-to-end times are CPU times too), the index of the enclosing
span (-1 for none) and the operation id.  Spans stay in memory until `write`.
Counts are read from the arguments and results of the wrapped calls; the time
spent reading them is recorded as a ``trace.count`` child span, so it is not
charged to any layer.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# layer of each wrapped call = explora module that defines the function
PROBES = [
    # (module looked up in, attribute, layer, counter)
    ("explora.cli", "main", "cli", None),
    ("explora.cli", "parse_automaton", "textio", None),
    ("explora.cli", "format_automaton", "textio", None),
    ("explora.cli", "is_k_explorable", "explorability", "k_attempt"),
    ("explora.cli", "explorability_bounded", "explorability", None),
    ("explora.cli", "explorability_witness", "explorability", None),
    ("explora.cli", "pcp_reduce", "explorability", None),
    ("explora.cli", "is_k_population_winnable", "explorability", None),
    ("explora.cli", "is_hd_assuming_explorable", "hdgames", None),
    ("explora.cli", "is_hd_exact", "hdgames", None),
    ("explora.cli", "is_omega_explorable", "omega", None),
    ("explora.explorability", "is_k_explorable", "explorability", "k_attempt"),
    ("explora.explorability", "explorability_witness", "explorability", None),
    ("explora.explorability", "resolve_monitor", "determinize", "monitor"),
    ("explora.explorability", "solve", "games", None),
    ("explora.hdgames", "is_k_explorable", "explorability", "k_attempt"),
    ("explora.hdgames", "g2_winner", "hdgames", None),
    ("explora.hdgames", "build_token_game", "hdgames", "token_game"),
    ("explora.hdgames", "solve", "games", None),
    ("explora.omega", "is_omega_explorable_cobuchi", "omega", None),
    ("explora.omega", "build_elimination_game", "omega", "elimination_game"),
    ("explora.omega", "breakpoint_construction", "determinize", "monitor"),
    ("explora.omega", "solve_parity", "games", "solve"),
    ("explora.determinize", "equivalent_on_lassos", "automata", "oracle"),
    ("explora.automata", "member_lasso", "automata", None),
    ("explora.games", "compile_objective", "games", "product"),
    ("explora.games", "zielonka_tree", "games", None),
    ("explora.games", "condition_automaton", "games", None),
    ("explora.games", "solve_parity", "games", "solve"),
    ("explora.games", "verify_strategy", "games", None),
]

# count-only probes: constructors and generators, no span
COUNT_PROBES = [
    ("explora.explorability", "Arena", "arena"),
    ("explora.automata", "iter_lassos", "lassos"),
]


def _reachable_share(arena) -> tuple[int, int]:
    seen = {arena.initial}
    stack = [arena.initial]
    while stack:
        for dst, _ in arena.edges[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return len(seen), arena.num_positions


class Tracer:
    def __init__(self):
        self.t0 = time.process_time()
        self.spans: list[list] = []
        self.layer_of: dict[str, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op = -1  # id of the current operation, set by the caller
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        for module_name, attr, layer, counter in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{module_name}.{attr}"
            self.layer_of[name] = layer
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(name, original, counter))
        for module_name, attr, counter in COUNT_PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._count_wrapper(original, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _span_wrapper(self, name, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.process_time
        count = getattr(self, f"_count_{counter}") if counter else None
        t0 = self.t0

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock() - t0, None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock() - t0
            if count is not None:
                start = clock() - t0
                count(args, kwargs, result)
                spans.append(["trace.count", start, clock() - t0,
                              stack[-1] if stack else -1, self.op])
            return result

        return traced

    def _count_wrapper(self, fn, counter):
        counts = self.counts
        if counter == "arena":
            def arena(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["explorability.arena_positions"] += result.num_positions
                return result
            return arena

        def lassos(*args, **kwargs):
            for w in fn(*args, **kwargs):
                counts["automata.lassos"] += 1
                yield w
        return lassos

    # -- counters (arguments and results of wrapped calls) ------------------

    def _count_k_attempt(self, args, kwargs, result):
        self.counts["explorability.k_attempts"] += 1

    def _count_monitor(self, args, kwargs, result):
        self.counts["determinize.monitor_builds"] += 1
        self.counts["determinize.monitor_states"] += result.automaton.num_states

    def _count_token_game(self, args, kwargs, result):
        arena, _ = result
        reachable, total = _reachable_share(arena)
        self.counts["hdgames.token_positions"] += total
        self.counts["hdgames.token_reachable"] += reachable

    def _count_elimination_game(self, args, kwargs, result):
        self.counts["omega.elim_positions"] += result.num_positions

    def _count_solve(self, args, kwargs, result):
        self.counts["games.solves"] += 1

    def _count_oracle(self, args, kwargs, result):
        bound = args[2] if len(args) > 2 else kwargs["bound"]
        self.counts["automata.oracle_calls"] += 1
        self.counts["automata.oracle_bound"] += bound

    def _count_product(self, args, kwargs, result):
        product, cond = result
        self.counts["games.compiles"] += 1
        self.counts["games.cond_states"] += cond.num_states
        self.counts["games.product_positions"] += product.num_positions
        self.counts["games.product_edges"] += sum(len(e) for e in product.edges)

    # -- results ------------------------------------------------------------

    def durations(self):
        """Per span: (name, duration, self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1], s[2] - s[1] - child[i])
                for i, s in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": round(start, 7),
                                      "end": round(end, 7), "parent": parent,
                                      "op": op}) + "\n")
