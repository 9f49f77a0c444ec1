"""Outside tracer: per-layer self time and counts without touching `src/`.

Entering a `Tracer` replaces each traced function with a timing wrapper in
every module namespace that bound it by import (and on its class, for
methods); leaving it puts every original back.  A span opens when a wrapped
call starts and closes when it returns or raises; its parent is the span
open below it on the stack.  Closed spans are folded into
per-(item, function) totals at once -- call count, self time and the counts
read from return values -- because the hot leaves (`reach_mask`,
`GraphCache.reach`) make millions of spans per pass and keeping each one
would cost hundreds of megabytes.  Self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

from pursuitwidth import arena, digraph, multiply, parity, strategy

LAYERS = ("digraph", "arena", "strategy", "multiply", "parity")


def _classes(res):
    return res.arena_size


def _cop_won(res):
    return int(res.winner == arena.COPS)


def _states(res):
    return res.states


def _entries(res):
    return len(res.mapping)


def _positions(kg):
    return kg.game.n


# (metric prefix, owner, attribute, {stat name: reader of the return value}).
# The prefix is `<layer>.<function>`; methods keep their class name only
# where the bare method name would be ambiguous.
TRACED = (
    ("digraph.reach_mask", digraph, "reach_mask", {}),
    ("digraph.region_table", digraph, "region_table", {}),
    ("arena.solve_search", arena, "solve_search", {"classes": _classes, "cop_wins": _cop_won}),
    ("arena.solve_invisible", arena, "solve_invisible", {"states": _states}),
    ("arena.width", arena, "width", {}),
    ("arena.GraphCache", arena.GraphCache, "__init__", {}),
    ("arena.GraphCache.reach", arena.GraphCache, "reach", {}),
    ("strategy.as_positional", strategy.SolverCopStrategy, "as_positional",
     {"entries": _entries}),
    ("strategy.cleanup_strategy", strategy, "cleanup_strategy", {}),
    ("strategy.validate_cop_strategy", strategy, "validate_cop_strategy", {"states": _states}),
    ("strategy.validate_robber_strategy", strategy, "validate_robber_strategy",
     {"states": _states}),
    ("strategy.isolating_transform", strategy, "isolating_transform", {}),
    ("strategy.prudent_transform", strategy, "prudent_transform", {}),
    ("multiply.multiply_strategy", multiply, "multiply_strategy", {}),
    ("multiply.check_invariants", multiply, "check_invariants", {}),
    ("multiply.exhaust_prudent_isolating", multiply, "exhaust_prudent_isolating",
     {"states": _states}),
    ("parity.powerset_construct", parity, "powerset_construct", {"positions": _positions}),
    ("parity.zielonka_solve", parity, "zielonka_solve", {}),
    ("parity.solve_imperfect", parity, "solve_imperfect", {}),
    ("parity.check_history_lifting", parity, "check_history_lifting", {}),
    ("parity.solve_by_strategy_enumeration", parity, "solve_by_strategy_enumeration", {}),
)


class Tracer:
    """Installs timing wrappers for TRACED while entered as a context."""

    def __init__(self, extra_modules=()):
        self._stack = []
        self.item = {}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pursuitwidth" or key.startswith("pursuitwidth.")]
        modules += list(extra_modules)
        self._plan = []
        for name, owner, attr, stats in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, stats)
            self._plan.append((owner, attr, original, wrapper))
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._plan.append((mod, key, original, wrapper))

    def begin_item(self):
        """Start a fresh set of totals; wrapped calls add to it."""
        self.item = {}
        return self.item

    def _wrap(self, name, fn, stats):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tot = tracer.item.get(name)
                if tot is None:
                    tot = tracer.item[name] = dict.fromkeys(("calls", "self_s", *stats), 0)
                tot["calls"] += 1
                tot["self_s"] += dur - frame[0]
            for stat, read in stats.items():
                tot[stat] += read(out)
            return out
        return wrapper

    def __enter__(self):
        for owner, attr, _original, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _wrapper in self._plan:
            setattr(owner, attr, original)
        return False


# Every workload calls these, so their self times are measured on every run.
# The other functions' self times are 0 on every run of some workload, so
# they are printed but kept out of the result, where a time that never
# changes would read as a fixed number rather than a measurement.
CALLED_BY_EVERY_WORKLOAD = ("digraph", "arena", "digraph.reach_mask", "digraph.region_table",
                            "arena.solve_search", "arena.width", "arena.GraphCache.reach")


def per_layer_metrics(totals: dict):
    """Flatten summed per-function totals into `<layer>.<function>.<stat>`
    metrics and each layer's summed self time `<layer>.self_s`.

    Returns (result, printed_only): every count goes into the result; a
    self time goes there only for the entries of CALLED_BY_EVERY_WORKLOAD.
    """
    result, printed_only = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)

    def self_time(name, secs):
        where = result if name in CALLED_BY_EVERY_WORKLOAD else printed_only
        where[f"{name}.self_s"] = (secs, "s")

    for name, _owner, _attr, stats in TRACED:
        tot = totals.get(name) or dict.fromkeys(("calls", "self_s", *stats), 0)
        layer_self[name.split(".")[0]] += tot["self_s"]
        if name == "arena.GraphCache":
            result["arena.GraphCache.created"] = (tot["calls"], "count")
            continue
        result[f"{name}.calls"] = (tot["calls"], "count")
        self_time(name, tot["self_s"])
        for stat in stats:
            if stat == "cop_wins":
                ratio = tot["cop_wins"] / tot["calls"] if tot["calls"] else 0.0
                result[f"{name}.cop_win_ratio"] = (ratio, "ratio")
            else:
                result[f"{name}.{stat}"] = (tot[stat], "count")
    for layer, secs in layer_self.items():
        self_time(layer, secs)
    return result, printed_only


def add_totals(into: dict, item: dict) -> None:
    for name, tot in item.items():
        acc = into.setdefault(name, dict.fromkeys(tot, 0))
        for stat, value in tot.items():
            acc[stat] += value
