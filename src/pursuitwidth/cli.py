"""Command-line front end: width queries, generators, parity tools, and the
theorem-verification suites with machine-readable JSON reports."""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Optional

from . import families, parity
from .arena import (ROBBERS, SearchConfig, _ladder, solve_invisible,
                    solve_search, validate_invisible_schedule, width)
from .digraph import (Digraph, emit_dot, emit_edge_list, induced,
                      is_strongly_connected, parse_edge_list, reach_excluding)
from .errors import (AdversaryContractError, ConfigError, InputError,
                     InvariantViolation, PreconditionError, ResourceError,
                     StrategyHoleError)
from .multiply import exhaust_prudent_isolating, multiply_strategy, traced_run
from .strategy import (cleanup_strategy, isolating_transform, prudent_transform,
                       validate_cop_strategy, validate_robber_strategy)

SCHEMA = "pursuitwidth-report/1"
DEFAULT_SEED = 271828

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_ERROR = 3
EXIT_INTERNAL_ERROR = 4


@dataclass
class Check:
    name: str
    passed: bool
    witness: Optional[object] = None

    def as_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    command: list
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_json(self):
        return {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "params": self.params,
            "results": self.results,
            "checks": [c.as_json() for c in self.checks],
            "notes": self.notes,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_graph(path: str) -> tuple:
    with open(path) as fh:
        text = fh.read()
    return parse_edge_list(text), _digest(text)


# ---------------------------------------------------------------------------
# Corpora

def small_corpus(nmax: int = 4):
    """Every strongly connected digraph up to isomorphism, n = 1..nmax."""
    if nmax < 0:
        raise InputError(f"nmax must be nonnegative, not {nmax}")
    out = []
    for n in range(1, nmax + 1):
        for i, g in enumerate(families.enumerate_strongly_connected(n)):
            out.append((f"sc{n}-{i}", g))
    return out


def random_corpus(n: int = 5, count: int = 200, seed: int = DEFAULT_SEED):
    if count < 0:
        raise InputError(f"the number of random samples must be nonnegative, not {count}")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = rng.choice([0.2, 0.3, 0.4, 0.5])
        out.append((f"rnd{n}-{i}", families.random_digraph(n, p, rng.randrange(10 ** 9))))
    return out


def _require_instances(count: int, suite: str, what: str):
    """A suite over no instance would pass every check without testing one."""
    if count < 1:
        raise InputError(f"verify {suite}: no {what} to check, so every check "
                         f"would pass vacuously")


def _run_tasks(fn, tasks, jobs: int):
    if jobs and jobs > 1:
        with Pool(processes=jobs) as pool:
            return pool.map(fn, tasks)
    return [fn(t) for t in tasks]


def _tally(rep: Report, names, key: str, ids, records):
    """Append one check per name of `names`, in that order.  `records[i]`
    lists the (check name, detail) pairs instance `ids[i]` failed; a check's
    witness lists its failing instances, each as its id (detail None) or as
    `{key: id, **detail}`."""
    bad = {name: [] for name in names}
    for i, failures in zip(ids, records):
        for name, detail in failures:
            bad[name].append(i if detail is None else {key: i, **detail})
    rep.checks += [Check(name, not b, b or None) for name, b in bad.items()]


# ---------------------------------------------------------------------------
# Suites (one per acceptance battery; lemma2 also carries the pipeline
# checks and thm10 also carries the symmetric-closure bound).  A task checks
# one instance and returns the checks it failed as (name, detail) pairs.

def _plain_width(g: Digraph, measure: str, r: int = 1, budget: Optional[int] = None) -> int:
    """`width` by the plain ladder on the whole graph: the checks of the
    subgraph ladder must not rest on what they check."""
    return _ladder(g, measure, r, budget, plain=True)[0]


def _hierarchy_task(args):
    g, budget, deletions = args
    chain = [width(g, "dw_r", r=r, budget=budget) for r in range(1, g.n + 1)]
    dpw = width(g, "dpw", budget=budget)
    failures = []
    if not (all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1))
            and chain[-1] == dpw):
        failures.append(("chain-monotone-and-top-equals-invisible",
                         {"chain": chain, "dpw": dpw}))
    if not deletions or g.n == 1:  # deleting the one vertex leaves no graph
        return failures
    for v in range(g.n):
        h = induced(g, [u for u in range(g.n) if u != v])
        sub = [_plain_width(h, "dw_r", r=r, budget=budget) for r in range(1, h.n + 1)]
        sub_dpw = _plain_width(h, "dpw", budget=budget)
        if any(a > b for a, b in zip(sub, chain)) or sub_dpw > dpw:
            failures.append(("width-monotone-under-induced-subgraphs",
                             {"deleted": v, "chain": sub, "dpw": sub_dpw}))
    return failures


def ladder_corpus():
    """The fixed (name, graph, measure, r) instances on which `verify
    hierarchy` compares the subgraph ladder with the plain one.  All but the
    first have more than LADDER_START vertices, so their ladders climb at
    least two rungs."""
    two_tree1, _ = families.two_tree_graph(1)
    two_tree2, _ = families.two_tree_graph(2)
    t2, _ = families.tree_T(2)
    rnd10 = families.random_digraph(10, 0.3, DEFAULT_SEED + 10)
    rnd12 = families.random_digraph(12, 0.3, DEFAULT_SEED + 12)
    return [("two-tree(1)", two_tree1, "dw", 1), ("two-tree(2)", two_tree2, "dw", 1),
            ("T_2", t2, "dw", 1), ("T_2", t2, "dw_r", 2),
            ("G_2^1", families.gen_grk(2, 1), "tw_r", 2),
            ("rnd10", rnd10, "dw_r", 2), ("rnd12", rnd12, "dw", 1)]


def _ladder_task(args):
    """(whether the subgraph ladder climbed two rungs or more, failures)."""
    g, measure, r, budget = args
    value, rungs = _ladder(g, measure, r, budget)
    plain = _plain_width(g, measure, r, budget)
    climbed = len({len(vs) for vs, _, _, _ in rungs}) > 1
    return climbed, ([] if value == plain else [
        ("subgraph-ladder-equals-plain-ladder",
         {"measure": measure, "r": r, "subgraph_ladder": value, "plain_ladder": plain})])


def suite_hierarchy(nmax: int = 4, samples: int = 200, seed: int = DEFAULT_SEED,
                    budget: Optional[int] = None, jobs: int = 1) -> Report:
    rep = Report(command=["verify", "hierarchy"],
                 params={"nmax": nmax, "samples": samples, "seed": seed})
    small = small_corpus(nmax)
    corpus = small + random_corpus(5, samples, seed)
    _require_instances(len(corpus), "hierarchy", "graph")
    results = _run_tasks(_hierarchy_task, [(g, budget, i < len(small))
                                           for i, (_, g) in enumerate(corpus)], jobs)
    rep.results["instances"] = len(corpus)
    _tally(rep, ("chain-monotone-and-top-equals-invisible",
                 "width-monotone-under-induced-subgraphs"), "graph",
           [name for name, _ in corpus], results)
    ladders = ladder_corpus()
    climbs = _run_tasks(_ladder_task, [(g, m, r, budget) for _, g, m, r in ladders], jobs)
    _tally(rep, ("subgraph-ladder-equals-plain-ladder",), "graph",
           [name for name, _, _, _ in ladders], [failures for _, failures in climbs])
    if not any(climbed for climbed, _ in climbs):
        rep.checks[-1] = Check("subgraph-ladder-equals-plain-ladder", False,
                               "no instance climbed two rungs, so the check is vacuous")
    return rep


def _thm10_task(args):
    """(dw, robbers the adversary held per r, failures)."""
    g, rs, budget = args
    k = width(g, "dw", budget=budget)
    res = solve_search(g, SearchConfig(k=k, r=1), budget=budget)
    f = res.cop_strategy.as_positional(budget=budget)
    held, failures = {}, []
    for r in rs:
        dwr = width(g, "dw_r", r=r, budget=budget)
        if dwr > r * k:
            failures.append(("multi-robber-width-at-most-r-times-width",
                             {"r": r, "dw_r": dwr, "cap": r * k}))
        mult = multiply_strategy(g, f, r=r, budget=budget)
        adv = exhaust_prudent_isolating(g, mult, budget=budget)
        held[r] = adv.max_robbers
        if not (adv.ok and adv.max_cops <= r * k):
            failures.append(("multiplier-beats-exhaustive-prudent-isolating-adversary",
                             {"r": r, "used": adv.max_cops, "cap": r * k,
                              "witness": str(None if adv.ok else adv.witness)}))
    tw1 = width(g, "tw_r", r=1, budget=budget)
    tw2 = width(g, "tw_r", r=2, budget=budget)
    if tw2 > 2 * tw1:
        failures.append(("symmetric-closure-bound-tw2-at-most-2tw1",
                         {"tw_2": tw2, "cap": 2 * tw1}))
    return k, held, failures


def suite_thm10(nmax: int = 4, samples: int = 200, seed: int = DEFAULT_SEED,
                budget: Optional[int] = None, jobs: int = 1,
                graph: Optional[Digraph] = None, r: int = 2,
                trace_out: Optional[str] = None) -> Report:
    rep = Report(command=["verify", "thm10"])
    if graph is not None:
        if not is_strongly_connected(graph):
            raise PreconditionError("the multiplier needs a strongly connected graph")
        corpus = [("input", graph)]
    else:
        rep.params.update(nmax=nmax, samples=samples, seed=seed)
        corpus = [(n, g) for (n, g) in small_corpus(nmax)]
        corpus += [(n, g) for (n, g) in random_corpus(5, samples, seed)
                   if is_strongly_connected(g)]
        rep.notes.append("random instances filtered to strongly connected graphs")
    _require_instances(len(corpus), "thm10", "strongly connected graph")
    tasks = []
    for (name, g) in corpus:
        rs = [r] if graph is not None else ([2, 3] if g.n <= nmax else [2])
        tasks.append((g, tuple(rs), budget))
    rep.params["r"] = sorted({rr for _, rs, _ in tasks for rr in rs})  # the r values checked
    results = _run_tasks(_thm10_task, tasks, jobs)
    rep.results["instances"] = len(corpus)
    rep.results["max_robbers"] = {rr: max(held.get(rr, 0) for _, held, _ in results)
                                  for rr in rep.params["r"]}
    _tally(rep, ("multi-robber-width-at-most-r-times-width",
                 "multiplier-beats-exhaustive-prudent-isolating-adversary",
                 "symmetric-closure-bound-tw2-at-most-2tw1"), "graph",
           [name for name, _ in corpus], [failures for _, _, failures in results])
    if graph is not None and trace_out:
        k = results[0][0]
        res = solve_search(graph, SearchConfig(k=k, r=1), budget=budget)
        mult = multiply_strategy(graph, res.cop_strategy.as_positional(budget=budget),
                                 r=r, budget=budget)
        records = traced_run(graph, mult)
        with open(trace_out, "w") as fh:
            json.dump(records, fh, indent=1)
        rep.results["trace"] = trace_out
        rep.checks.append(Check("trace-invariants", all(
            rec["invariant_report"] is None or rec["invariant_report"]["passed"]
            for rec in records)))
    return rep


def _lemma9_task(args):
    g, budget = args
    k = width(g, "dw", budget=budget)
    res = solve_search(g, SearchConfig(k=k, r=1), budget=budget)
    f = res.cop_strategy.as_positional(budget=budget)
    ft = cleanup_strategy(g, f, budget=budget)
    problems = []
    for (U, R), up in ft.items():
        (v,) = R
        new = up - U
        if not new:
            problems.append(("idle", sorted(U), v))
        elif not new <= reach_excluding(g, U, {v}):
            problems.append(("unreachable-placement", sorted(U), v, sorted(new)))
    win = validate_cop_strategy(g, SearchConfig(k=k, r=1), ft, budget=budget)
    if not win.ok:
        problems.append(("not-winning", str(win.witness)))
    return [("cleanup-normal-form-and-winning", {"problems": problems})] if problems else []


def suite_lemma9(nmax: int = 4, budget: Optional[int] = None, jobs: int = 1) -> Report:
    rep = Report(command=["verify", "lemma9"], params={"nmax": nmax})
    corpus = small_corpus(nmax)
    _require_instances(len(corpus), "lemma9", "graph")
    results = _run_tasks(_lemma9_task, [(g, budget) for (_, g) in corpus], jobs)
    rep.results["instances"] = len(corpus)
    _tally(rep, ("cleanup-normal-form-and-winning",), "graph",
           [name for name, _ in corpus], results)
    return rep


def _lemmas58_task(args):
    """The failures, or None for a graph with dw_r below 2 (no robber strategy
    to transform)."""
    g, r, budget = args
    dwr = width(g, "dw_r", r=r, budget=budget)
    k = dwr - 1
    if k < 1:
        return None
    cfg = SearchConfig(k=k, r=r)
    res = solve_search(g, cfg, budget=budget)
    if res.winner != ROBBERS:
        problems = [("solver-disagrees-with-width", k)]
    else:
        problems = []
        iso = isolating_transform(g, cfg, res.robber_strategy, budget=budget)
        rep1 = validate_robber_strategy(g, cfg, iso, budget=budget, require_isolating=True)
        if not rep1.ok:
            problems.append(("isolating", str(rep1.witness)))
        pru = prudent_transform(g, cfg, res.robber_strategy, budget=budget)
        rep2 = validate_robber_strategy(g, cfg, pru, budget=budget,
                                        require_isolating=True, require_prudent=True)
        if not rep2.ok:
            problems.append(("prudent", str(rep2.witness)))
    return ([("transforms-keep-winning-and-step-conditions", {"problems": problems})]
            if problems else [])


def suite_lemmas58(nmax: int = 4, r: int = 2, budget: Optional[int] = None,
                   jobs: int = 1) -> Report:
    rep = Report(command=["verify", "lemmas58"], params={"nmax": nmax, "r": r})
    corpus = small_corpus(nmax)
    results = _run_tasks(_lemmas58_task, [(g, r, budget) for (_, g) in corpus], jobs)
    checked = [(name, out) for (name, _), out in zip(corpus, results) if out is not None]
    _require_instances(len(checked), "lemmas58", f"graph with dw_{r} of at least 2")
    rep.results["instances"] = len(checked)
    _tally(rep, ("transforms-keep-winning-and-step-conditions",), "graph",
           [name for name, _ in checked], [out for _, out in checked])
    return rep


def suite_thm7(n: int = 2, budget: Optional[int] = None, jobs: int = 1) -> Report:
    rep = Report(command=["verify", "thm7"], params={"n": n})
    g, _ = families.two_tree_graph(n)
    rep.results["vertices"] = g.n
    cops = families.cops_topdown_thm7(n)
    cop_rep = validate_cop_strategy(g, SearchConfig(k=4, r=1), cops, budget=budget)
    rep.checks.append(Check("four-cop-sweep-wins-monotonously",
                            cop_rep.ok and cop_rep.max_announced <= 4,
                            None if cop_rep.ok else str(cop_rep.witness)))
    cfg = SearchConfig(k=n, r=1, restrict_to_scc=True)
    res = solve_search(g, cfg, budget=budget)
    rep.results["restricted_arena_classes"] = res.arena_size
    rep.checks.append(Check("restricted-game-lost-by-n-cops-exhaustively",
                            res.winner == ROBBERS))
    rob = families.robber_thm7(n)
    rob_rep = validate_robber_strategy(g, cfg, rob, budget=budget)
    rep.checks.append(Check("escape-robber-survives-with-invariants",
                            rob_rep.ok, None if rob_rep.ok else str(rob_rep.witness)))
    return rep


def suite_thm25(budget: Optional[int] = None, jobs: int = 1) -> Report:
    rep = Report(command=["verify", "thm25"], params={})
    t1, _ = families.tree_T(1)
    t2, _ = families.tree_T(2)
    g12 = families.gen_grk(1, 2)
    vals = {
        "dpw(T1)": (width(t1, "dpw", budget=budget), 2),
        "dpw(T2)": (width(t2, "dpw", budget=budget), 3),
        "dw1(T1)": (width(t1, "dw", budget=budget), 2),
        "dw1(T2)": (width(t2, "dw", budget=budget), 2),
        "dw1(G_1^2)": (width(g12, "dw", budget=budget), 4),
        "dpw(G_1^2)": (width(g12, "dpw", budget=budget), 4),
    }
    rep.results["values"] = {k: v[0] for k, v in vals.items()}
    bad = {k: v for k, v in vals.items() if v[0] != v[1]}
    rep.checks.append(Check("exact-widths-of-the-product-family", not bad, bad or None))
    rep.checks.append(Check("hierarchy-gap-witness",
                            vals["dw1(T2)"][0] < vals["dpw(T2)"][0]))
    lower = [(r, solve_invisible(t, r, budget=budget).cops_win)
             for r, t in ((1, t1), (2, t2))]
    rep.checks.append(Check("invisible-game-needs-more-than-r-cops",
                            not any(w for (_r, w) in lower)))
    sched_bad = []
    for (r, k) in ((1, 1), (2, 1), (1, 2)):
        grk = families.gen_grk(r, k)
        sched = families.cops_dpw_tree(r, k)
        cap = k * (r + 1)
        peak = max(len(s) for s in sched)
        ok, detail = validate_invisible_schedule(grk, cap, sched)
        if not ok or peak != cap:
            sched_bad.append({"r": r, "k": k, "peak": peak, "cap": cap, "detail": detail})
    rep.checks.append(Check("clearing-schedules-use-exactly-k(r+1)-cops",
                            not sched_bad, sched_bad or None))
    # the one lower-bound instance that is both nontrivial and tractable:
    # three cops lose on G_1^2, shown by a robber strategy that survives
    # every cop line
    cfg3 = SearchConfig(k=3)
    res3 = solve_search(g12, cfg3, budget=budget)
    witness = {"winner": res3.winner}
    if res3.winner == ROBBERS:
        val = validate_robber_strategy(g12, cfg3, res3.robber_strategy, budget=budget)
        witness = None if val.ok else {"winner": res3.winner, "witness": str(val.witness)}
    rep.checks.append(Check("robber-team-lower-bound-smallest-instance", witness is None,
                            witness))
    return rep


def _lemma2_task(args):
    seed, budget = args
    pg, eq = parity.gen_random_parity(seed)
    g = pg.arena_digraph()
    kg = parity.powerset_construct(pg, eq)
    failures = []
    if not parity.check_history_lifting(kg, pg, max_len=6):
        failures.append(("history-lifting-to-length-6", None))
    k = width(g, "dw_r", r=2, budget=budget)
    cap = 2 * k
    res = solve_search(g, SearchConfig(k=k, r=2), budget=budget)
    kgraph = kg.arena_digraph()
    lifted = parity.lift_cop_strategy(g, res.cop_strategy, kg)
    val = validate_cop_strategy(kgraph, SearchConfig(k=cap, r=1), lifted, budget=budget)
    if not (val.ok and val.max_announced <= cap):
        failures.append(("lifted-strategy-wins-with-k-times-2^(r-1)-cops",
                         {"witness": None if val.ok else str(val.witness)}))
    direct = width(kgraph, "dw", budget=budget)
    if direct > cap:
        failures.append(("knowledge-arena-width-within-bound",
                         {"direct": (direct, cap, False)}))
    return failures


def _solve_verified(pg, eq) -> tuple:
    """(player 0 wins, the extracted win passed product verification)."""
    try:
        return parity.solve_imperfect(pg, eq).player0_wins, True
    except InvariantViolation as e:
        if e.name != "imperfect-witness":
            raise
        return True, False  # only a claimed win is verified


def _thm4_task(args):
    """(knowledge arena size / its bound, failures)."""
    seed, budget = args
    pg, eq = parity.gen_random_parity(seed)
    failures = []
    wins, ident_ok = _solve_verified(pg, parity.ObservationEquiv.identity(pg.n))
    r2 = parity.zielonka_solve(pg)
    if wins != (pg.init in r2.win0):
        failures.append(("identity-observations-match-direct-solve", None))
    _, merged_ok = _solve_verified(pg, eq)
    if not (ident_ok and merged_ok):
        failures.append(("player0-wins-pass-product-verification", None))
    if pg.n <= 6 and parity.solve_by_strategy_enumeration(pg) != (r2.win0, r2.win1):
        failures.append(("solver-matches-strategy-enumeration-oracle", None))
    n, bound = parity.powerset_construct(pg, eq).game.n, parity.knowledge_size_bound(pg, eq)
    if n > bound:
        failures.append(("knowledge-arena-at-most-n-times-2^(r-1)-positions",
                         {"positions": n, "bound": bound}))
    return n / bound, failures


def suite_lemma2(count: int = 100, seed: int = DEFAULT_SEED,
                 budget: Optional[int] = None, jobs: int = 1,
                 pipeline_count: int = 200) -> Report:
    rep = Report(command=["verify", "lemma2"],
                 params={"count": count, "seed": seed, "pipeline_count": pipeline_count})
    _require_instances(count, "lemma2", "game for the lift checks")
    _require_instances(pipeline_count, "lemma2", "game for the pipeline checks")
    rng = random.Random(seed)
    seeds = [rng.randrange(10 ** 9) for _ in range(max(count, pipeline_count))]
    lift_results = _run_tasks(_lemma2_task, [(s, budget) for s in seeds[:count]], jobs)
    rep.results["lift_instances"] = count
    _tally(rep, ("history-lifting-to-length-6",
                 "lifted-strategy-wins-with-k-times-2^(r-1)-cops",
                 "knowledge-arena-width-within-bound"), "seed", seeds, lift_results)
    pipe_results = _run_tasks(_thm4_task,
                              [(s, budget) for s in seeds[:pipeline_count]], jobs)
    rep.results["pipeline_instances"] = pipeline_count
    rep.results["knowledge_size_max_ratio"] = max(ratio for ratio, _ in pipe_results)
    _tally(rep, ("identity-observations-match-direct-solve",
                 "solver-matches-strategy-enumeration-oracle",
                 "player0-wins-pass-product-verification",
                 "knowledge-arena-at-most-n-times-2^(r-1)-positions"), "seed", seeds,
           [failures for _, failures in pipe_results])
    return rep


SUITES = {
    "hierarchy": suite_hierarchy,
    "thm10": suite_thm10,
    "lemma9": suite_lemma9,
    "lemmas58": suite_lemmas58,
    "thm7": suite_thm7,
    "thm25": suite_thm25,
    "lemma2": suite_lemma2,
}

# the `verify` options each suite reads; giving it any other one is an input
# error.  With --graph, thm10 checks that one graph at the given r, so it
# reads --r alone.
VERIFY_NUMBERS = ("nmax", "samples", "count", "seed", "n", "r")
SUITE_OPTIONS = {
    "hierarchy": ("nmax", "samples", "seed"),
    "thm10": ("nmax", "samples", "seed"),
    "lemma9": ("nmax",),
    "lemmas58": ("nmax", "r"),
    "thm7": ("n",),
    "thm25": (),
    "lemma2": ("count", "seed"),
}


# ---------------------------------------------------------------------------
# Commands

def cmd_width(args) -> Report:
    rep = Report(command=["width", args.graph],
                 params={"measure": args.measure, "r": args.r})
    g, digest = _load_graph(args.graph)
    rep.inputs[args.graph] = digest
    value, rungs = _ladder(g, args.measure, r=args.r, budget=args.budget)
    rep.results["value"] = value
    rep.results["rungs"] = [{"vertices": len(vs), "k": k, "winner": winner, "classes": classes}
                            for vs, k, winner, classes in rungs]
    lost = [(vs, k) for vs, k, winner, _ in rungs if winner == ROBBERS]
    rep.results["lower_bound"] = (None if not lost else
                                  {"k": lost[-1][1], "vertices": sorted(lost[-1][0])})
    rep.notes.append("each rung is one solve with k cops on the subgraph induced by the "
                     "first `vertices` vertices of the ladder's order (the whole graph "
                     "last); `classes` counts "
                     + ("the contaminated sets it expanded" if args.measure == "dpw"
                        else "the classes it decided"))
    rep.notes.append("lower_bound: k cops lose on the subgraph induced by `vertices` "
                     "(input numbering), so the graph needs more than k cops")
    if args.measure == "dpw":
        rep.notes.append("cop-count convention: classical directed path-width plus one")
    if args.measure == "tw":
        rep.notes.append("tree-width convention: one-robber cop count minus one")
    return rep


def cmd_verify(args) -> Report:
    if args.trace_out and not args.graph:
        raise InputError("--trace-out needs --graph: only a single-graph run is traced")
    if args.graph and args.suite != "thm10":
        raise InputError(f"--graph applies to thm10 only, not to {args.suite}")
    reads = ("r",) if args.graph else SUITE_OPTIONS[args.suite]
    given = {opt: getattr(args, opt) for opt in VERIFY_NUMBERS if getattr(args, opt) is not None}
    ignored = [f"--{opt}" for opt in given if opt not in reads]
    if ignored:
        run = f"verify {args.suite}" + (" --graph" if args.graph else "")
        raise InputError(f"{run} does not read {', '.join(ignored)}")
    kwargs = dict(given, budget=args.budget, jobs=args.jobs)
    digest = None
    if args.graph:
        g, digest = _load_graph(args.graph)
        kwargs.update(graph=g, trace_out=args.trace_out)
    rep = SUITES[args.suite](**kwargs)
    if digest is not None:
        rep.inputs[args.graph] = digest
    return rep


def cmd_generate(args) -> Report:
    rep = Report(command=["generate", args.family], params=vars(args).copy())
    rep.params.pop("func", None)
    if args.family == "thm7":
        g, _ = families.two_tree_graph(args.n)
    elif args.family == "grk":
        g = families.gen_grk(args.r, args.k)
    elif args.family == "tree":
        g, _ = families.tree_T(args.r)
    elif args.family == "cycle":
        g = families.cycle_digraph(args.n)
    elif args.family == "random":
        g = families.random_digraph(args.n, args.p, args.seed)
    else:
        raise InputError(f"unknown family {args.family!r}")
    text = emit_edge_list(g)
    if g.labels:
        text += "".join(f"# label {v} {g.label(v)}\n" for v in range(g.n))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        rep.results["path"] = args.out
    else:
        rep.results["edge_list"] = text
    rep.results["vertices"] = g.n
    rep.results["edges"] = len(g.edges)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(emit_dot(g))
    return rep


def cmd_parity(args) -> Report:
    rep = Report(command=["parity", args.game, args.action], params={})
    with open(args.game) as fh:
        text = fh.read()
    rep.inputs[args.game] = _digest(text)
    pg = parity.parse_parity_game(text)
    if args.obs:
        with open(args.obs) as fh:
            otext = fh.read()
        rep.inputs[args.obs] = _digest(otext)
        eq = parity.parse_observation(otext, pg.n)
    else:
        eq = parity.ObservationEquiv.identity(pg.n)
    bad = parity.validate(pg, eq)
    if bad:
        raise PreconditionError("; ".join(bad))
    if args.action == "solve":
        res = parity.zielonka_solve(pg)
        rep.results["win0"] = sorted(res.win0)
        rep.results["win1"] = sorted(res.win1)
        rep.results["player0_wins_from_init"] = pg.init in res.win0
        rep.results["strategy0"] = {str(v): a for v, a in sorted(res.strategy0.items())}
    elif args.action == "powerset":
        kg = parity.powerset_construct(pg, eq)
        out_text = parity.emit_parity_game(kg.game)
        rep.results["knowledge_positions"] = kg.game.n
        rep.results["sets"] = [sorted(s) for s in kg.sets]
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out_text)
            rep.results["path"] = args.out
        else:
            rep.results["game"] = out_text
    elif args.action == "solve-imperfect":
        res = parity.solve_imperfect(pg, eq)
        rep.results["player0_wins"] = res.player0_wins
        if res.knowledge_strategy is not None:
            rep.results["knowledge_strategy"] = {
                ",".join(str(v) for v in sorted(K)): a
                for K, a in sorted(res.knowledge_strategy.items(), key=lambda kv: sorted(kv[0]))}
    else:
        raise InputError(f"unknown action {args.action!r}")
    return rep


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pursuitwidth",
                                 description="game-based digraph width measures")
    sub = ap.add_subparsers(dest="cmd", required=True)

    w = sub.add_parser("width", help="compute a width measure of an edge-list graph")
    w.add_argument("graph")
    w.add_argument("--measure", default="dw", choices=["dw", "dw_r", "tw", "tw_r", "dpw"])
    w.add_argument("--r", type=int, default=1)
    w.add_argument("--budget", type=int, default=None)
    w.set_defaults(func=cmd_width)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    # None tells a given option from a default: a suite applies its own
    for opt in VERIFY_NUMBERS:
        v.add_argument(f"--{opt}", type=int, default=None)
    v.add_argument("--graph", default=None)
    v.add_argument("--trace-out", default=None)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--budget", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    gen = sub.add_parser("generate", help="emit a benchmark family as an edge list")
    gen.add_argument("family", choices=["thm7", "grk", "tree", "cycle", "random"])
    gen.add_argument("--n", type=int, default=2)
    gen.add_argument("--r", type=int, default=1)
    gen.add_argument("--k", type=int, default=1)
    gen.add_argument("--p", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("-o", "--out", default=None)
    gen.add_argument("--dot", default=None)
    gen.set_defaults(func=cmd_generate)

    pp = sub.add_parser("parity", help="solve or transform a parity game file")
    pp.add_argument("game")
    pp.add_argument("obs", nargs="?", default=None)
    pp.add_argument("--action", default="solve",
                    choices=["solve", "powerset", "solve-imperfect"])
    pp.add_argument("-o", "--out", default=None)
    pp.set_defaults(func=cmd_parity)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        rep = args.func(args)
    except (InputError, ConfigError, PreconditionError, FileNotFoundError) as e:
        print(json.dumps({"schema": SCHEMA, "error": str(e), "kind": "input"}))
        return EXIT_INPUT_ERROR
    except ResourceError as e:
        print(json.dumps({"schema": SCHEMA, "error": str(e), "kind": "resource",
                          "budget": e.budget, "context": e.context}))
        return EXIT_RESOURCE_ERROR
    except (InvariantViolation, AdversaryContractError, StrategyHoleError,
            RecursionError, MemoryError) as e:
        print(json.dumps({"schema": SCHEMA, "error": f"{type(e).__name__}: {e}",
                          "kind": "internal"}))
        return EXIT_INTERNAL_ERROR
    rep.elapsed_s = time.time() - t0
    print(json.dumps(rep.as_json(), indent=1))
    return EXIT_PASS if rep.passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
