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
from .arena import (ROBBERS, SearchConfig, solve_invisible, solve_search,
                    validate_invisible_schedule, width)
from .digraph import (Digraph, emit_dot, emit_edge_list,
                      is_strongly_connected, parse_edge_list)
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


def _edges_key(g: Digraph):
    return (g.n, tuple(sorted(g.edges)))


def _graph_from_key(key) -> Digraph:
    n, edges = key
    return Digraph(n, edges)


# ---------------------------------------------------------------------------
# Corpora

def small_corpus(nmax: int = 4):
    """Every strongly connected digraph up to isomorphism, n = 1..nmax."""
    out = []
    for n in range(1, nmax + 1):
        for i, g in enumerate(families.enumerate_strongly_connected(n)):
            out.append((f"sc{n}-{i}", g))
    return out


def random_corpus(n: int = 5, count: int = 200, seed: int = DEFAULT_SEED):
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


# ---------------------------------------------------------------------------
# Suites (one per acceptance battery; lemma2 also carries the pipeline
# checks and thm10 also carries the symmetric-closure bound)

def _hierarchy_task(args):
    key, budget = args
    g = _graph_from_key(key)
    chain = [width(g, "dw_r", r=r, budget=budget) for r in range(1, g.n + 1)]
    dpw = width(g, "dpw", budget=budget)
    ok = all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1)) and chain[-1] == dpw
    return ok, chain, dpw


def suite_hierarchy(nmax: int = 4, samples: int = 200, seed: int = DEFAULT_SEED,
                    budget: Optional[int] = None, jobs: int = 1) -> Report:
    rep = Report(command=["verify", "hierarchy"],
                 params={"nmax": nmax, "samples": samples, "seed": seed})
    corpus = small_corpus(nmax) + random_corpus(5, samples, seed)
    _require_instances(len(corpus), "hierarchy", "graph")
    results = _run_tasks(_hierarchy_task,
                         [(_edges_key(g), budget) for (_, g) in corpus], jobs)
    bad = []
    for (name, _g), (ok, chain, dpw) in zip(corpus, results):
        if not ok:
            bad.append({"graph": name, "chain": chain, "dpw": dpw})
    rep.results["instances"] = len(corpus)
    rep.checks.append(Check("chain-monotone-and-top-equals-invisible", not bad,
                            bad or None))
    return rep


def _thm10_task(args):
    key, rs, budget = args
    g = _graph_from_key(key)
    k = width(g, "dw", budget=budget)
    res = solve_search(g, SearchConfig(k=k, r=1), budget=budget)
    f = res.cop_strategy.as_positional(budget=budget)
    out = {"k": k, "bounds": {}, "adversarial": {}}
    for r in rs:
        dwr = width(g, "dw_r", r=r, budget=budget)
        out["bounds"][r] = (dwr, r * k, dwr <= r * k)
        mult = multiply_strategy(g, f, r=r, budget=budget)
        adv = exhaust_prudent_isolating(g, mult, budget=budget)
        out["adversarial"][r] = (adv.ok, adv.max_cops, r * k, adv.max_cops <= r * k,
                                 adv.witness if not adv.ok else None)
    tw1 = width(g, "tw_r", r=1, budget=budget)
    tw2 = width(g, "tw_r", r=2, budget=budget)
    out["tw"] = (tw2, 2 * tw1, tw2 <= 2 * tw1)
    return out


def suite_thm10(nmax: int = 4, samples: int = 200, seed: int = DEFAULT_SEED,
                budget: Optional[int] = None, jobs: int = 1,
                graph: Optional[Digraph] = None, r: int = 2,
                trace_out: Optional[str] = None) -> Report:
    rep = Report(command=["verify", "thm10"],
                 params={"nmax": nmax, "samples": samples, "seed": seed, "r": r})
    if graph is not None:
        if not is_strongly_connected(graph):
            raise PreconditionError("the multiplier needs a strongly connected graph")
        corpus = [("input", graph)]
    else:
        corpus = [(n, g) for (n, g) in small_corpus(nmax)]
        corpus += [(n, g) for (n, g) in random_corpus(5, samples, seed)
                   if is_strongly_connected(g)]
        rep.notes.append("random instances filtered to strongly connected graphs")
    _require_instances(len(corpus), "thm10", "strongly connected graph")
    tasks = []
    for (name, g) in corpus:
        rs = [r] if graph is not None else ([2, 3] if g.n <= nmax else [2])
        tasks.append((_edges_key(g), tuple(rs), budget))
    results = _run_tasks(_thm10_task, tasks, jobs)
    bad_bound, bad_adv, bad_tw = [], [], []
    for (name, _g), out in zip(corpus, results):
        for rr, (dwr, cap, ok) in out["bounds"].items():
            if not ok:
                bad_bound.append({"graph": name, "r": rr, "dw_r": dwr, "cap": cap})
        for rr, (ok, used, cap, within, witness) in out["adversarial"].items():
            if not (ok and within):
                bad_adv.append({"graph": name, "r": rr, "used": used, "cap": cap,
                                "witness": str(witness)})
        tw2, cap, ok = out["tw"]
        if not ok:
            bad_tw.append({"graph": name, "tw_2": tw2, "cap": cap})
    rep.results["instances"] = len(corpus)
    rep.checks.append(Check("multi-robber-width-at-most-r-times-width", not bad_bound,
                            bad_bound or None))
    rep.checks.append(Check("multiplier-beats-exhaustive-prudent-isolating-adversary",
                            not bad_adv, bad_adv or None))
    rep.checks.append(Check("symmetric-closure-bound-tw2-at-most-2tw1", not bad_tw,
                            bad_tw or None))
    if graph is not None and trace_out:
        k = results[0]["k"]
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
    key, budget = args
    g = _graph_from_key(key)
    from .digraph import reach_excluding
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
    return problems


def suite_lemma9(nmax: int = 4, budget: Optional[int] = None, jobs: int = 1) -> Report:
    rep = Report(command=["verify", "lemma9"], params={"nmax": nmax})
    corpus = small_corpus(nmax)
    _require_instances(len(corpus), "lemma9", "graph")
    results = _run_tasks(_lemma9_task, [(_edges_key(g), budget) for (_, g) in corpus], jobs)
    bad = [{"graph": name, "problems": probs}
           for (name, _g), probs in zip(corpus, results) if probs]
    rep.results["instances"] = len(corpus)
    rep.checks.append(Check("cleanup-normal-form-and-winning", not bad, bad or None))
    return rep


def _lemmas58_task(args):
    key, r, budget = args
    g = _graph_from_key(key)
    dwr = width(g, "dw_r", r=r, budget=budget)
    k = dwr - 1
    if k < 1:
        return None
    cfg = SearchConfig(k=k, r=r)
    res = solve_search(g, cfg, budget=budget)
    if res.winner != ROBBERS:
        return [("solver-disagrees-with-width", k)]
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
    return problems


def suite_lemmas58(nmax: int = 4, r: int = 2, budget: Optional[int] = None,
                   jobs: int = 1) -> Report:
    rep = Report(command=["verify", "lemmas58"], params={"nmax": nmax, "r": r})
    corpus = small_corpus(nmax)
    results = _run_tasks(_lemmas58_task,
                         [(_edges_key(g), r, budget) for (_, g) in corpus], jobs)
    bad = []
    used = 0
    for (name, _g), probs in zip(corpus, results):
        if probs is None:
            continue
        used += 1
        if probs:
            bad.append({"graph": name, "problems": probs})
    _require_instances(used, "lemmas58", f"graph with dw_{r} of at least 2")
    rep.results["instances"] = used
    rep.checks.append(Check("transforms-keep-winning-and-step-conditions", not bad,
                            bad or None))
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
    out = {"n": pg.n, "kg": kg.game.n}
    lifted_ok = parity.check_history_lifting(kg, pg, max_len=6)
    out["lifting"] = lifted_ok
    k = width(g, "dw_r", r=2, budget=budget)
    out["dw2"] = k
    cap = 2 * k
    res = solve_search(g, SearchConfig(k=k, r=2), budget=budget)
    kgraph = kg.arena_digraph()
    lifted = parity.lift_cop_strategy(g, res.cop_strategy, kg)
    val = validate_cop_strategy(kgraph, SearchConfig(k=cap, r=1), lifted, budget=budget)
    out["lift_ok"] = val.ok and val.max_announced <= cap
    out["lift_witness"] = None if val.ok else str(val.witness)
    direct = width(kgraph, "dw", budget=budget)
    out["direct"] = (direct, cap, direct <= cap)
    return out


def _solve_verified(pg, eq) -> tuple:
    """(player 0 wins, the extracted win passed product verification)."""
    try:
        return parity.solve_imperfect(pg, eq).player0_wins, True
    except InvariantViolation as e:
        if e.name != "imperfect-witness":
            raise
        return True, False  # only a claimed win is verified


def _thm4_task(args):
    seed, budget = args
    pg, eq = parity.gen_random_parity(seed)
    wins, ident_ok = _solve_verified(pg, parity.ObservationEquiv.identity(pg.n))
    r2 = parity.zielonka_solve(pg)
    agree = wins == (pg.init in r2.win0)
    _, merged_ok = _solve_verified(pg, eq)
    oracle_ok = True
    if pg.n <= 6:
        oracle = parity.solve_by_strategy_enumeration(pg)
        oracle_ok = oracle == (r2.win0, r2.win1)
    size = (parity.powerset_construct(pg, eq).game.n, parity.knowledge_size_bound(pg, eq))
    return agree, ident_ok and merged_ok, oracle_ok, size


def suite_lemma2(count: int = 100, seed: int = DEFAULT_SEED,
                 budget: Optional[int] = None, jobs: int = 1,
                 pipeline_count: int = 200) -> Report:
    rep = Report(command=["verify", "lemma2"],
                 params={"count": count, "seed": seed, "pipeline_count": pipeline_count})
    _require_instances(count, "lemma2", "game for the lift checks")
    _require_instances(pipeline_count, "lemma2", "game for the pipeline checks")
    rng = random.Random(seed)
    seeds = [rng.randrange(10 ** 9) for _ in range(max(count, pipeline_count))]
    lift_results = _run_tasks(_lemma2_task,
                              [(s, budget) for s in seeds[:count]], jobs)
    bad_lift, bad_width, bad_lifting = [], [], []
    for s, out in zip(seeds[:count], lift_results):
        if not out["lifting"]:
            bad_lifting.append(s)
        if not out["lift_ok"]:
            bad_lift.append({"seed": s, "witness": out["lift_witness"]})
        if not out["direct"][2]:
            bad_width.append({"seed": s, "direct": out["direct"]})
    rep.results["lift_instances"] = count
    rep.checks.append(Check("history-lifting-to-length-6", not bad_lifting,
                            bad_lifting or None))
    rep.checks.append(Check("lifted-strategy-wins-with-k-times-2^(r-1)-cops",
                            not bad_lift, bad_lift or None))
    rep.checks.append(Check("knowledge-arena-width-within-bound", not bad_width,
                            bad_width or None))
    pipe_results = _run_tasks(_thm4_task,
                              [(s, budget) for s in seeds[:pipeline_count]], jobs)
    bad_agree, bad_verify, bad_oracle, bad_size, ratios = [], [], [], [], []
    for s, (agree, verified, oracle_ok, (n, bound)) in zip(seeds, pipe_results):
        if not agree:
            bad_agree.append(s)
        if not verified:
            bad_verify.append(s)
        if not oracle_ok:
            bad_oracle.append(s)
        if n > bound:
            bad_size.append({"seed": s, "positions": n, "bound": bound})
        ratios.append(n / bound)
    rep.results["pipeline_instances"] = pipeline_count
    rep.results["knowledge_size_max_ratio"] = max(ratios, default=None)
    rep.checks.append(Check("identity-observations-match-direct-solve",
                            not bad_agree, bad_agree or None))
    rep.checks.append(Check("solver-matches-strategy-enumeration-oracle",
                            not bad_oracle, bad_oracle or None))
    rep.checks.append(Check("player0-wins-pass-product-verification",
                            not bad_verify, bad_verify or None))
    rep.checks.append(Check("knowledge-arena-at-most-n-times-2^(r-1)-positions",
                            not bad_size, bad_size or None))
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


# ---------------------------------------------------------------------------
# Commands

def cmd_width(args) -> Report:
    rep = Report(command=["width", args.graph],
                 params={"measure": args.measure, "r": args.r})
    g, digest = _load_graph(args.graph)
    rep.inputs[args.graph] = digest
    value = width(g, args.measure, r=args.r, budget=args.budget)
    rep.results["value"] = value
    if args.measure == "dpw":
        rep.notes.append("cop-count convention: classical directed path-width plus one")
    if args.measure == "tw":
        rep.notes.append("tree-width convention: one-robber cop count minus one")
    return rep


def cmd_verify(args) -> Report:
    fn = SUITES[args.suite]
    kwargs = {"budget": args.budget, "jobs": args.jobs}
    if args.suite in ("hierarchy", "thm10"):
        kwargs.update(nmax=args.nmax, samples=args.samples, seed=args.seed)
    if args.suite in ("lemma9", "lemmas58"):
        kwargs.update(nmax=args.nmax)
    if args.suite == "lemmas58":
        kwargs.update(r=args.r)
    if args.suite == "thm7":
        kwargs.update(n=args.n)
    if args.suite == "lemma2":
        kwargs.update(count=args.count, seed=args.seed)
    if args.trace_out and not args.graph:
        raise InputError("--trace-out needs --graph: only a single-graph run is traced")
    if args.graph and args.suite != "thm10":
        raise InputError(f"--graph applies to thm10 only, not to {args.suite}")
    digest = None
    if args.suite == "thm10":
        if args.graph:
            g, digest = _load_graph(args.graph)
            kwargs.update(graph=g, r=args.r, trace_out=args.trace_out)
        kwargs.setdefault("r", args.r)
    rep = fn(**kwargs)
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
    v.add_argument("--nmax", type=int, default=4)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--r", type=int, default=2)
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
    out = json.dumps(rep.as_json(), indent=1)
    if getattr(args, "cmd", None) == "verify" or args.func is cmd_verify:
        print(out)
        return EXIT_PASS if rep.passed else EXIT_CHECK_FAILURE
    print(out)
    return EXIT_PASS


if __name__ == "__main__":
    raise SystemExit(main())
