"""The benchmark's three workloads, built from public library calls only.

Each workload is a list of items.  An item is ``(item_id, run)`` where
``run()`` performs the item's library calls and returns a list of problems;
an empty list means every verdict the corresponding acceptance suite checks
held.

Inputs are a pure function of the seed.  suite-corpus takes the instances
the acceptance suites draw at their DEFAULT_SEED and applies a seeded random
relabelling of the vertices (positions, for games); the default seed applies
the identity, so it replays the suites' own instances.  A relabelling
changes every subset enumeration order, certificate choice and explored
line, but not the instance's structure, so its verdicts are the same and
its cost varies far less between seeds than a fresh random corpus would: a
fresh draw of 100 games is dominated by the one or two largest knowledge
arenas it happens to contain, and moved the pass time by up to 35% between
seeds.  The other two workloads do not depend on the seed.
"""
from __future__ import annotations

import random

from pursuitwidth import families, parity
from pursuitwidth.arena import COPS, ROBBERS, SearchConfig, solve_search, width
from pursuitwidth.cli import random_corpus, small_corpus
from pursuitwidth.digraph import Digraph, is_strongly_connected, reach_excluding
from pursuitwidth.multiply import exhaust_prudent_isolating, multiply_strategy
from pursuitwidth.parity import ObservationEquiv, ParityGame
from pursuitwidth.strategy import (cleanup_strategy, isolating_transform,
                                   prudent_transform, validate_cop_strategy,
                                   validate_robber_strategy)

# The suites' DEFAULT_SEED, and a second seed kept out of tuning so that a
# later claim can be re-checked on inputs nobody optimised for.
DEFAULT_SEED = 271828
HELD_OUT_SEED = 314159

# Acceptance-suite sizes (README criteria 1-4, 7-9).
CORPUS_NMAX = 4
RANDOM_GRAPHS = 200
RANDOM_GRAPH_N = 5
GAMES = 100
LIFT_HISTORY_LEN = 6
ORACLE_MAX_POSITIONS = 6

MULTIPLIER_GRAPHS = 16
MULTIPLIER_RS = (2, 3)


# ---------------------------------------------------------------------------
# Seeded relabelling

def _permutation(n: int, rng: random.Random, shuffle: bool) -> list:
    perm = list(range(n))
    if shuffle:
        rng.shuffle(perm)
    return perm


def relabel_graph(g: Digraph, rng: random.Random, shuffle: bool) -> Digraph:
    perm = _permutation(g.n, rng, shuffle)
    return Digraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def relabel_game(pg: ParityGame, eq: ObservationEquiv, rng: random.Random, shuffle: bool):
    perm = _permutation(pg.n, rng, shuffle)
    inv = sorted(range(pg.n), key=perm.__getitem__)
    game = ParityGame(
        pg.n,
        tuple(pg.owner[inv[v]] for v in range(pg.n)),
        tuple(pg.color[inv[v]] for v in range(pg.n)),
        pg.actions,
        tuple(tuple(frozenset(perm[w] for w in row[inv[v]]) for v in range(pg.n))
              for row in pg.succ),
        perm[pg.init])
    return game, ObservationEquiv(pg.n, [{perm[v] for v in c} for c in eq.classes])


# ---------------------------------------------------------------------------
# width-named: one `width` query per named graph, with its known value

def bidirected_path(n: int) -> Digraph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    return Digraph(n, edges)


def _width_item(g: Digraph, measure: str, r: int, expected: int):
    def run():
        got = width(g, measure, r=r)
        return [] if got == expected else [(measure, r, "got", got, "want", expected)]
    return run


def width_named(seed: int):
    """The named graphs do not depend on the seed; the seed is accepted for
    a uniform interface."""
    rand14 = families.random_digraph(14, 0.3, 1)
    rand12 = families.random_digraph(12, 0.3, 2)
    two_tree, _ = families.two_tree_graph(2)
    return [
        ("two_tree(2).dw", _width_item(two_tree, "dw", 1, 3)),
        ("rand(14,0.3,1).dw", _width_item(rand14, "dw", 1, 6)),
        ("path(70).dw", _width_item(bidirected_path(70), "dw", 1, 2)),
        ("rand(12,0.3,2).dw_2", _width_item(rand12, "dw_r", 2, 4)),
        ("rand(14,0.3,1).dpw", _width_item(rand14, "dpw", 1, 6)),
    ]


# ---------------------------------------------------------------------------
# suite-corpus: the per-instance work of the acceptance suites

def _hierarchy(g: Digraph, problems: list) -> None:
    chain = [width(g, "dw_r", r=r) for r in range(1, g.n + 1)]
    dpw = width(g, "dpw")
    if any(a > b for a, b in zip(chain, chain[1:])) or chain[-1] != dpw:
        problems.append(("hierarchy", chain, dpw))


def _lemma9(g: Digraph, problems: list) -> None:
    k = width(g, "dw")
    res = solve_search(g, SearchConfig(k=k, r=1))
    f = res.cop_strategy.as_positional()
    ft = cleanup_strategy(g, f)
    for (U, R), up in ft.items():
        (v,) = R
        new = up - U
        if not new:
            problems.append(("lemma9-idle", sorted(U), v))
        elif not new <= reach_excluding(g, U, {v}):
            problems.append(("lemma9-unreachable-placement", sorted(U), v))
    win = validate_cop_strategy(g, SearchConfig(k=k, r=1), ft)
    if not win.ok:
        problems.append(("lemma9-not-winning", str(win.witness)))


def _thm10(g: Digraph, problems: list) -> None:
    k = width(g, "dw")
    res = solve_search(g, SearchConfig(k=k, r=1))
    f = res.cop_strategy.as_positional()
    for r in MULTIPLIER_RS:
        dwr = width(g, "dw_r", r=r)
        if dwr > r * k:
            problems.append(("thm10-bound", r, dwr, r * k))
        adv = exhaust_prudent_isolating(g, multiply_strategy(g, f, r=r))
        if not (adv.ok and adv.max_cops <= r * k):
            problems.append(("thm10-adversary", r, adv.max_cops, r * k, str(adv.witness)))
    tw1 = width(g, "tw_r", r=1)
    tw2 = width(g, "tw_r", r=2)
    if tw2 > 2 * tw1:
        problems.append(("tw2-bound", tw2, tw1))


def _lemmas58(g: Digraph, problems: list, r: int = 2) -> None:
    k = width(g, "dw_r", r=r) - 1
    if k < 1:
        return
    cfg = SearchConfig(k=k, r=r)
    res = solve_search(g, cfg)
    if res.winner != ROBBERS:
        problems.append(("lemmas58-solver-disagrees-with-width", k))
        return
    iso = isolating_transform(g, cfg, res.robber_strategy)
    if not validate_robber_strategy(g, cfg, iso, require_isolating=True).ok:
        problems.append(("lemmas58-isolating",))
    pru = prudent_transform(g, cfg, res.robber_strategy)
    if not validate_robber_strategy(g, cfg, pru, require_isolating=True,
                                    require_prudent=True).ok:
        problems.append(("lemmas58-prudent",))


def _graph_item(g: Digraph):
    def run():
        problems = []
        _hierarchy(g, problems)
        _lemma9(g, problems)
        if is_strongly_connected(g):
            _thm10(g, problems)
        _lemmas58(g, problems)
        return problems
    return run


def _game_item(pg: ParityGame, eq: ObservationEquiv):
    def run():
        problems = []
        # lemma2: knowledge arena, history lifting, lifted 2k-cop strategy
        g = pg.arena_digraph()
        kg = parity.powerset_construct(pg, eq)
        if not parity.check_history_lifting(kg, pg, max_len=LIFT_HISTORY_LEN):
            problems.append(("history-lifting",))
        k = width(g, "dw_r", r=2)
        cap = 2 * k
        res = solve_search(g, SearchConfig(k=k, r=2))
        if res.winner != COPS:
            problems.append(("lemma2-solver-disagrees-with-width", k))
            return problems
        kgraph = kg.arena_digraph()
        lifted = parity.lift_cop_strategy(g, res.cop_strategy, kg)
        val = validate_cop_strategy(kgraph, SearchConfig(k=cap, r=1), lifted)
        if not (val.ok and val.max_announced <= cap):
            problems.append(("lifted-strategy", val.max_announced, cap, str(val.witness)))
        direct = width(kgraph, "dw")
        if direct > cap:
            problems.append(("knowledge-arena-width", direct, cap))
        # the imperfect-information pipeline; solve_imperfect raises
        # InvariantViolation when an extracted win fails product verification
        ident = parity.ObservationEquiv.identity(pg.n)
        r2 = parity.zielonka_solve(pg)
        if parity.solve_imperfect(pg, ident).player0_wins != (pg.init in r2.win0):
            problems.append(("identity-observation-disagrees",))
        parity.solve_imperfect(pg, eq)
        if pg.n <= ORACLE_MAX_POSITIONS:
            if parity.solve_by_strategy_enumeration(pg) != (r2.win0, r2.win1):
                problems.append(("enumeration-oracle-disagrees",))
        return problems
    return run


def suite_corpus(seed: int):
    """Every graph and game instance of the suites at their documented sizes."""
    rng = random.Random(seed)
    graphs = small_corpus(CORPUS_NMAX) + random_corpus(RANDOM_GRAPH_N, RANDOM_GRAPHS,
                                                       DEFAULT_SEED)
    shuffle = seed != DEFAULT_SEED
    items = [(f"graph:{name}", _graph_item(relabel_graph(g, rng, shuffle)))
             for name, g in graphs]
    game_rng = random.Random(DEFAULT_SEED)  # the draw suite_lemma2 makes
    for _ in range(GAMES):
        game_seed = game_rng.randrange(10 ** 9)
        pg, eq = relabel_game(*parity.gen_random_parity(game_seed), rng, shuffle)
        items.append((f"game:{game_seed}", _game_item(pg, eq)))
    return items


# ---------------------------------------------------------------------------
# multiplier-adversary: the multiplier against every prudent isolating line

def _multiplier_item(g: Digraph, r: int):
    def run():
        k = width(g, "dw")
        res = solve_search(g, SearchConfig(k=k, r=1))
        f = res.cop_strategy.as_positional()
        adv = exhaust_prudent_isolating(g, multiply_strategy(g, f, r=r))
        if adv.ok and adv.max_cops <= r * k:
            return []
        return [("adversary", r, adv.max_cops, r * k, str(adv.witness))]
    return run


def _thm7_item(n: int):
    g, _ = families.two_tree_graph(n)
    cops = families.cops_topdown_thm7(n)

    def run():
        rep = validate_cop_strategy(g, SearchConfig(k=4, r=1), cops)
        if rep.ok and rep.max_announced <= 4:
            return []
        return [("thm7-sweep", rep.max_announced, str(rep.witness))]
    return run


def strongly_connected_digraphs(count: int, seed: int):
    """`count` seeded random strongly connected digraphs on 7-9 vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(7, 9)
        g = families.random_digraph(n, rng.choice((0.25, 0.3, 0.35)),
                                    rng.randrange(10 ** 9))
        if is_strongly_connected(g):
            out.append(g)
    return out


def multiplier_adversary(seed: int):
    """Sixteen graphs drawn once at DEFAULT_SEED and never relabelled: like
    width-named, this workload does not depend on the seed.

    The explorers' cost depends on the labelling through the solver's choice
    of strategy: over 8 relabellings one (graph, r) item took 0.19-2.27 s.
    With seeded relabellings the pass time spread 16-17% and the median
    item 20-26% between five seeds (more with freshly drawn graphs), which
    no bound that still catches a regression could absorb.
    """
    items = []
    for i, g in enumerate(strongly_connected_digraphs(MULTIPLIER_GRAPHS, DEFAULT_SEED)):
        for r in MULTIPLIER_RS:
            items.append((f"sc{g.n}-{i}.r{r}", _multiplier_item(g, r)))
    items.append(("two_tree(3).thm7-sweep", _thm7_item(3)))
    return items


WORKLOADS = {
    "width-named": width_named,
    "suite-corpus": suite_corpus,
    "multiplier-adversary": multiplier_adversary,
}
