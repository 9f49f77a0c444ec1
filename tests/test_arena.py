import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from pursuitwidth import arena
from pursuitwidth.arena import (COPS, LADDER_START, ROBBERS, CopTurn, GraphCache,
                                RobberTurn, SearchConfig, _ladder, _SearchSolver,
                                announcement_masks, solve_invisible, solve_search,
                                subset_masks, validate_invisible_schedule, width)
from pursuitwidth.cli import random_corpus, small_corpus
from pursuitwidth.digraph import Digraph, bits, out_of, reach_mask, region_table
from pursuitwidth.errors import ConfigError, InputError, InvariantViolation, ResourceError
from pursuitwidth.families import (cycle_digraph, gen_grk, random_digraph,
                                   tree_T, two_tree_graph)
from pursuitwidth.strategy import (SolverRobberStrategy, antichain_reps,
                                   validate_cop_strategy, validate_robber_strategy)

import oracles
from oracles import invisible_clears, minimax_solve

single = Digraph(1, [])


class TestPositions:
    def test_positions_hold_masks_and_print_vertex_lists(self):
        assert repr(CopTurn(0b110, 0b1)) == "CopTurn(U=[1, 2], R=[0])"
        assert repr(RobberTurn(0b10, 0b110, 0b1)) == "RobberTurn(U=[1], U'=[1, 2], R=[0])"
        assert CopTurn(0b10, 0b1) == CopTurn(2, 1) and len({CopTurn(2, 1), CopTurn(2, 1)}) == 1

    @pytest.mark.parametrize("fields", [(frozenset(), 1), (0, {0}), (-1, 1), (0, True)],
                             ids=["frozenset-cops", "set-robbers", "negative", "bool"])
    def test_vertex_sets_that_are_not_masks_are_rejected(self, fields):
        with pytest.raises(TypeError, match="vertex mask"):
            CopTurn(*fields)
        with pytest.raises(TypeError, match="vertex mask"):
            RobberTurn(fields[0], 0, fields[1])
        bad = next(m for m in fields if type(m) is not int or m < 0)
        with pytest.raises(TypeError, match="Uprime must be a vertex mask"):
            RobberTurn(0, bad, 0)

    def test_cops_and_robbers_may_not_overlap(self):
        with pytest.raises(ConfigError, match=r"\[1\]"):
            CopTurn(0b10, 0b11)
        with pytest.raises(ConfigError):
            RobberTurn(0b1, 0, 0b1)


def robber_moves(g, cfg, pos=None):
    """Every robber reply to `pos` as cop positions; every placement when pos is None."""
    if pos is None:
        return {CopTurn(0, R) for R in subset_masks(g.full_mask, range(1, cfg.r + 1))}
    escapes = reach_mask(g.out_masks, pos.R, pos.U & pos.Uprime) & ~pos.Uprime
    return {CopTurn(pos.Uprime, Rp) for Rp in subset_masks(escapes, range(cfg.r + 1))}


class TestMoves:
    def test_cop_moves_single_vertex(self):
        assert list(announcement_masks(GraphCache(single), SearchConfig(k=1), 0, 1)) == [1, 0]

    def test_cop_moves_count_on_cycle(self):
        moves = list(announcement_masks(GraphCache(cycle_digraph(3)), SearchConfig(k=2), 0, 1))
        assert len(moves) == len(set(moves)) == 7  # all announcements of at most two cops

    def test_initial_robber_moves_exclude_empty(self):
        moves = robber_moves(cycle_digraph(3), SearchConfig(k=1, r=2))
        assert all(m.R for m in moves)
        assert len(moves) == 6  # three singletons plus three pairs

    def test_robber_moves_blocked_cycle(self):
        moves = robber_moves(cycle_digraph(3), SearchConfig(k=1), RobberTurn(0b10, 0b10, 0b1))
        assert moves == {CopTurn(0b10, 0b1), CopTurn(0b10, 0)}

    def test_robber_escapes_or_leaves(self):
        g = Digraph(2, [(0, 1)])
        moves = robber_moves(g, SearchConfig(k=1), RobberTurn(0, 0b1, 0b1))
        assert moves == {CopTurn(0b1, 0b10), CopTurn(0b1, 0)}

    def test_restricted_needs_single_robber(self):
        with pytest.raises(ConfigError):
            SearchConfig(k=1, r=2, restrict_to_scc=True)

    def test_monotone_when_no_cop_abandoned(self):
        g = cycle_digraph(3)
        assert GraphCache(g).robber_turn(0b10, 0b110, 0b1)[0] == 0

    def test_non_monotone_abandonment(self):
        g = cycle_digraph(3)
        assert GraphCache(g).robber_turn(0b10, 0, 0b1)[0] != 0

    def test_monotone_when_abandoned_cop_unreachable(self):
        g = Digraph(3, [(0, 2)])
        assert GraphCache(g).robber_turn(0b10, 0b100, 0b1)[0] == 0


class TestSolve:
    def test_single_vertex_cop_wins(self):
        assert solve_search(single, SearchConfig(k=1)).winner == COPS

    def test_cycle_needs_two_cops(self):
        g = cycle_digraph(3)
        assert solve_search(g, SearchConfig(k=1)).winner == ROBBERS
        assert solve_search(g, SearchConfig(k=2)).winner == COPS

    def test_matches_minimax_oracle_on_cycle(self):
        g = cycle_digraph(3)
        assert minimax_solve(g, 1, 1) == "robbers"
        assert minimax_solve(g, 2, 1) == "cops"

    @given(st.integers(0, 2 ** 6 - 1), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=30)
    def test_matches_minimax_oracle_random(self, code, k, r):
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        g = Digraph(3, [p for i, p in enumerate(pairs) if (code >> i) & 1])
        res = solve_search(g, SearchConfig(k=k, r=r))
        assert res.winner == minimax_solve(g, k, r)

    def test_matches_minimax_oracle_seeded_four_vertex(self):
        for seed in range(12):
            g = random_digraph(4, 0.4, seed)
            for k in (1, 2, 3):
                for r in (1, 2):
                    got = solve_search(g, SearchConfig(k=k, r=r)).winner
                    assert got == minimax_solve(g, k, r), (sorted(g.edges), k, r)

    def test_product_family_win(self):
        assert solve_search(gen_grk(1, 2), SearchConfig(k=4)).winner == COPS

    def test_returned_strategies_validate(self):
        g = cycle_digraph(4)
        res = solve_search(g, SearchConfig(k=2))
        assert res.winner == COPS
        assert validate_cop_strategy(g, SearchConfig(k=2), res.cop_strategy).ok
        res1 = solve_search(g, SearchConfig(k=1))
        assert validate_robber_strategy(g, SearchConfig(k=1), res1.robber_strategy).ok

    def test_more_cops_never_hurt(self):
        for seed in range(5):
            g = random_digraph(4, 0.4, seed)
            prev = ROBBERS
            for k in range(1, 5):
                winner = solve_search(g, SearchConfig(k=k)).winner
                if prev == COPS:
                    assert winner == COPS
                prev = winner

    def test_budget_error_reports_bound(self, monkeypatch):
        # the variable is the only way to set the bound
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2")
        with pytest.raises(ResourceError) as exc:
            solve_search(cycle_digraph(5), SearchConfig(k=2))
        assert exc.value.budget == 2

    def test_width_reports_breaking_k(self, monkeypatch):
        g = cycle_digraph(5)
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2")
        with pytest.raises(ResourceError) as exc:
            width(g, "dw")
        assert "k=1" in str(exc.value.context)
        assert exc.value.lower_bound is None  # no rung was lost before it

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2")
        with pytest.raises(ResourceError):
            solve_search(cycle_digraph(5), SearchConfig(k=2))

    def test_visible_flag_required(self):
        with pytest.raises(Exception) as exc:
            solve_search(single, SearchConfig(k=1, visible=False))
        assert "visible" in str(exc.value)

    def test_exactly_one_strategy_present(self):
        g = cycle_digraph(3)
        res = solve_search(g, SearchConfig(k=2))
        assert res.cop_strategy is not None and res.robber_strategy is None
        res = solve_search(g, SearchConfig(k=1))
        assert res.cop_strategy is None and res.robber_strategy is not None


def _move_rule_corpus():
    """Every strongly connected digraph on at most 3 vertices, plus 6 seeded
    random digraphs on 4 vertices."""
    return small_corpus(3) + [(f"rnd4-{i}", random_digraph(4, 0.4, 2000 + i))
                              for i in range(6)]


MOVE_RULE_CORPUS = _move_rule_corpus()


def _vset(mask):
    return frozenset(bits(mask))


def _size(mask):
    return bin(mask).count("1")


class TestMoveRule:
    """`GraphCache`'s move rule and normal-form predicates, on a warm cache
    and on a fresh one, against the path-enumeration definitions of
    `oracles`, for every triple of vertex sets."""

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_robber_turn_matches_the_definition(self, name, g):
        cache = GraphCache(g)
        for U in range(1 << g.n):
            for R in range(1 << g.n):
                if U & R:
                    continue  # not a position
                for up in range(1 << g.n):
                    lost, esc = cache.robber_turn(U, up, R)
                    sets = (g, _vset(U), _vset(up), _vset(R))
                    assert _vset(esc) == oracles.escapes(*sets), (name, U, up, R)
                    assert _vset(lost) == oracles.abandoned(*sets), (name, U, up, R)
                    assert (GraphCache(g).robber_turn(U, up, R)[0] == 0) == \
                        oracles.is_monotone(*sets), (name, U, up, R)

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_isolation_matches_the_definition(self, name, g):
        cache = GraphCache(g)
        for U in range(1 << g.n):
            for R in range(1 << g.n):
                if not U & R:
                    want = oracles.is_isolating(g, _vset(U), _vset(R))
                    assert cache.is_isolating(U, R) == want, (name, U, R)
                    assert GraphCache(g).is_isolating(U, R) == want, (name, U, R)

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_prudence_matches_the_definition(self, name, g):
        cache = GraphCache(g)
        for R in range(1 << g.n):
            for up in range(1 << g.n):
                for Rp in range(1 << g.n):
                    want = oracles.is_prudent(g, _vset(R), _vset(up), _vset(Rp))
                    assert cache.is_prudent(R, up, Rp) == want, (name, R, up, Rp)
                    assert GraphCache(g).is_prudent(R, up, Rp) == want, (name, R, up, Rp)

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_components_match_the_definition(self, name, g):
        cache = GraphCache(g)
        for U in range(1 << g.n):
            for v in range(g.n):
                assert _vset(cache.component(U, v)) == oracles.component(g, _vset(U), v), \
                    (name, U, v)

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_antichain_reps_match_the_definition(self, name, g):
        cache = GraphCache(g)
        for U in range(1 << g.n):
            for R in range(1 << g.n):
                if not U & R:
                    want = oracles.antichain_reps(g, _vset(U), _vset(R))
                    assert _vset(antichain_reps(cache, U, R)) == want, (name, U, R)

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_restricted_announcements_match_the_definition(self, name, g):
        """Standing cops anywhere, new ones in the robber's component: each
        set of at most k such vertices, once."""
        cache = GraphCache(g)
        for U in range(1 << g.n):
            for v in range(g.n):
                if U >> v & 1:
                    continue
                allowed = _vset(U) | oracles.component(g, _vset(U), v)
                for k in range(g.n + 1):
                    cfg = SearchConfig(k=k, restrict_to_scc=True)
                    masks = list(announcement_masks(cache, cfg, U, 1 << v))
                    got = [_vset(m) for m in masks]
                    want = {frozenset(c) for t in range(k + 1)
                            for c in itertools.combinations(sorted(allowed), t)}
                    assert len(got) == len(want) and set(got) == want, (name, U, v, k)
                    # most standing cops kept first, then most new cops
                    for a, b in zip(masks, masks[1:]):
                        assert _size(a & U) >= _size(b & U), (name, U, v, k)
                        assert a & U != b & U or _size(a) >= _size(b), (name, U, v, k)

    @pytest.mark.parametrize("name,g", MOVE_RULE_CORPUS, ids=[n for n, _ in MOVE_RULE_CORPUS])
    def test_unrestricted_announcements_come_largest_first(self, name, g):
        cache = GraphCache(g)
        for k in range(g.n + 1):
            sizes = [_size(m) for m in announcement_masks(cache, SearchConfig(k=k), 0, 1)]
            assert sizes == sorted(sizes, reverse=True), (name, k)
            assert len(sizes) == sum(math.comb(g.n, t) for t in range(k + 1)), (name, k)


def _solver_corpus():
    """Every strongly connected digraph on at most 3 vertices, plus 20 seeded
    random digraphs on 4 (sixteen of them) or 5 (four) vertices."""
    graphs = small_corpus(3)
    for i in range(20):
        n = 5 if i % 5 == 0 else 4
        graphs.append((f"rnd{n}-{i}", random_digraph(n, 0.35, 1000 + i)))
    return graphs


SOLVER_CORPUS = _solver_corpus()


def _assert_strategy_validates(g, cfg, res):
    if res.winner == COPS:
        report = validate_cop_strategy(g, cfg, res.cop_strategy)
    else:
        report = validate_robber_strategy(g, cfg, res.robber_strategy)
    assert report.ok, (sorted(g.edges), cfg, res.winner, report.witness)


class TestSearchSolver:
    @pytest.mark.parametrize("name,g", SOLVER_CORPUS, ids=[n for n, _ in SOLVER_CORPUS])
    def test_matches_oracle_and_strategies_validate(self, name, g):
        for r in (1, 2):
            for k in range(g.n + 1):
                cfg = SearchConfig(k=k, r=r)
                res = solve_search(g, cfg)
                assert res.winner == minimax_solve(g, k, r), (name, k, r)
                _assert_strategy_validates(g, cfg, res)
        for k in range(g.n + 1):
            cfg = SearchConfig(k=k, restrict_to_scc=True)
            _assert_strategy_validates(g, cfg, solve_search(g, cfg))

    def test_classes_are_keyed_by_border_cops(self):
        for name, g in SOLVER_CORPUS:
            cfgs = [SearchConfig(k=k, r=r) for r in (1, 2) for k in range(g.n + 1)]
            cfgs += [SearchConfig(k=k, restrict_to_scc=True) for k in range(g.n + 1)]
            for cfg in cfgs:
                _, cert, _ = _SearchSolver(g, cfg).run()
                for (U, reg), ann in cert.items():
                    border = out_of(g.out_masks, reg)
                    assert U & ~border == 0, (name, cfg, U, reg)
                    # the certificate keeps U and places new cops inside reg
                    assert ann & U == U and ann & ~U & ~reg == 0, (name, cfg, U, reg)
                    assert bin(ann).count("1") <= cfg.k

    def test_cops_off_the_border_get_their_class_certificate(self):
        checked = 0
        for name, g in SOLVER_CORPUS:
            for k in range(1, g.n):
                res = solve_search(g, SearchConfig(k=k))
                if res.winner != COPS:
                    continue
                strategy = res.cop_strategy
                for (U, reg), ann in strategy.cert.items():
                    # one robber, with cops U | {v}, whose region is reg
                    R = next(w for w in bits(reg) if strategy.cache.reach(1 << w, U) == reg)
                    off = ~(U | reg | out_of(g.out_masks, reg)) & g.full_mask
                    for v in bits(off):
                        pos = CopTurn(U | 1 << v, 1 << R)
                        assert strategy.announce(None, pos) == (ann, None)
                        checked += 1
        assert checked > 100

    @pytest.mark.parametrize("cfg", [SearchConfig(k=2), SearchConfig(k=2, r=2),
                                     SearchConfig(k=2, restrict_to_scc=True)],
                             ids=["r1", "r2", "scc"])
    def test_robbers_keep_to_the_classes_decided_lost(self, cfg):
        # the local solve leaves classes undecided (21 of 23 decided at r=1,
        # 21 of 40 at r=2); robbers that took every class not decided won
        # for a lost one would be caught here
        g = random_digraph(6, 0.35, 13)
        res = solve_search(g, cfg)
        assert res.winner == ROBBERS
        rep = validate_robber_strategy(g, cfg, res.robber_strategy)
        assert rep.ok, rep.witness

    def test_two_tree_arena_size_and_budget(self, monkeypatch):
        g, _ = two_tree_graph(2)
        cfg = SearchConfig(k=2)
        size = solve_search(g, cfg).arena_size
        assert size == 432  # (border cops, region) classes decided
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", str(size))
        assert solve_search(g, cfg).arena_size == size
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", str(size - 1))
        with pytest.raises(ResourceError) as exc:
            solve_search(g, cfg)
        assert exc.value.budget == size - 1

    @pytest.mark.parametrize("k,winner,size", [(5, ROBBERS, 3104), (6, COPS, 89)],
                             ids=["lost-rung", "won-rung"])
    def test_random_fourteen_vertex_rung_arena_sizes(self, k, winner, size):
        res = solve_search(random_digraph(14, 0.3, 1), SearchConfig(k=k))
        assert (res.winner, res.arena_size) == (winner, size)

    def test_initial_unions_are_tried_in_combination_order(self):
        # two robbers may open on {2}, {3}, {2, 3}, {0..3} or all five
        # vertices; taken in the unions' combination order, as on every other
        # robber turn, the solver decides 7 classes (in mask order it took 8)
        g = Digraph(5, [(0, 1), (0, 2), (0, 3), (1, 0), (4, 1), (4, 2)])
        res = solve_search(g, SearchConfig(k=1, r=2))
        assert (res.winner, res.arena_size) == (ROBBERS, 7)


class TestOneNewCop:
    """A class's candidates skip every cop whose single placement is already
    refuted: if U | X wins, so does U | {x} for each x in X."""

    def test_the_lemma_holds_in_the_full_game(self):
        # cops limited to one new cop per announcement win exactly where
        # unlimited cops do; with none they win nowhere, so the bound bites
        graphs = [g for _, g in small_corpus(3)] + [random_digraph(4, 0.4, s) for s in range(8)]
        for g in graphs:
            for r in (1, 2):
                for k in range(1, g.n + 1):
                    want = minimax_solve(g, k, r)
                    assert minimax_solve(g, k, r, max_new_cops=1) == want, (sorted(g.edges), k, r)
        assert minimax_solve(single, 1, 1) == "cops"
        assert minimax_solve(single, 1, 1, max_new_cops=0) == "robbers"

    def test_lost_rung_skips_refuted_cops(self, monkeypatch):
        # 78,760 candidates without the rule, over the same 3,104 classes;
        # 18,353 while each of the 3,087 lost classes also tried the idle one;
        # 15,266 while the 10 classes won by capture each enumerated theirs
        yielded = []
        candidates = _SearchSolver._candidates

        def counted(self, U, reg):
            for cand in candidates(self, U, reg):
                yielded.append(cand)
                yield cand

        monkeypatch.setattr(_SearchSolver, "_candidates", counted)
        res = solve_search(random_digraph(14, 0.3, 1), SearchConfig(k=5))
        assert (res.winner, res.arena_size, len(yielded)) == (ROBBERS, 3104, 15256)

    def test_robber_replies_stay_in_classes_decided_lost(self):
        """Each candidate of a lost class was refuted, or holds a cop x whose
        single placement was: that turn has a decided-lost successor class.
        Against an announcement B | X, follow such successors, one refuted
        single of X at a time, until the region avoids X; it is then a
        region the robbers may take, so `respond` finds a lost class."""
        checks = 0
        for name, g in small_corpus(4) + random_corpus(6, 80, 4242):
            for r in (1, 2):
                for k in range(1, g.n + 1):
                    cfg = SearchConfig(k=k, r=r)
                    _, _, lost = _SearchSolver(g, cfg).run()
                    robbers = SolverRobberStrategy(g, cfg, lost)
                    cache = robbers.cache
                    for B, reg in lost:
                        root = next((v for v in bits(reg) if cache.reach(1 << v, B) == reg), None)
                        if root is None:
                            continue  # a union of regions
                        free = g.full_mask & ~B
                        for X in subset_masks(free, range(k - B.bit_count() + 1)):
                            up = B | X
                            Rp, _ = robbers.respond(None, RobberTurn(B, up, 1 << root))
                            assert Rp and cache.class_key(up, cache.reach(Rp, up)) in lost, \
                                (name, cfg, B, reg, X)
                            checks += 1
        assert checks == 11285


def _forced_corpus():
    """Every strongly connected digraph on at most 4 vertices, plus 16 seeded
    random digraphs on 5 or 6 vertices."""
    return small_corpus(4) + [(f"rnd{5 + i % 2}-{i}", random_digraph(5 + i % 2, 0.35, 5000 + i))
                              for i in range(16)]


FORCED_CORPUS = _forced_corpus()


class YieldingEvery(_SearchSolver):
    """The solver whose robber turns yield every undecided successor class to
    the trampoline, forced or not: a class with no room for a cop is lost there
    at once, and one with room for its whole region is won by its first candidate."""

    def _turn(self, Up, unions):
        value = self.value
        for u, out_set in unions:
            key = (Up & out_set, u)
            got = value.get(key)
            if not (got if got is not None else (yield key)):
                return False
        return True


class TestForcedClasses:
    """A robber turn decides a successor class whose value its size forces in
    place: lost when its border holds k cops, won by capture when, outside the
    SCC-restricted game, the cops left can stand on the whole region."""

    @pytest.mark.parametrize("name,g", FORCED_CORPUS, ids=[n for n, _ in FORCED_CORPUS])
    def test_decide_as_the_trampoline_does(self, name, g):
        cfgs = [SearchConfig(k=k, r=r) for r in (1, 2, 3) for k in range(g.n + 1)]
        cfgs += [SearchConfig(k=k, restrict_to_scc=True) for k in range(g.n + 1)]
        for cfg in cfgs:
            solver, every = _SearchSolver(g, cfg), YieldingEvery(g, cfg)
            assert solver.run() == every.run(), (name, cfg)
            # the same classes, decided in the same order with the same values
            assert list(solver.value.items()) == list(every.value.items()), (name, cfg)


def _escape_corpus():
    """Every strongly connected digraph on at most 4 vertices, plus 20 seeded
    random digraphs on 6 to 9 vertices."""
    graphs = small_corpus(4)
    for i in range(20):
        n = 6 + i % 4
        graphs.append((f"rnd{n}-{i}", random_digraph(n, 0.3, 3000 + i)))
    return graphs


ESCAPE_CORPUS = _escape_corpus()


def _ladder_robber_turns(g, r):
    """Record the dw_r ladder of g, from one cop up to the first rung the cops
    win: (Up, escapes, (region, out-set) pairs) of every robber turn it
    evaluates, and (Up, class) for every successor class it yields or decides
    in place, where Up is the announcement whose turn needs the class."""
    turns, yielded = [], []

    class Recording(_SearchSolver):
        def _escape_regions(self, Up, escapes):
            pairs = super()._escape_regions(Up, escapes)
            turns.append((Up, escapes, pairs))
            return pairs

        def _turn(self, Up, unions):
            inner, answer = super()._turn(Up, unions), None
            while True:
                known = len(self.value)
                try:
                    key = inner.send(answer)
                except StopIteration as done:
                    key, won = None, done.value
                # the classes inner decided in place since it was resumed
                yielded.extend((Up, c) for c in itertools.islice(self.value, known, None))
                if key is None:
                    return won
                yielded.append((Up, key))
                answer = yield key

    for k in range(1, g.n + 1):
        if Recording(g, SearchConfig(k=k, r=r)).run()[0]:
            return turns, yielded
    raise AssertionError("n cops always win")


class TestEscapeRegions:
    """The solver finds a robber turn's escape regions inside its escape set,
    each with its out-set; they must be the regions of the whole graph without
    the announced cops, and the out-sets their successors."""

    @pytest.mark.parametrize("name,g", ESCAPE_CORPUS, ids=[n for n, _ in ESCAPE_CORPUS])
    def test_match_the_whole_graph_regions(self, name, g):
        for r in (1, 2):
            turns, _ = _ladder_robber_turns(g, r)
            assert turns or g.n == 1, (name, r)
            for Up, escapes, pairs in turns:
                regs = [reg for reg, _ in pairs]
                region, _ = region_table(g.out_masks, g.n, Up)
                assert regs == sorted({region[v] for v in bits(escapes)}), (name, r, Up, escapes)
                if g.n <= 6:
                    want = {sum(1 << w for w in oracles.reach_by_path_enumeration(
                        g, _vset(Up), {v})) for v in bits(escapes)}
                    assert regs == sorted(want), (name, r, Up, escapes)

    @pytest.mark.parametrize("name,g", ESCAPE_CORPUS, ids=[n for n, _ in ESCAPE_CORPUS])
    def test_out_sets_are_the_successors_of_each_region_and_union(self, name, g):
        for r in (1, 2):
            for Up, escapes, pairs in _ladder_robber_turns(g, r)[0]:
                for reg, out_set in pairs:
                    assert out_set == out_of(g.out_masks, reg), (name, r, Up, reg)
                regs = [reg for reg, _ in pairs]
                want = dict.fromkeys(regs + [a | b for a, b in itertools.combinations(regs, 2)])
                unions = arena._region_unions(pairs, 2)
                assert [u for u, _ in unions] == list(want), (name, r, Up, escapes)
                for u, out_set in unions:
                    assert out_set == out_of(g.out_masks, u), (name, r, Up, u)

    @pytest.mark.parametrize("name,g", ESCAPE_CORPUS, ids=[n for n, _ in ESCAPE_CORPUS])
    def test_yielded_classes_are_class_keys(self, name, g):
        cache = GraphCache(g)
        for r in (1, 2):
            _, yielded = _ladder_robber_turns(g, r)
            assert yielded or g.n <= 2, (name, r)
            for Up, (W, u) in yielded:
                assert (W, u) == cache.class_key(Up, u), (name, r, Up, u)


def _invisible_corpus():
    """Every strongly connected digraph on at most 4 vertices, plus 40 seeded
    random digraphs on 5 vertices."""
    graphs = small_corpus(4)
    for i in range(40):
        graphs.append((f"rnd5-{i}", random_digraph(5, (0.25, 0.4)[i % 2], 2000 + i)))
    return graphs


INVISIBLE_CORPUS = _invisible_corpus()


class TestInvisible:
    @pytest.mark.parametrize("name,g", INVISIBLE_CORPUS, ids=[n for n, _ in INVISIBLE_CORPUS])
    def test_matches_oracle_and_schedules_place_one_cop_per_vertex(self, name, g):
        for k in range(g.n + 1):
            res = solve_invisible(g, k)
            assert res.cops_win == invisible_clears(g, k), (name, k)
            if not res.cops_win:
                continue
            assert len(res.schedule) == g.n
            before = set()
            for U in res.schedule:
                assert len(U - before) == 1
                before = U
            ok, detail = validate_invisible_schedule(g, k, res.schedule)
            assert ok, detail

    def test_lost_rung_state_count_and_budget(self, monkeypatch):
        # a lost k expands every reachable contaminated set, in any order
        g = random_digraph(14, 0.3, 1)
        res = solve_invisible(g, 5)
        assert not res.cops_win and res.states == 4338
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", str(res.states))
        assert solve_invisible(g, 5).states == res.states
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", str(res.states - 1))
        with pytest.raises(ResourceError) as exc:
            solve_invisible(g, 5)
        assert exc.value.budget == res.states - 1

    def test_negative_cop_count_is_rejected(self):
        g = cycle_digraph(3)
        with pytest.raises(ConfigError, match="k must be nonnegative"):
            solve_invisible(g, -1)
        with pytest.raises(ConfigError, match="k must be nonnegative"):
            validate_invisible_schedule(g, -1, [{0}])

    def test_single_vertex(self):
        assert solve_invisible(single, 1).cops_win

    def test_star_needs_two(self):
        t1, _ = tree_T(1)
        assert solve_invisible(t1, 2).cops_win
        assert not solve_invisible(t1, 1).cops_win

    def test_depth_three_tree_needs_three(self):
        t2, _ = tree_T(2)
        assert solve_invisible(t2, 3).cops_win
        assert not solve_invisible(t2, 2).cops_win

    def test_witness_schedule_replays(self):
        t1, _ = tree_T(1)
        res = solve_invisible(t1, 2)
        ok, detail = validate_invisible_schedule(t1, 2, res.schedule)
        assert ok, detail

    def test_replay_rejects_recontamination(self):
        g = cycle_digraph(3)
        ok, detail = validate_invisible_schedule(g, 1, [{0}, {1}])
        assert not ok

    def test_replay_rejects_vertices_out_of_range(self):
        g = cycle_digraph(3)
        with pytest.raises(InputError, match="vertex 99 in the placement of step 0"):
            validate_invisible_schedule(g, 2, [{0, 99}, {0, 1}, {1, 2}])
        with pytest.raises(InputError, match="vertex -1 in the placement of step 1"):
            validate_invisible_schedule(g, 2, [{0}, {-1}])


class TestWidth:
    def test_cycle(self):
        assert width(cycle_digraph(3), "dw") == 2

    def test_product_family_values(self):
        assert width(gen_grk(1, 1), "dw") == 2
        assert width(gen_grk(1, 2), "dw") == 4
        assert width(gen_grk(2, 1), "dw") == 2

    def test_invisible_tree_values(self):
        assert width(tree_T(1)[0], "dpw") == 2
        assert width(tree_T(2)[0], "dpw") == 3

    def test_team_of_all_matches_invisible(self):
        for seed in range(8):
            g = random_digraph(4, 0.4, seed)
            assert width(g, "dw_r", r=g.n) == width(g, "dpw")

    def test_tree_width_convention(self):
        # a path is a tree, so one below the two-cop count
        path = Digraph(3, [(0, 1), (1, 2)])
        assert width(path, "tw") == 1
        assert width(path, "tw_r", r=1) == 2

    def test_team_bound_on_random_symmetric_graphs(self):
        from pursuitwidth.digraph import symmetric_closure
        for seed in range(6):
            g = symmetric_closure(random_digraph(5, 0.35, seed))
            tw1 = width(g, "tw_r", r=1)
            for r in (2, 3):
                assert width(g, "tw_r", r=r) <= r * tw1

    @pytest.mark.parametrize("measure, use", [("dw", "dw_r"), ("tw", "tw_r"),
                                              ("dpw", "dw_r")])
    def test_one_robber_measures_reject_another_r(self, measure, use):
        with pytest.raises(ConfigError, match=f"use '{use}' for r=3"):
            width(cycle_digraph(3), measure, r=3)

    def test_unknown_measure(self):
        with pytest.raises(ConfigError):
            width(single, "nope")


# graphs the ladder's order was not chosen on: no seed here was used to pick
# it, and none is a seed of the benchmark or of `verify hierarchy`
LADDER_CASES = [
    *[(f"rand({n},{p},{5000 + n})", random_digraph(n, p, 5000 + n), m, r)
      for n, p, m, r in [(9, 0.3, "dw", 1), (9, 0.3, "dw_r", 2), (9, 0.3, "tw", 1),
                         (9, 0.3, "tw_r", 2), (10, 0.25, "dw_r", 2), (11, 0.2, "dw", 1),
                         (12, 0.2, "tw", 1), (13, 0.15, "dw_r", 2), (14, 0.15, "tw_r", 2),
                         (15, 0.12, "dw", 1), (16, 0.12, "dw_r", 2), (9, 0.3, "dpw", 1),
                         (11, 0.2, "dpw", 1), (15, 0.12, "dpw", 1), (16, 0.12, "dpw", 1)]],
    ("G_2^1", gen_grk(2, 1), "dw_r", 2),
    ("T_2", tree_T(2)[0], "dw", 1),
    ("T_2", tree_T(2)[0], "tw_r", 2),
    ("two-tree(1)", two_tree_graph(1)[0], "dw_r", 2),
    ("two-tree(2)", two_tree_graph(2)[0], "dw", 1),
    ("two-tree(2)", two_tree_graph(2)[0], "tw", 1),
    ("T_2", tree_T(2)[0], "dpw", 1),
    ("two-tree(2)", two_tree_graph(2)[0], "dpw", 1),
]


def _walk(n, winners):
    """The prefix sizes of the galloping walk, given each rung's winner: the
    rule of `_ladder` restated.  The step starts at 1; a lost rung stays on
    its prefix and resets the step, a won one adds the step and doubles it."""
    if n <= LADDER_START:
        return [n] * len(winners)
    sizes, m, step = [], LADDER_START, 1
    for winner in winners:
        sizes.append(m)
        if winner == ROBBERS:
            step = 1
        else:
            m, step = min(m + step, n), 2 * step
    return sizes


def _bidirected_path(n):
    return Digraph(n, [e for i in range(n - 1) for e in ((i, i + 1), (i + 1, i))])


class TestSubgraphLadder:
    @pytest.mark.parametrize("name,g,measure,r", LADDER_CASES,
                             ids=[f"{c[0]}-{c[2]}-r{c[3]}" for c in LADDER_CASES])
    def test_equals_the_plain_ladder(self, name, g, measure, r):
        value, rungs = _ladder(g, measure, r)
        assert value == width(g, measure, r=r) == _ladder(g, measure, r, plain=True)[0]
        # a graph above the start size climbs two rungs or more; every rung
        # starts at the k the one before reached, and the last is g, won
        sizes = [len(vs) for vs, _, _, _ in rungs]
        assert (len(set(sizes)) > 1) == (g.n > LADDER_START)
        assert sizes == sorted(sizes) and sizes[-1] == g.n and rungs[-1][2] == COPS
        for (_, k, winner, _), (_, k2, _, _) in zip(rungs, rungs[1:]):
            assert k2 == (k + 1 if winner == ROBBERS else k)

    @pytest.mark.parametrize("name,g,measure,r", LADDER_CASES,
                             ids=[f"{c[0]}-{c[2]}-r{c[3]}" for c in LADDER_CASES])
    def test_gallops_along_the_prefixes_of_one_order(self, name, g, measure, r):
        _, rungs = _ladder(g, measure, r)
        order = list(rungs[-1][0])
        assert sorted(order) == list(range(g.n)) and rungs[-1][2] == COPS
        assert all(list(vs) == order[:len(vs)] for vs, _, _, _ in rungs)
        assert [len(vs) for vs, _, _, _ in rungs] == _walk(g.n, [w for _, _, w, _ in rungs])

    @pytest.mark.parametrize("g,measure,want", [
        # the step doubles along a plateau and is capped at g: 39 + 32 > 70
        (_bidirected_path(70), "dw",
         [(8, 1, ROBBERS), (8, 2, COPS), (9, 2, COPS), (11, 2, COPS), (15, 2, COPS),
          (23, 2, COPS), (39, 2, COPS), (70, 2, COPS)]),
        # a lost rung stays on its prefix and resets the step to 1
        *[(random_digraph(14, 0.3, 1), m,
           [(8, 1, ROBBERS), (8, 2, ROBBERS), (8, 3, ROBBERS), (8, 4, COPS), (9, 4, COPS),
            (11, 4, ROBBERS), (11, 5, COPS), (12, 5, ROBBERS), (12, 6, COPS), (13, 6, COPS),
            (14, 6, COPS)]) for m in ("dw", "dpw")],
    ], ids=["path70-dw", "rand14-dw", "rand14-dpw"])
    def test_walk_on_a_plateau_and_after_a_loss(self, g, measure, want):
        assert [(len(vs), k, w) for vs, k, w, _ in _ladder(g, measure)[1]] == want

    def test_two_tree_3_fits_a_budget_the_plain_ladder_exceeds(self, monkeypatch):
        g, _ = two_tree_graph(3)
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2000")
        assert width(g, "dw") == 3
        # the plain ladder needs 28,749 classes at k=2 here, and takes
        # seconds to exceed the budget; on two_tree_graph(2) it needs 432
        small, _ = two_tree_graph(2)
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "100")
        assert width(small, "dw") == 3
        with pytest.raises(ResourceError) as exc:
            _ladder(small, "dw", plain=True)
        assert exc.value.context == "k=2"

    @pytest.mark.parametrize("measure", ["dw", "dpw"])
    def test_a_rung_lost_with_a_cop_per_vertex_stops_the_ladder(self, measure, monkeypatch):
        # n cops always win, so a solver that loses every rung is a fault,
        # reported at k = n rather than climbing without bound
        rungs = []

        def lost(h, measure, k, r):
            rungs.append(k)
            return False, 1

        monkeypatch.setattr(arena, "_rung", lost)
        with pytest.raises(InvariantViolation, match="3 cops lost on 3 vertices"):
            width(cycle_digraph(3), measure)
        assert rungs == [1, 2, 3]

    def test_a_budget_error_on_a_subgraph_names_k_and_its_size(self, monkeypatch):
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "10")
        with pytest.raises(ResourceError) as exc:
            width(two_tree_graph(3)[0], "dw")
        assert exc.value.context == "k=2, vertices=8" and exc.value.budget == 10
        assert str(exc.value).endswith("while testing k=2 on an induced subgraph of 8 vertices")
        # what the ladder had proved: one cop loses on those 8 vertices
        assert exc.value.lower_bound["k"] == 1 and len(exc.value.lower_bound["vertices"]) == 8

    @pytest.mark.parametrize("budget,context,bound", [
        (50, "k=3, vertices=8", {"k": 2, "vertices": [0, 1, 2, 4, 7, 9, 10, 11]}),
        (300, "k=4, vertices=11", {"k": 3, "vertices": [0, 1, 2, 4, 7, 9, 10, 11]}),
        (1000, "k=5, vertices=12", {"k": 4, "vertices": [0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 12]}),
    ], ids=["50", "300", "1000"])
    def test_the_budget_counts_every_class_a_rung_decides(self, budget, context, bound,
                                                         monkeypatch):
        # the classes whose size forces their value count against the budget
        # too, so each budget stops the ladder where it did when every class
        # went through the trampoline
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", str(budget))
        with pytest.raises(ResourceError) as exc:
            width(random_digraph(14, 0.3, 1), "dw")
        assert (exc.value.context, exc.value.lower_bound) == (context, bound)

    @pytest.mark.parametrize("g,measure", [(gen_grk(1, 2), "dw"),
                                           (random_digraph(8, 0.3, 5), "dpw")],
                             ids=["eight-vertices", "dpw"])
    def test_plain_ladder_computes_no_order(self, g, measure, monkeypatch):
        want = width(g, measure)
        monkeypatch.setattr(arena, "_search_order", None)
        assert width(g, measure) == want
        assert {len(vs) for vs, _, _, _ in _ladder(g, measure)[1]} == {g.n}
