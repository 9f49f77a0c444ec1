import pytest
from hypothesis import given, strategies as st

from pursuitwidth.arena import (ROBBERS, GraphCache, SearchConfig, announcement_masks,
                                solve_search, validate_invisible_schedule, width)
from pursuitwidth.digraph import Digraph, bits, is_strongly_connected
from pursuitwidth.errors import InputError, ResourceError
from pursuitwidth.families import (clique, cops_dpw_tree, cops_topdown_thm7,
                                   cycle_digraph, enumerate_strongly_connected,
                                   full_tree, gen_grk, lex_product,
                                   random_digraph, robber_thm7, tree_T,
                                   two_tree_graph)
from pursuitwidth.strategy import (validate_cop_strategy,
                                   validate_robber_strategy)

import oracles


class TestFullTree:
    def test_star(self):
        g, _ = full_tree(3, 2)
        assert g.n == 4 and len(g.edges) == 6

    def test_single_vertex(self):
        g, _ = full_tree(5, 1)
        assert g.n == 1 and not g.edges

    def test_three_levels(self):
        g, _ = full_tree(3, 3)
        assert g.n == 13

    def test_benchmark_tree_shapes(self):
        assert tree_T(1)[0].n == 4
        assert tree_T(2)[0].n == 13

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            full_tree(0, 2)


class TestLexProduct:
    def test_identity_factor(self):
        g = cycle_digraph(4)
        assert lex_product(g, clique(1)).edges == g.edges

    def test_single_vertex_times_clique(self):
        g = lex_product(Digraph(1, []), clique(2))
        assert g.edges == {(0, 1), (1, 0)}

    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    def test_edge_count_matches_definition(self, n1, n2, data):
        pairs1 = [(u, v) for u in range(n1) for v in range(n1) if u != v]
        e1 = [p for p in pairs1 if data.draw(st.booleans())]
        g1 = Digraph(n1, e1)
        g2 = clique(n2)
        prod = lex_product(g1, g2)
        # definition-level recount with explicit double loops
        expected = set()
        for (u1, v1) in g1.edges:
            for w1 in range(n2):
                for w2 in range(n2):
                    expected.add((u1 * n2 + w1, v1 * n2 + w2))
        for v1 in range(n1):
            for (w1, w2) in g2.edges:
                expected.add((v1 * n2 + w1, v1 * n2 + w2))
        assert prod.edges == frozenset(expected)

    def test_product_family_sizes(self):
        assert gen_grk(1, 2).n == 8
        assert gen_grk(2, 1).n == 13
        assert gen_grk(2, 1).edges == tree_T(2)[0].edges


class TestTwoTreeFamily:
    def test_sizes(self):
        assert two_tree_graph(1)[0].n == 6
        assert two_tree_graph(2)[0].n == 30

    def test_mirrored_root_is_the_only_sink(self):
        g, co = two_tree_graph(2)
        sink = co.vertex((), True)
        outs = [v for v in range(g.n) if not g.successors(v)]
        assert outs == [sink]
        # everything else is one strongly connected block
        assert set(oracles.sccs_by_closure(g)) == {frozenset({sink}),
                                                   frozenset(range(g.n)) - {sink}}

    def test_edge_count_small(self):
        g, _ = two_tree_graph(1)
        assert len(g.edges) == 11

    def test_restricted_cops_cannot_touch_the_twin_chain(self):
        # with the ancestors occupied, the robber's component misses the
        # mirrored ancestor chain entirely; cross-check against the SCC oracle
        g, co = two_tree_graph(1)
        v = co.vertex((1, 1))
        U = {co.vertex(()), co.vertex((1,))}
        pre = {co.vertex((), True), co.vertex((1,), True), co.vertex((1, 1), True)}
        comp = sccs_without(g, U)[v]
        cfg = SearchConfig(k=2, r=1, restrict_to_scc=True)
        Um = sum(1 << u for u in U)
        for up in announcement_masks(GraphCache(g), cfg, Um, 1 << v):
            new = set(bits(up & ~Um))
            assert not (new & pre)
            assert new <= comp

    def test_topdown_sweep_wins_smallest(self):
        g, _ = two_tree_graph(1)
        rep = validate_cop_strategy(g, SearchConfig(k=4, r=1), cops_topdown_thm7(1))
        assert rep.ok and rep.max_announced <= 4

    def test_escape_robber_survives_smallest(self):
        g, _ = two_tree_graph(1)
        cfg = SearchConfig(k=1, r=1, restrict_to_scc=True)
        rep = validate_robber_strategy(g, cfg, robber_thm7(1))
        assert rep.ok

    def test_restricted_loss_smallest(self):
        g, _ = two_tree_graph(1)
        cfg = SearchConfig(k=1, r=1, restrict_to_scc=True)
        assert solve_search(g, cfg).winner == ROBBERS


def sccs_without(g, U):
    """The SCC of each vertex, as a set, once the vertices U are deleted."""
    kept = [(u, v) for (u, v) in g.edges if u not in U and v not in U]
    blocks = oracles.sccs_by_closure(Digraph(g.n, kept))
    return [set(next(b for b in blocks if v in b)) for v in range(g.n)]


class TestClearingSchedules:
    @pytest.mark.parametrize("r,k", [(1, 1), (2, 1), (1, 2)])
    def test_schedule_clears_with_exact_peak(self, r, k):
        g = gen_grk(r, k)
        sched = cops_dpw_tree(r, k)
        cap = k * (r + 1)
        assert max(len(s) for s in sched) == cap
        ok, detail = validate_invisible_schedule(g, cap, sched)
        assert ok, detail

    def test_star_schedule_shape(self):
        sched = cops_dpw_tree(1, 1)
        assert [sorted(s) for s in sched] == [[0], [0, 1], [0, 2], [0, 3]]


class TestGenerators:
    def test_cycle(self):
        assert cycle_digraph(3).edges == {(0, 1), (1, 2), (2, 0)}

    def test_random_is_seed_deterministic(self):
        a = random_digraph(6, 0.4, 7)
        b = random_digraph(6, 0.4, 7)
        assert a == b
        assert a != random_digraph(6, 0.4, 8)

    def test_enumeration_counts(self):
        assert sum(1 for _ in enumerate_strongly_connected(1)) == 1
        assert sum(1 for _ in enumerate_strongly_connected(2)) == 1
        assert sum(1 for _ in enumerate_strongly_connected(3)) == 5
        assert sum(1 for _ in enumerate_strongly_connected(4)) == 83

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumeration_matches_brute_force(self, n):
        assert ([sorted(g.edges) for g in enumerate_strongly_connected(n)]
                == list(oracles.strongly_connected_by_brute_force(n)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_enumeration_rejects_fewer_than_one_vertex(self, n):
        with pytest.raises(InputError):
            list(enumerate_strongly_connected(n))

    def test_enumeration_is_bounded_by_the_budget(self, monkeypatch):
        # n = 4 tries (2^3 - 1)^4 = 2,401 chunk tuples
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2401")
        assert sum(1 for _ in enumerate_strongly_connected(4)) == 83
        monkeypatch.setenv("PURSUITWIDTH_BUDGET", "2400")
        with pytest.raises(ResourceError, match="on 4 vertices") as err:
            next(enumerate_strongly_connected(4))
        assert err.value.budget == 2400 and err.value.context == "n=4"

    def test_enumeration_yields_connected_canonical(self):
        seen = set()
        for g in enumerate_strongly_connected(3):
            assert is_strongly_connected(g)
            key = (g.n, tuple(sorted(g.edges)))
            assert key not in seen
            seen.add(key)

    def test_width_gap_witness(self):
        t2, _ = tree_T(2)
        assert width(t2, "dw") == 2 < 3 == width(t2, "dpw")
