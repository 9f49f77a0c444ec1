import pytest
from hypothesis import given, settings, strategies as st

from pursuitwidth.digraph import (Digraph, emit_dot, emit_edge_list, induced,
                                  is_strongly_connected, parse_edge_list,
                                  reach_excluding, scc_masks, set_from,
                                  symmetric_closure)
from pursuitwidth.errors import InputError
from pursuitwidth.families import cycle_digraph

import oracles
from oracles import reach_by_path_enumeration, sccs_by_closure


def digraphs(max_n=6):
    def build(n, picks):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        edges = [p for p, keep in zip(pairs, picks) if keep]
        return Digraph(n, edges)
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(st.booleans(), min_size=n * n, max_size=n * n)))


def subset_of(n):
    return st.sets(st.integers(0, n - 1), max_size=n).map(frozenset)


class TestReach:
    def test_whole_cycle_reachable(self):
        g = cycle_digraph(3)
        assert reach_excluding(g, set(), {0}) == {0, 1, 2}

    def test_blocked_exit(self):
        g = cycle_digraph(3)
        assert reach_excluding(g, {1}, {0}) == {0}

    def test_out_of_range_rejected(self):
        g = cycle_digraph(3)
        with pytest.raises(InputError):
            reach_excluding(g, {5}, {0})
        with pytest.raises(InputError):
            reach_excluding(g, set(), {-1})

    @given(digraphs(), st.data())
    def test_matches_path_enumeration(self, g, data):
        X = data.draw(subset_of(g.n))
        Y = data.draw(subset_of(g.n))
        assert reach_excluding(g, X, Y) == reach_by_path_enumeration(g, X, Y)

    @given(digraphs(), st.data())
    def test_reflexive_and_disjoint_from_blockers(self, g, data):
        X = data.draw(subset_of(g.n))
        Y = data.draw(subset_of(g.n))
        got = reach_excluding(g, X, Y)
        assert (Y - X) <= got
        assert not (got & X)

    @given(digraphs(), st.data())
    def test_monotone_in_sources_antitone_in_blockers(self, g, data):
        X = data.draw(subset_of(g.n))
        Y = data.draw(subset_of(g.n))
        Y2 = data.draw(subset_of(g.n)) | Y
        X2 = data.draw(subset_of(g.n)) | X
        assert reach_excluding(g, X, Y) <= reach_excluding(g, X, Y2)
        assert reach_excluding(g, X2, Y) <= reach_excluding(g, X, Y)


def sccs(g):
    """(blocks as frozensets, block index of each vertex)."""
    blocks, index = scc_masks(g.out_masks, g.n)
    return [set_from(b) for b in blocks], index


class TestSccs:
    def test_cycle_is_one_block(self):
        assert sccs(cycle_digraph(3))[0] == [frozenset({0, 1, 2})]

    def test_dag_splits(self):
        g = Digraph(2, [(0, 1)])
        assert set(sccs(g)[0]) == {frozenset({0}), frozenset({1})}

    def test_component_accessor(self):
        blocks, index = sccs(cycle_digraph(4))
        assert blocks[index[2]] == frozenset({0, 1, 2, 3})

    def test_blocked_vertices_have_no_block(self):
        blocks, index = scc_masks(cycle_digraph(4).out_masks, 4, blocked=0b0100)
        assert index[2] == -1 and sorted(blocks) == [0b0001, 0b0010, 0b1000]

    @given(digraphs(max_n=8))
    def test_matches_closure_oracle(self, g):
        assert set(sccs(g)[0]) == set(sccs_by_closure(g))

    @given(digraphs())
    def test_blocks_partition_and_order(self, g):
        blocks, index = sccs(g)
        union = set()
        for b in blocks:
            assert not (b & union)
            union |= b
        assert union == set(range(g.n))
        # edges between distinct blocks point to earlier (already-closed) blocks
        for (u, v) in g.edges:
            assert index[u] >= index[v]


class TestSymmetricClosure:
    def test_single_edge(self):
        g = Digraph(2, [(0, 1)])
        assert symmetric_closure(g).edges == {(0, 1), (1, 0)}

    def test_cycle_doubles(self):
        assert len(symmetric_closure(cycle_digraph(3)).edges) == 6

    @given(digraphs())
    def test_idempotent(self, g):
        once = symmetric_closure(g)
        assert symmetric_closure(once) == once


class TestInduced:
    @settings(max_examples=40)
    @given(digraphs(), st.data())
    def test_matches_oracle(self, g, data):
        vertices = data.draw(st.permutations(range(g.n)).flatmap(
            lambda order: st.integers(0, g.n).map(lambda m: order[:m])))
        h = induced(g, vertices)
        assert h.n == len(vertices)
        assert h.edges == oracles.induced(g, vertices)

    def test_keeps_labels_in_the_given_order(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0)], labels=["a", "b", "c"])
        h = induced(g, [2, 0])
        assert h.labels == ("c", "a") and h.edges == {(0, 1)}

    @pytest.mark.parametrize("vertices,message", [([0, 3], "out of range"),
                                                  ([1, 1], "repeats a vertex")])
    def test_bad_vertex_sets_are_rejected(self, vertices, message):
        with pytest.raises(InputError, match=message):
            induced(cycle_digraph(3), vertices)


class TestEdgeListFormat:
    def test_parse_cycle(self):
        g = parse_edge_list("3\n0 1\n1 2\n2 0\n")
        assert g == cycle_digraph(3)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a comment\n\n3\n0 1  # trailing\n\n1 2\n2 0\n")
        assert g == cycle_digraph(3)

    def test_error_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_edge_list("3\n2 5\n")

    def test_malformed_line(self):
        with pytest.raises(InputError, match="line 3"):
            parse_edge_list("3\n0 1\n0 1 2\n")

    @given(digraphs())
    def test_round_trip(self, g):
        text = emit_edge_list(g)
        assert emit_edge_list(parse_edge_list(text)) == text

    def test_dot_mentions_edges(self):
        dot = emit_dot(cycle_digraph(3))
        assert "0 -> 1" in dot and dot.startswith("digraph")


def test_strong_connectivity():
    assert is_strongly_connected(cycle_digraph(4))
    assert not is_strongly_connected(Digraph(2, [(0, 1)]))
    assert is_strongly_connected(Digraph(1, []))


def test_unblocked_reach_is_plain_forward_reachability():
    # one hundred seeded graphs against a plain breadth-first computation
    import random
    from collections import deque
    from pursuitwidth.families import random_digraph
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_digraph(n, rng.choice([0.2, 0.4, 0.6]), rng.randrange(10 ** 9))
        sources = {v for v in range(n) if rng.random() < 0.4}
        seen = set(sources)
        dq = deque(sources)
        while dq:
            u = dq.popleft()
            for w in g.successors(u):
                if w not in seen:
                    seen.add(w)
                    dq.append(w)
        assert reach_excluding(g, set(), sources) == seen
