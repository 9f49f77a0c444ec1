"""Generators for the benchmark graph families and their explicit strategies.

The two-tree escape family pairs an undirected full tree with a mirrored
copy whose edges all point to the root; a robber that keeps its unprimed
ancestors occupied can slide up the mirrored tree past any cops that are
confined to its component.  The tree/clique products realize the gap
between the one-robber width and the invisible-game width.
"""
from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .arena import CopTurn, RobberTurn
from .digraph import Digraph, bits, is_strongly_connected
from .errors import InputError, InvariantViolation
from .strategy import CopStrategy, RobberStrategy


def _addr_label(addr, primed: bool) -> str:
    if not addr:
        return "e'" if primed else "e"
    if primed:
        return "".join(f"{a}'" for a in addr)
    return "".join(str(a) for a in addr)


class TreeCoords(NamedTuple):
    """Address bookkeeping for the tree families.

    Addresses are tuples over 1..branching; the empty tuple is the root.
    When a mirrored copy is present, each address exists in a primed
    variant as well.
    """
    branching: int
    max_len: int
    addrs: list
    index: dict

    @classmethod
    def build(cls, branching: int, max_len: int, primed: bool) -> "TreeCoords":
        addrs = [()]
        frontier = [()]
        for _ in range(max_len):
            nxt = []
            for a in frontier:
                for j in range(1, branching + 1):
                    nxt.append(a + (j,))
            addrs.extend(nxt)
            frontier = nxt
        full = [(a, False) for a in addrs]
        if primed:
            full.extend((a, True) for a in addrs)
        index = {key: i for i, key in enumerate(full)}
        return cls(branching, max_len, full, index)

    def vertex(self, addr, primed: bool = False) -> int:
        return self.index[(tuple(addr), primed)]

    def address(self, v: int):
        return self.addrs[v]

    def labels(self):
        return [_addr_label(a, p) for (a, p) in self.addrs]


def full_tree(branching: int, height: int):
    """The undirected full tree: branching^i vertices at depth i < height."""
    if branching < 1 or height < 1:
        raise InputError("branching and height must be at least 1")
    coords = TreeCoords.build(branching, height - 1, primed=False)
    edges = []
    for (a, _p) in coords.addrs:
        if a:
            u = coords.vertex(a)
            v = coords.vertex(a[:-1])
            edges.append((u, v))
            edges.append((v, u))
    g = Digraph(len(coords.addrs), edges, labels=coords.labels())
    return g, coords


def lex_product(g1: Digraph, g2: Digraph) -> Digraph:
    """Replace each vertex of g1 by a copy of g2, with full edges along g1."""
    n2 = g2.n
    edges = []
    for (u1, v1) in g1.edges:
        for w1 in range(n2):
            for w2 in range(n2):
                edges.append((u1 * n2 + w1, v1 * n2 + w2))
    for v1 in range(g1.n):
        for (w1, w2) in g2.edges:
            edges.append((v1 * n2 + w1, v1 * n2 + w2))
    labels = None
    if g1.labels or g2.labels:
        labels = [f"{g1.label(v1)}.{g2.label(w)}" for v1 in range(g1.n) for w in range(n2)]
    return Digraph(g1.n * n2, edges, labels=labels)


def clique(k: int) -> Digraph:
    return Digraph(k, [(i, j) for i in range(k) for j in range(k) if i != j])


def cycle_digraph(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def random_digraph(n: int, p: float, seed) -> Digraph:
    if not 0 <= p <= 1:
        raise InputError(f"the edge probability p must lie in [0, 1], not {p}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Digraph(n, edges)


# ---------------------------------------------------------------------------
# The two-tree escape family

def two_tree_graph(n: int):
    """Paired trees over addresses of length at most n+1 with n branches.

    The unprimed tree is undirected; the primed copy points to its root only;
    every unprimed vertex crosses to its primed twin, and every non-root
    primed vertex crosses back to the unprimed parent.  The primed root has
    no outgoing edge, so the graph is strongly connected except for that one
    sink.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    coords = TreeCoords.build(n, n + 1, primed=True)
    edges = []
    for (a, p) in coords.addrs:
        if p:
            continue
        v = coords.vertex(a)
        vp = coords.vertex(a, True)
        edges.append((v, vp))
        if a:
            parent = coords.vertex(a[:-1])
            edges.append((v, parent))
            edges.append((parent, v))
            edges.append((coords.vertex(a, True), coords.vertex(a[:-1], True)))
            edges.append((vp, parent))
    g = Digraph(len(coords.addrs), edges, labels=coords.labels())
    return g, coords


class TopDownTreeCops(CopStrategy):
    """Four cops sweeping both trees level by level.

    Hold a vertex and its twin; announce the child pair on the robber's
    branch; once those land the robber is confined below them, so the held
    pair can be released monotonously and the sweep recurses.
    """

    def __init__(self, n: int):
        self.n = n
        self.g, self.coords = two_tree_graph(n)

    def init_memory(self, pos: CopTurn):
        return ("start",)

    def _branch_child(self, w, robber_vertex: int):
        addr, _primed = self.coords.address(robber_vertex)
        if len(addr) <= len(w) or addr[:len(w)] != w:
            raise InvariantViolation("sweep", f"robber at {addr} is not below the held "
                                              f"pair {w}")
        return addr[:len(w) + 1]

    def _pair(self, addr) -> int:
        """A vertex and its primed twin, as a mask."""
        return 1 << self.coords.vertex(addr) | 1 << self.coords.vertex(addr, True)

    def announce(self, memory, pos: CopTurn):
        if memory[0] == "start":
            return self._pair(()), ("hold", ())
        if memory[0] == "hold":
            w = memory[1]
            c = self._branch_child(w, pos.R.bit_length() - 1)
            return self._pair(w) | self._pair(c), ("placed", w, c)
        _, w, c = memory
        return self._pair(c), ("hold", c)


def cops_topdown_thm7(n: int) -> TopDownTreeCops:
    return TopDownTreeCops(n)


class AncestorEscapeRobber(RobberStrategy):
    """The unprimed-tree robber that beats n component-confined cops.

    Invariants after every robber move: every strict unprimed ancestor of
    the robber is occupied, and the full primed ancestor chain of its twin
    is cop-free.  A gap in the occupied ancestors is an escape hatch through
    the primed tree.
    """

    def __init__(self, n: int):
        self.n = n
        self.g, self.coords = two_tree_graph(n)
        co = self.coords
        # primed ancestor chains (including the twin itself) per unprimed address
        self._pre = {}
        self._subtree = {}
        for (a, p) in co.addrs:
            if p:
                continue
            m = 0
            for j in range(len(a) + 1):
                m |= 1 << co.vertex(a[:j], True)
            self._pre[a] = m
        for (a, p) in co.addrs:
            if p:
                continue
            m = 0
            for (b, q) in co.addrs:
                if len(b) >= len(a) and b[:len(a)] == a:
                    m |= 1 << co.vertex(b, q)
            self._subtree[a] = m

    def initial_placement(self) -> int:
        return 1 << self.coords.vertex(())

    def init_memory(self, pos: CopTurn):
        return ()

    def _assert_invariants(self, addr, S_mask: int):
        co = self.coords
        for j in range(len(addr)):
            if not (S_mask >> co.vertex(addr[:j])) & 1:
                raise InvariantViolation(
                    "occupied-ancestors", f"ancestor {addr[:j]} of {addr} is cop-free")
        if self._pre[addr] & S_mask:
            raise InvariantViolation(
                "clear-twin-chain", f"primed ancestors of {addr} carry a cop")

    def respond(self, memory, pos: RobberTurn):
        co = self.coords
        addr = memory
        if pos.R != 1 << co.vertex(addr):
            raise InvariantViolation("sweep", "memory and position disagree")
        S = pos.Uprime
        if self._pre[addr] & S:
            raise InvariantViolation(
                "clear-twin-chain",
                f"announcement touches the primed ancestors of {addr}")
        missing = [addr[:j] for j in range(len(addr))
                   if not (S >> co.vertex(addr[:j])) & 1]
        if missing:
            target = missing[0]  # closest to the root
            new = target
        elif not S & pos.R:
            new = addr
        else:
            new = None
            for j in range(1, self.n + 1):
                child = addr + (j,)
                if self._subtree[child] & S == 0:
                    new = child
                    break
            if new is None:
                raise InvariantViolation(
                    "free-subtree", f"no cop-free branch below {addr} against "
                                    f"{bin(S).count('1')} cops")
        self._assert_invariants(new, S)
        return 1 << co.vertex(new), new


def robber_thm7(n: int) -> AncestorEscapeRobber:
    return AncestorEscapeRobber(n)


# ---------------------------------------------------------------------------
# Tree/clique products

def tree_T(r: int):
    """The benchmark tree: branching ceil(r/2)+2, height r+1."""
    if r < 1:
        raise InputError("r must be at least 1")
    return full_tree((r + 1) // 2 + 2, r + 1)


def gen_grk(r: int, k: int) -> Digraph:
    """Lexicographic product of the benchmark tree with the k-clique."""
    if k < 1:
        raise InputError("k must be at least 1")
    t, _ = tree_T(r)
    return lex_product(t, clique(k))


def cops_dpw_tree(r: int, k: int):
    """Invisible-game schedule clearing the tree/clique product.

    Depth-first: hold the root block, clear each child subtree recursively,
    with at most k*(r+1) cops on the graph at any time.
    """
    t, coords = tree_T(r)
    kk = max(k, 1)

    def block(addr):
        v = coords.vertex(addr)
        return frozenset(range(v * kk, v * kk + kk))

    schedule = []

    def rec(addr, held):
        here = held | block(addr)
        schedule.append(here)
        for j in range(1, coords.branching + 1):
            child = addr + (j,)
            if (tuple(child), False) in coords.index:
                rec(child, here)

    rec((), frozenset())
    return schedule


# ---------------------------------------------------------------------------
# Corpus enumeration

def enumerate_strongly_connected(n: int):
    """All strongly connected loop-free digraphs on n vertices, one per
    isomorphism class: each class's least edge code, by ascending code.

    Bit u*(n-1) + j of a code is the edge from u to the j-th other vertex,
    so the code is n chunks of n-1 bits, chunk u holding u's out-neighbours
    and chunk n-1 the most significant.  Only chunk tuples with no empty
    chunk are tried: for n >= 2 a sink rules strong connectivity out.  A
    code is canonical when no vertex permutation maps it below itself; the
    image under a permutation is the OR of one table entry per chunk, and
    the test stops at the first permutation that maps the code lower.
    Strong connectivity is searched for canonical codes only.
    """
    if n < 1:
        raise InputError(f"n must be at least 1, not {n}")
    if n == 1:
        yield Digraph(1, [])
        return
    chunk_bits = n - 1
    # out_of[u][c]: the vertex mask of chunk c at vertex u
    out_of = [[sum(1 << (v + (v >= u)) for v in bits(c)) for c in range(1 << chunk_bits)]
              for u in range(n)]
    # per permutation, one table per vertex u: chunk c at u -> its image's code bits;
    # the identity comes first and maps no code lower
    images = [[[sum(1 << (perm[u] * chunk_bits + perm[v] - (perm[v] > perm[u]))
                    for v in bits(out_of[u][c])) for c in range(1 << chunk_bits)]
               for u in range(n)]
              for perm in itertools.islice(itertools.permutations(range(n)), 1, None)]
    for tup in itertools.product(range(1, 1 << chunk_bits), repeat=n):
        tup = tup[::-1]  # chunk 0 varies fastest: ascending codes
        code = 0
        for u in range(n):
            code |= tup[u] << (u * chunk_bits)
        for row in images:
            m = 0
            for u in range(n):
                m |= row[u][tup[u]]
            if m < code:
                break
        else:
            g = Digraph(n, [(u, v) for u, c in enumerate(tup) for v in bits(out_of[u][c])])
            if is_strongly_connected(g):
                yield g
