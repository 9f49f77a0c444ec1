"""Directed graphs on dense integer vertices.

Vertices are 0..n-1.  Edges form a set of ordered pairs (no duplicates,
self-loops allowed).  Inside the library a vertex set is an integer bit mask
(bit v set iff v is in the set): game positions, strategy moves, the
multiplier's memory and every solver state, so they hash and compare
cheaply.  Vertex sets are frozensets only where they cross the library's
boundary:

- `PositionalCopStrategy`'s constructor and `items()`;
- `solve_invisible`'s schedule and `validate_invisible_schedule`;
- `reach_excluding` and `Digraph.successors`;
- the knowledge sets of a parity game's knowledge arena, which the lifted
  cop strategy turns into masks once;

and JSON output (traces, memories, report witnesses) writes sorted vertex
lists.  `_check_vertices` (which rejects vertices out of range) and
`set_from` convert at those boundaries.

`reach_mask` answers the package's reachability questions, strongly
connected components included: a forward search, then a backward search
inside what it reached (Fleischer, Hendrickson & Pinar, 2000).  Every
closure over a vertex set is one call too; a backward closure passes
predecessor masks.  One search runs inline instead: the visible solver's
forward search for a robber turn's regions (`_escape_unions` in `arena`),
which also collects each region's out-set as it goes.
Searches over game states, which are not vertices, run on `arena.explore`.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError


def bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def set_from(mask: int) -> frozenset:
    return frozenset(bits(mask))


class Digraph:
    """Immutable digraph with precomputed successor and predecessor masks."""

    __slots__ = ("n", "edges", "labels", "out_masks", "in_masks", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple], labels: Optional[Sequence[str]] = None):
        n = int(n)
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        es = set()
        out = [0] * n
        inn = [0] * n
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            es.add((u, v))
            out[u] |= 1 << v
            inn[v] |= 1 << u
        self.n = n
        self.edges = frozenset(es)
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError("labels must cover every vertex")
        self.labels = labels
        self._hash = hash((n, self.edges))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def successors(self, v: int) -> frozenset:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range")
        return set_from(self.out_masks[v])

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)

    def __eq__(self, other):
        return (isinstance(other, Digraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Digraph(n={self.n}, m={len(self.edges)})"


def out_of(out_masks: Sequence[int], vertices: int) -> int:
    """Union of the successor masks of the given vertices."""
    m = 0
    for v in bits(vertices):
        m |= out_masks[v]
    return m


def reach_mask(out_masks: Sequence[int], sources: int, blocked: int) -> int:
    """Vertices reachable from `sources` along paths avoiding `blocked`.

    Reflexive: every unblocked source is included; blocked sources are not.
    """
    seen = sources & ~blocked
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= out_masks[b.bit_length() - 1]
            m ^= b
        frontier = nxt & ~blocked & ~seen
        seen |= frontier
    return seen


def _check_vertices(vs, name: str, n: Optional[int] = None) -> int:
    """The mask of `vs`; InputError for a vertex outside 0..n-1 (or below 0)."""
    m = 0
    for v in vs:
        v = int(v)
        if v < 0 or n is not None and v >= n:
            raise InputError(f"vertex {v} in {name} out of range"
                             + ("" if n is None else f" for n={n}"))
        m |= 1 << v
    return m


def reach_excluding(g: Digraph, X, Y) -> frozenset:
    """All vertices reachable from some y in Y along a path disjoint from X."""
    xm = _check_vertices(X, "X", g.n)
    ym = _check_vertices(Y, "Y", g.n)
    return set_from(reach_mask(g.out_masks, ym, xm))


def region_table(out_masks: Sequence[int], n: int, blocked: int = 0):
    """Per-vertex reachability regions in the subgraph avoiding `blocked`.

    Returns (region, comp) lists: region[v] is the bitmask of everything v
    reaches (including itself), comp[v] its SCC bitmask, the members of
    region[v] whose own region holds v; both 0 for blocked v.  One
    `reach_mask` per vertex: a reference table for tests and tracing.
    """
    region = [0 if (blocked >> v) & 1 else reach_mask(out_masks, 1 << v, blocked)
              for v in range(n)]
    comp = [sum(1 << w for w in bits(region[v]) if (region[w] >> v) & 1) for v in range(n)]
    return region, comp


def symmetric_closure(g: Digraph) -> Digraph:
    es = set(g.edges)
    es.update((v, u) for (u, v) in g.edges)
    return Digraph(g.n, es, labels=g.labels)


def induced(g: Digraph, vertices) -> Digraph:
    """The subgraph of g induced by `vertices`, renumbered in their order:
    vertex i is the i-th of `vertices`, and keeps its label."""
    vs = [int(v) for v in vertices]
    keep = _check_vertices(vs, "the induced vertex set", g.n)
    if keep.bit_count() != len(vs):
        raise InputError("the induced vertex set repeats a vertex")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(i, index[w]) for i, v in enumerate(vs) for w in bits(g.out_masks[v] & keep)]
    labels = None if g.labels is None else [g.labels[v] for v in vs]
    return Digraph(len(vs), edges, labels)


def is_strongly_connected(g: Digraph) -> bool:
    if g.n <= 1:
        return True
    full = g.full_mask
    return reach_mask(g.out_masks, 1, 0) == full and reach_mask(g.in_masks, 1, 0) == full


def _read_lines(text: str):
    """(line number, tokens) of each line of `text` that holds more than a
    `#` comment: the line reader of every text format."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _ints(lineno: int, tokens, what: str) -> list:
    """`tokens` as integers, or an InputError naming line `lineno`: `what`."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InputError(f"line {lineno}: {what}") from None


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format.

    First non-comment line is the vertex count; each following line is one
    edge "u v".  `#` starts a comment, blank lines are ignored.
    """
    n = None
    edges = []
    for lineno, parts in _read_lines(text):
        if n is None:
            if len(parts) != 1:
                raise InputError(f"line {lineno}: expected vertex count, got {' '.join(parts)!r}")
            (n,) = _ints(lineno, parts, "vertex count is not an integer")
            if n < 0:
                raise InputError(f"line {lineno}: vertex count must be nonnegative")
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected edge 'u v', got {' '.join(parts)!r}")
        u, v = _ints(lineno, parts, "edge endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if n is None:
        raise InputError("empty edge-list input")
    return Digraph(n, edges)


def emit_edge_list(g: Digraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for (u, v) in sorted(g.edges))
    return "\n".join(lines) + "\n"


def emit_dot(g: Digraph) -> str:
    out = ["digraph g {"]
    for v in range(g.n):
        out.append(f'  {v} [label="{g.label(v)}"];')
    for (u, v) in sorted(g.edges):
        out.append(f"  {u} -> {v};")
    out.append("}")
    return "\n".join(out) + "\n"
