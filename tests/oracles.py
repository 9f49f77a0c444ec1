"""Independent brute-force oracles.

Everything here recomputes results from first principles with none of the
library's bitmask machinery, so a match is meaningful.
"""
import itertools
from collections import defaultdict


def adjacency(g):
    adj = defaultdict(set)
    for (u, v) in g.edges:
        adj[u].add(v)
    return adj


def reach_by_path_enumeration(g, X, Y):
    """All endpoints of simple paths from Y that avoid X, by enumeration."""
    adj = adjacency(g)
    X = set(X)
    found = set()

    def walk(v, seen):
        found.add(v)
        for w in adj[v]:
            if w not in X and w not in seen:
                walk(w, seen | {w})

    for y in Y:
        if y not in X:
            walk(y, {y})
    return frozenset(found)


def escapes(g, U, Up, R):
    """Where robbers at R may land after cops at U announce Up: along paths
    that avoid the cops who stay, onto vertices no announced cop holds."""
    return reach_by_path_enumeration(g, U & Up, R) - Up


def abandoned(g, U, Up, R):
    """The released cop vertices that robbers at R still reach during the
    move from U to Up; the move is monotone iff there is none."""
    return (U - Up) & reach_by_path_enumeration(g, U & Up, R)


def is_monotone(g, U, Up, R):
    return not abandoned(g, U, Up, R)


def is_isolating(g, U, R):
    """No robber of R has a path avoiding the cops U to another robber."""
    return all(not (reach_by_path_enumeration(g, U, {v}) & (R - {v})) for v in R)


def is_prudent(g, R, Up, Rp):
    """Every vertex of Rp outside R is cut off from R by the landing cops Up."""
    return not ((Rp - R) & reach_by_path_enumeration(g, Up, R))


def component(g, U, v):
    """The vertices that v reaches and that reach v back along paths that
    avoid U: v's strongly connected component in g - U (empty if v is in U)."""
    return frozenset(w for w in reach_by_path_enumeration(g, U, {v})
                     if v in reach_by_path_enumeration(g, U, {w}))


def antichain_reps(g, U, R):
    """The smallest member of each source component of R in g - U: of each
    class of mutually reachable members that no other member reaches."""
    reaches = {v: reach_by_path_enumeration(g, U, {v}) for v in R}
    classes = {frozenset(w for w in R if w in reaches[v] and v in reaches[w]) for v in R}
    return frozenset(min(c) for c in classes if not any(reaches[w] & c for w in R - c))


def induced(g, vertices):
    """The edges of g between `vertices`, each endpoint renumbered by its
    position in `vertices`."""
    position = {v: i for i, v in enumerate(vertices)}
    return frozenset((position[u], position[v]) for (u, v) in g.edges
                     if u in position and v in position)


def sccs_by_closure(g):
    """SCC partition via pairwise mutual reachability on the closure."""
    n = g.n
    adj = adjacency(g)
    closure = [set([v]) for v in range(n)]
    for v in range(n):
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in closure[v]:
                    closure[v].add(w)
                    stack.append(w)
    blocks = []
    assigned = set()
    for v in range(n):
        if v in assigned:
            continue
        block = {u for u in range(n) if u in closure[v] and v in closure[u]}
        assigned |= block
        blocks.append(frozenset(block))
    return blocks


def strongly_connected_by_brute_force(n):
    """The edge list of each strongly connected loop-free digraph on n
    vertices whose edge code is the least in its isomorphism class, by
    ascending code.  Bit i of a code is the i-th ordered pair (u, v), u != v,
    in lexicographic order; every code is tried, and each is relabelled by
    every permutation."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    position = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    for code in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if code >> i & 1]
        forward, backward = defaultdict(set), defaultdict(set)
        for (u, v) in edges:
            forward[u].add(v)
            backward[v].add(u)
        connected = True
        for adj in (forward, backward):
            seen, stack = {0}, [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            connected = connected and len(seen) == n
        if connected and all(sum(1 << position[(perm[u], perm[v])] for (u, v) in edges)
                             >= code for perm in perms):
            yield edges


def parity_cycle_blocks(nodes, succ, color, parity):
    """(c, block) for each color c of the given parity, ascending, and each
    class of nodes of color at least c that lie on a common closed walk
    through a node of color c, using only such nodes: the walk's least color
    is then c.  Closures are plain depth-first searches from each node."""
    out = []
    for c in sorted({color[v] for v in nodes if color[v] % 2 == parity}):
        sub = {v for v in nodes if color[v] >= c}
        after = {}  # v -> what v reaches in one step or more inside sub
        for v in sub:
            seen, stack = set(), [v]
            while stack:
                for w in succ(stack.pop()):
                    if w in sub and w not in seen:
                        seen.add(w)
                        stack.append(w)
            after[v] = seen
        blocks = {frozenset(u for u in after[v] if v in after[u])
                  for v in sub if color[v] == c and v in after[v]}
        out.extend((c, b) for b in sorted(blocks, key=sorted))
    return out


def _subsets(universe, kmax):
    for t in range(kmax + 1):
        for comb in itertools.combinations(sorted(universe), t):
            yield frozenset(comb)


def minimax_solve(g, k, r, max_new_cops=None):
    """Full-arena backward induction with no collapsing or pruning.

    Positions are explicit; cops win a position iff they can monotonously
    force the robber set empty.  Returns "cops" or "robbers" for the game
    from the initial placement.  With `max_new_cops`, an announcement may
    place at most that many cops that do not stand already (it may still
    release any); at 1 this is the game of the solver's one-new-cop lemma.
    """
    adj = adjacency(g)
    V = set(range(g.n))

    def nreach(X, Y):
        seen = {y for y in Y if y not in X}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in X and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    announcements = list(_subsets(V, k))
    moves = {}  # cop set -> the announcements allowed from it

    def allowed(U):
        if U not in moves:
            moves[U] = [Up for Up in announcements
                        if max_new_cops is None or len(Up - U) <= max_new_cops]
        return moves[U]

    cop_positions = set()
    robber_positions = {}
    queue = []
    for R0 in _subsets(V, r):
        if R0:
            cop_positions.add((frozenset(), R0))
            queue.append((frozenset(), R0))
    seen_cp = set(cop_positions)
    while queue:
        (U, R) = queue.pop()
        if not R:
            continue
        for Up in allowed(U):
            rp = (U, Up, R)
            if rp in robber_positions:
                continue
            monotone = not ((U - Up) & nreach(U & Up, R))
            succs = []
            if monotone:
                escapes = nreach(U & Up, R) - Up
                for R2 in _subsets(escapes, r):
                    cp = (Up, R2)
                    succs.append(cp)
                    if cp not in seen_cp:
                        seen_cp.add(cp)
                        cop_positions.add(cp)
                        queue.append(cp)
            robber_positions[rp] = (monotone, succs)
    won = {cp for cp in cop_positions if not cp[1]}
    changed = True
    while changed:
        changed = False
        for (U, R) in cop_positions:
            if (U, R) in won or not R:
                continue
            for Up in allowed(U):
                monotone, succs = robber_positions[(U, Up, R)]
                if monotone and all(s in won for s in succs):
                    won.add((U, R))
                    changed = True
                    break
    start_ok = all((frozenset(), R0) in won
                   for R0 in _subsets(V, r) if R0)
    return "cops" if start_ok else "robbers"


def invisible_clears(g, k):
    """Can k cops monotonously clear g against an invisible robber?

    Plays the full clearing game by breadth-first search over states
    (cop set, contaminated set), trying every announcement of at most k
    vertices: contamination spreads from the contaminated set along paths
    that avoid the cops who stay, an announcement that lifts a cop the
    spread reaches is non-monotone, and the announced cops are clean after.
    """
    adj = adjacency(g)
    V = frozenset(range(g.n))

    def spread(S, X):
        seen = set(S) - X
        stack = list(seen)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in X and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    announcements = list(_subsets(V, k))
    start = (frozenset(), V)
    seen = {start}
    queue = [start]
    while queue:
        U, S = queue.pop(0)
        if not S:
            return True
        for Up in announcements:
            contaminated = spread(S, U & Up)
            if (U - Up) & contaminated:
                continue
            nxt = (Up, contaminated - Up)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def validate_cop_lines(g, k, r, init_memory, announce, update):
    """Play a cop strategy against every robber line, building every robber
    reply of every state anew.

    A state is (memory, U, R) on vertex sets.  `init_memory(R0)`,
    `announce(memory, U, R) -> (U', memory)`, raising KeyError at a hole, and
    `update(memory, U', R')` are the strategy.  States are visited depth
    first, robber sets smallest first in lexicographic order; a state is
    expanded once, and one met again on the current path is an infinite
    play.  Returns (verdict or None, states expanded, largest announcement,
    path to the failure or None).
    """
    largest = 0

    def successors(state):
        nonlocal largest
        memory, U, R = state
        try:
            Up, memory = announce(memory, U, R)
        except KeyError:
            return "strategy hole"
        if len(Up) > k:
            return f"announcement too large ({len(Up)} > {k})"
        largest = max(largest, len(Up))
        if not is_monotone(g, U, Up, R):
            return "non-monotone announcement"
        return iter([(update(memory, Up, R2), Up, R2)
                     for R2 in _subsets(escapes(g, U, Up, R), r) if R2])

    on_path, done, path = set(), set(), []
    frames = [iter([(init_memory(R0), frozenset(), R0)
                    for R0 in _subsets(range(g.n), r) if R0])]
    expanded = 0
    while frames:
        state = next(frames[-1], None)
        if state is None:
            frames.pop()
            if path:
                finished = path.pop()
                on_path.discard(finished)
                done.add(finished)
            continue
        if state in on_path:
            return "infinite play", expanded, largest, path + [state]
        if state in done:
            continue
        got = successors(state)
        path.append(state)
        if isinstance(got, str):
            return got, expanded, largest, path
        expanded += 1
        on_path.add(state)
        frames.append(got)
    return None, expanded, largest, None
