"""Independent oracle for the benchmark's output checks.

Nothing here imports ``wellcovered``: graphs are plain tuples of adjacency
masks (bit u of ``adj[v]`` set iff uv is an edge), decoded from graph6 or
built by this file, so a defect in the package cannot hide in its own
checker.  Exact answers come from an include/exclude enumerator that is only
used up to ``EXACT_LIMIT`` vertices; larger products are checked through
their witnesses, the trivial product bounds and the closed forms of the
families the paper names.
"""

from __future__ import annotations

EXACT_LIMIT = 18


# --- graphs as adjacency tuples -------------------------------------------

def graph6_decode(text: str) -> tuple[int, ...]:
    data = [ord(c) - 63 for c in text.strip()]
    n, body = data[0], data[1:]
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if body[pos // 6] >> (5 - pos % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return tuple(adj)


def graph6_encode(adj: tuple[int, ...]) -> str:
    n = len(adj)
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(out)


def from_edges(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def complete(n: int) -> tuple[int, ...]:
    return tuple(((1 << n) - 1) & ~(1 << v) for v in range(n))


def cycle(n: int) -> tuple[int, ...]:
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> tuple[int, ...]:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def h_family(k: int, n: int) -> tuple[int, ...]:
    """Clique on k blocks of n vertices, plus one vertex per block joined to it."""
    kn = k * n
    edges = [(u, v) for u in range(kn) for v in range(u + 1, kn)]
    edges += [(kn + i, i * n + j) for i in range(k) for j in range(n)]
    return from_edges(k * (n + 1), edges)


def product(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """Direct product on index (a, b) -> a*|H| + b."""
    nh = len(h)
    adj = []
    for a in range(len(g)):
        for b in range(nh):
            row = 0
            for a2 in range(len(g)):
                if g[a] >> a2 & 1:
                    for b2 in range(nh):
                        if h[b] >> b2 & 1:
                            row |= 1 << (a2 * nh + b2)
            adj.append(row)
    return tuple(adj)


def is_connected(adj: tuple[int, ...]) -> bool:
    if not adj:
        return True
    seen, todo = 1, [0]
    while todo:
        v = todo.pop()
        for u in range(len(adj)):
            if adj[v] >> u & 1 and not seen >> u & 1:
                seen |= 1 << u
                todo.append(u)
    return seen == (1 << len(adj)) - 1


def is_bipartite(adj: tuple[int, ...]) -> bool:
    color: dict[int, int] = {}
    for s in range(len(adj)):
        if s in color:
            continue
        color[s] = 0
        todo = [s]
        while todo:
            v = todo.pop()
            for u in range(len(adj)):
                if adj[v] >> u & 1:
                    if u not in color:
                        color[u] = 1 - color[v]
                        todo.append(u)
                    elif color[u] == color[v]:
                        return False
    return True


def girth(adj: tuple[int, ...]):
    """Shortest cycle length by BFS from every vertex, or None when acyclic."""
    n = len(adj)
    best = None
    for s in range(n):
        dist, parent, queue = {s: 0}, {s: -1}, [s]
        for v in queue:
            for u in range(n):
                if not adj[v] >> u & 1:
                    continue
                if u not in dist:
                    dist[u], parent[u] = dist[v] + 1, v
                    queue.append(u)
                elif parent[v] != u:
                    length = dist[u] + dist[v] + 1
                    if best is None or length < best:
                        best = length
    return best


def regular_degree(adj: tuple[int, ...]):
    degrees = {row.bit_count() for row in adj}
    if not adj:
        return 0
    return degrees.pop() if len(degrees) == 1 else None


# --- independent sets ------------------------------------------------------

def is_independent(adj: tuple[int, ...], s: int) -> bool:
    return all(not (s >> v & 1 and adj[v] & s) for v in range(len(adj)))


def is_maximal_independent(adj: tuple[int, ...], s: int) -> bool:
    if not is_independent(adj, s):
        return False
    return all(s >> v & 1 or adj[v] & s for v in range(len(adj)))


def maximal_independent_sets(adj: tuple[int, ...]) -> list[int]:
    """Every maximal independent set, by deciding vertices in index order.

    A vertex left out must end up with a neighbour in the set; the branch
    dies as soon as a left-out vertex has no chosen neighbour and no later
    neighbour that could still be chosen.
    """
    n = len(adj)
    if n > EXACT_LIMIT:
        raise ValueError(f"exact enumeration is limited to {EXACT_LIMIT} vertices")
    out: list[int] = []

    def rec(v: int, s: int, covered: int, pending: int) -> None:
        # pending: left-out vertices not yet adjacent to the set
        later = ~((1 << v) - 1)
        m = pending
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if not adj[u] & later & ~covered:
                return
        if v == n:
            if not pending:
                out.append(s)
            return
        bit = 1 << v
        if not covered & bit:
            rec(v + 1, s | bit, covered | adj[v] | bit, pending & ~adj[v])
        rec(v + 1, s, covered, pending | bit if not covered & bit else pending)

    rec(0, 0, 0, 0)
    return out


def summary(adj: tuple[int, ...]) -> tuple[int, int, int]:
    """(i, alpha, number of maximal independent sets)."""
    sizes = [s.bit_count() for s in maximal_independent_sets(adj)]
    return min(sizes), max(sizes), len(sizes)


def set_digest(masks) -> tuple[int, int, int]:
    """Order-free fingerprint of a collection of distinct masks."""
    return len(masks), sum(masks), sum(m * m for m in masks)


def isolatable(adj: tuple[int, ...]) -> list[int]:
    """Vertices x with an independent I outside N[x] whose neighbourhood covers N(x)."""
    n = len(adj)
    indep = [s for s in range(1 << n) if is_independent(adj, s)]
    out = []
    for x in range(n):
        closed = adj[x] | 1 << x
        for s in indep:
            if s & closed:
                continue
            cover = 0
            for v in range(n):
                if s >> v & 1:
                    cover |= adj[v]
            if adj[x] & ~cover == 0:
                out.append(x)
                break
    return out


# --- checks ----------------------------------------------------------------

class Failures:
    """Collects what one item's output got wrong."""

    def __init__(self) -> None:
        self.reasons: list[str] = []

    def expect(self, ok: bool, reason: str) -> None:
        if not ok:
            self.reasons.append(reason)


def check_witnesses(f: Failures, adj, i: int, alpha: int, wit_min: int, wit_max: int) -> None:
    f.expect(is_maximal_independent(adj, wit_min), "i witness is not maximal independent")
    f.expect(is_maximal_independent(adj, wit_max), "alpha witness is not maximal independent")
    f.expect(wit_min.bit_count() == i, "i witness size differs from i")
    f.expect(wit_max.bit_count() == alpha, "alpha witness size differs from alpha")
    f.expect(i <= alpha, "i exceeds alpha")


def factor_values(adj, kind: str) -> tuple[int, int]:
    """(i, alpha) of a factor, by closed form where its family has one."""
    n = len(adj)
    if kind == "complete":
        return 1, 1
    if kind == "cycle":
        return -(-n // 3), n // 2
    if kind == "path":
        return -(-n // 3), -(-n // 2)
    i, a, _ = summary(adj)
    return i, a


def check_product_values(f: Failures, g, h, i: int, alpha: int, kinds=("graph", "graph")) -> None:
    """Exact values up to EXACT_LIMIT vertices; beyond that, the closed forms
    of the named families and the bounds every direct product satisfies."""
    if len(g) * len(h) <= EXACT_LIMIT:
        ei, ea, _ = summary(product(g, h))
        f.expect((i, alpha) == (ei, ea), f"(i, alpha) = {(i, alpha)}, exact {(ei, ea)}")
        return
    if kinds == ("h", "complete"):
        # H(k, m) x K_{m+1} is well-covered with i = alpha = k(m+1) = |H(k, m)|
        f.expect(i == alpha == len(g), f"H-family product (i, alpha) = {(i, alpha)}, expected {len(g)}")
        return
    gi, ga = factor_values(g, kinds[0])
    hi, ha = factor_values(h, kinds[1])
    lower = max(ga * len(h), ha * len(g))
    if set(kinds) <= {"cycle", "complete"}:
        # vertex-transitive factors: alpha meets the lower bound (Zhang 2012)
        f.expect(alpha == lower, f"alpha {alpha}, closed form {lower}")
    else:
        f.expect(alpha >= lower, f"alpha {alpha} below the product lower bound {lower}")
    if all(g) and all(h):
        # lifting a maximal independent set of one factor stays maximal
        upper = min(gi * len(h), hi * len(g))
        f.expect(i <= upper, f"i {i} above the product upper bound {upper}")


def check_partition(f: Failures, g, n: int, weight: int, v0: int, classes, bracket: int) -> None:
    """A weak partition of G must encode a maximal independent set of G x K_n
    whose size is the stated weight."""
    parts = [v0, *classes, bracket]
    union = 0
    for p in parts:
        f.expect(not union & p, "partition parts overlap")
        union |= p
    f.expect(union == (1 << len(g)) - 1, "partition does not cover G")
    s = 0
    for v in range(len(g)):
        if bracket >> v & 1:
            s |= ((1 << n) - 1) << v * n
    for k, vk in enumerate(classes):
        for v in range(len(g)):
            if vk >> v & 1:
                s |= 1 << (v * n + k)
    f.expect(is_maximal_independent(product(g, complete(n)), s), "partition set is not maximal independent")
    f.expect(s.bit_count() == weight, f"partition set has {s.bit_count()} vertices, stated {weight}")
