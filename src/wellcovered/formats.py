"""Graph serialization: graph6 strings and a plain edge-list text format.

graph6 follows the standard encoding (6-bit groups offset by 63, upper
triangle read column by column); the optional ``>>graph6<<`` header is
accepted on input and never emitted.  The edge-list format is a first line
``n m`` followed by ``m`` lines ``u v`` with 0-based vertex ids.
"""

from __future__ import annotations

from .graphs import Graph, from_edge_list

_HEADER = ">>graph6<<"


def _triangle_pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header, no newline)."""
    n = g.n
    if n <= 62:
        out = [chr(63 + n)]
    else:  # Graph caps n at 64, well inside the 4-byte form's 258047
        out = [chr(126), chr(63 + (n >> 12 & 63)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    group = 0
    width = 0
    for i, j in _triangle_pairs(n):
        group = group << 1 | (g.adj[j] >> i & 1)
        width += 1
        if width == 6:
            out.append(chr(63 + group))
            group = 0
            width = 0
    if width:
        out.append(chr(63 + (group << 6 - width)))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; tolerates the standard header and whitespace."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].strip()
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("graph6 string contains bytes outside 63..126")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ValueError(f"graph6 body too short for n={n}")
    if len(body) > need:
        raise ValueError(f"graph6 body too long for n={n}")
    edges = []
    pos = 0
    for i, j in _triangle_pairs(n):
        if body[pos // 6] >> 5 - pos % 6 & 1:
            edges.append((i, j))
        pos += 1
    return from_edge_list(n, edges)


def load_graph_text(text: str) -> Graph:
    """Parse either format, deciding by the first data line.  graph6 bytes
    are 63..126, so a line that holds whitespace or starts with a digit or
    ``-`` is no graph6 string: it must be an edge-list header ``n m``.  A
    line that starts with the ``>>graph6<<`` header is graph6 whatever
    follows.  graph6 input holds one graph: more data lines are an error,
    as extra lines are in an edge list."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no graph data found in input")
    head = lines[0]
    if head.startswith(_HEADER) or not (head[0] in "-0123456789" or len(head.split()) > 1):
        if len(lines) > 1:
            raise ValueError(f"graph6 input holds {len(lines)} data lines; expected one graph")
        return from_graph6(head)
    try:
        n, m = map(int, head.split())
    except ValueError:
        raise ValueError(
            f"bad edge-list header {head!r}: expected 'n m', the vertex and edge counts"
        ) from None
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges)
