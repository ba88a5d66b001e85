"""graph6 codec, a plain edge-list text format, and a named-graph catalog.

graph6 follows the standard encoding exactly: upper-triangle bits in column
order, packed big-endian into 6-bit groups offset by 63, with the 4-byte
vertex-count form for n >= 63.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, make_graph

GRAPH6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for pos in range(0, len(bits), 6):
        val = 0
        for b in bits[pos : pos + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if any(not 63 <= ord(ch) <= 126 for ch in s):
        raise GraphFormatError("graph6 characters must be in the range 63..126")
    if s[0] == "~":
        if len(s) < 4:
            raise GraphFormatError("truncated graph6 vertex count")
        if s[1] == "~":
            raise GraphFormatError("graph6 8-byte counts exceed the 64-vertex cap")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise GraphFormatError(
            f"graph6 body has {len(body)} characters, expected {expected} for n={n}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphFormatError("nonzero padding bits in graph6 body")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return make_graph(n, edges)


def graph_to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_from_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge list")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"first line must be the vertex count: {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise GraphFormatError(f"edge line must be 'u v': {ln!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer endpoint in {ln!r}") from exc
        edges.append((u, v))
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def named_graph(name: str) -> Graph:
    """Catalog lookup: complete graphs K2..K9, cycles C3..C9, paths P2..P9."""
    s = name.strip().upper()
    if len(s) >= 2 and s[0] in "KCP" and s[1:].isdecimal():
        m = int(s[1:])
        if s[0] == "K" and 2 <= m <= 9:
            return make_graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])
        if s[0] == "C" and 3 <= m <= 9:
            return make_graph(m, [(i, (i + 1) % m) for i in range(m)])
        if s[0] == "P" and 2 <= m <= 9:
            return make_graph(m, [(i, i + 1) for i in range(m - 1)])
    raise GraphFormatError(f"unknown graph name {name!r} (try K3..K9, C3..C9, P2..P9)")


def parse_graph_argument(text: str) -> Graph:
    """Interpret ``text`` as a catalog name first, then as graph6."""
    try:
        return named_graph(text)
    except GraphFormatError:
        return graph_from_graph6(text)
