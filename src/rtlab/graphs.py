"""Small-graph representation, graph6 I/O, generators, cliques, partitions.

Graphs live on vertices 0..n-1 with n <= 64, adjacency held as per-vertex
bitsets (Python ints) and an indexed edge list in lexicographic order.
Cliques are listed two ways, every clique of k vertices (k_cliques) or the
maximal cliques of at least a given size (maximal_cliques), and their edge
masks index that list.  The census may count in another edge order, but its
results, and the cache entries keyed by graph6, do not depend on the order.
"""

from __future__ import annotations

from math import comb

from .errors import ContractViolationError, ResourceLimitError

MAX_VERTICES = 64
MASK_BITS = 128   # clique edge masks must fit this many edge slots
DEFAULT_PARTITION_BUDGET = 16   # exact max-cut search cap, in vertices


class GraphFormatError(ValueError):
    """Malformed graph6 text; .offset is the byte position of the problem."""

    def __init__(self, message, offset=0):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class Graph:
    """Immutable simple undirected graph with an indexed edge list."""

    __slots__ = ("n", "edges", "adj", "_index", "_graph6")

    def __init__(self, n: int, edges=()):
        if not 1 <= n <= MAX_VERTICES:
            raise ContractViolationError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")
        seen = set()
        norm = []
        for u, v in edges:
            if u == v:
                raise ContractViolationError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolationError(f"edge ({u},{v}) out of range for n = {n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ContractViolationError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(norm)})
        object.__setattr__(self, "_graph6", None)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int:
        return self._index[(u, v) if u < v else (v, u)]

    @property
    def graph6(self) -> str:
        """The graph6 text, written on first use and kept."""
        if self._graph6 is None:
            object.__setattr__(self, "_graph6", write_graph6(self))
        return self._graph6

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, graph6={self.graph6!r})"

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))


# -- graph6 -------------------------------------------------------------------

def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> sh & 63)) for sh in (12, 6, 0))
    bits = []
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            bits.append(col >> u & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        body.append(chr(63 + val))
    return head + "".join(body)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string", 0)

    def val(i):
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise GraphFormatError(f"character {s[i]!r} outside graph6 range", i)
        return c - 63

    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("vertex counts beyond 18 bits not supported", 1)
        if len(s) < 4:
            raise GraphFormatError("truncated long-form header", len(s))
        n = val(1) << 12 | val(2) << 6 | val(3)
        pos = 4
    else:
        n = val(0)
        pos = 1
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside [1, {MAX_VERTICES}]", 0)

    nbits = comb(n, 2)
    nchars = (nbits + 5) // 6
    if len(s) - pos != nchars:
        raise GraphFormatError(
            f"body has {len(s) - pos} characters, expected {nchars} for n = {n}",
            min(len(s), pos + nchars))
    bits = []
    for i in range(pos, len(s)):
        v = val(i)
        bits.extend((v >> sh & 1) for sh in (5, 4, 3, 2, 1, 0))
    for j in range(nbits, len(bits)):
        if bits[j]:
            raise GraphFormatError("nonzero padding bits", pos + j // 6)

    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def read_graph6_file(path) -> list[Graph]:
    """One graph per non-empty line; text that is not ASCII is a GraphFormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: non-ASCII byte in graph6 text", exc.start) from None
    return [parse_graph6(line) for line in map(str.strip, lines) if line]


# -- generators ---------------------------------------------------------------

def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for v in range(n) for u in range(v)])


def complete_multipartite(part_sizes) -> Graph:
    """Vertices grouped consecutively by part; edges join distinct parts."""
    sizes = [int(x) for x in part_sizes]
    if any(x < 1 for x in sizes):
        raise ContractViolationError(f"part sizes must be positive, got {sizes}")
    n = sum(sizes)
    part_of = []
    for p, size in enumerate(sizes):
        part_of.extend([p] * size)
    edges = [(u, v) for v in range(n) for u in range(v) if part_of[u] != part_of[v]]
    return Graph(n, edges)


def turan_graph(n: int, k: int) -> Graph:
    """Balanced complete (k-1)-partite graph, larger parts first."""
    if k < 2 or n < 1:
        raise ContractViolationError(f"turan_graph needs n >= 1, k >= 2, got {(n, k)}")
    q, r = divmod(n, k - 1)
    sizes = [q + 1] * r + [q] * (k - 1 - r)
    return complete_multipartite([x for x in sizes if x > 0])


# -- cliques --------------------------------------------------------------------

def k_cliques(g: Graph, k: int):
    """All k-vertex cliques as (vertex tuple, edge-index bitmask), lex order.

    Tolerates k > n (returns no cliques), since callers probe arbitrary
    (graph, k) pairs.  A graph of more than MASK_BITS edges is refused at its
    first k-clique, so one with none still reports that it has none.
    """
    if k < 2:
        raise ContractViolationError(f"k_cliques needs k >= 2, got {k}")
    if k > g.n:
        return []
    adj = g.adj
    out = []
    clique = []

    def extend(cand: int, emask: int):
        if len(clique) == k:
            if g.m > MASK_BITS:
                raise ResourceLimitError(
                    f"graph has {g.m} edges; clique edge masks capped at {MASK_BITS}")
            out.append((tuple(clique), emask))
            return
        # not enough vertices left to finish the clique
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if len(clique) + 1 + cand.bit_count() < k:
                break
            add = emask
            for u in clique:
                add |= 1 << g.edge_index(u, v)
            clique.append(v)
            extend(cand & adj[v], add)
            clique.pop()

    extend((1 << g.n) - 1, 0)
    return out


def maximal_cliques(g: Graph, min_size: int):
    """The maximal cliques of at least min_size vertices as (vertex tuple,
    edge-index bitmask), in lexicographic order like k_cliques.

    Bron-Kerbosch over vertex bitsets, pivoting on the vertex with the most
    candidates among its neighbours, and cut where the clique and its
    candidates together fall short of min_size.  Only vertices of degree at
    least min_size - 1 are candidates: no other one lies in, or extends, a
    clique of min_size vertices.  A graph of more than MASK_BITS edges is
    refused at its first such clique, as in k_cliques.
    """
    if min_size < 1:
        raise ContractViolationError(f"maximal_cliques needs min_size >= 1, got {min_size}")
    adj = g.adj
    start = 0
    for v in range(g.n):
        if adj[v].bit_count() >= min_size - 1:
            start |= 1 << v
    if start.bit_count() < min_size:
        return []
    found = []

    def expand(clique: int, size: int, cand: int, done: int):
        if size + cand.bit_count() < min_size:
            return
        if not cand:
            if not done:
                if g.m > MASK_BITS:
                    raise ResourceLimitError(
                        f"graph has {g.m} edges; clique edge masks capped at {MASK_BITS}")
                found.append(clique)
            return
        pivot, most, rest = 0, -1, cand | done
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            held = (cand & adj[u]).bit_count()
            if held > most:
                pivot, most = u, held
        skip = cand & ~adj[pivot]
        while skip:
            v = (skip & -skip).bit_length() - 1
            skip &= skip - 1
            expand(clique | 1 << v, size + 1, cand & adj[v], done & adj[v])
            cand &= ~(1 << v)
            done |= 1 << v

    expand(0, 0, start, 0)
    out = []
    for clique in found:
        verts = [v for v in range(g.n) if clique >> v & 1]
        out.append((tuple(verts), sum(1 << g.edge_index(u, v)
                                      for i, v in enumerate(verts) for u in verts[:i])))
    out.sort()
    return out


# -- exact maximum l-partite subgraph ----------------------------------------------

def max_lpartite(g: Graph, parts: int, vertex_budget: int = DEFAULT_PARTITION_BUDGET):
    """Partition into at most `parts` classes maximizing cross edges, exactly.

    Exhaustive over labelings with class labels in first-use order (which
    fixes vertex 0 in class 0), pruned by the best-possible completion
    bound.  Returns (labels, cross_edge_count), where labels[v] is the class
    of vertex v; the minimum number of internal edges is g.m minus the count.
    """
    if parts < 1:
        raise ContractViolationError(f"need at least one class, got {parts}")
    n = g.n
    if n > vertex_budget:
        raise ResourceLimitError(
            f"exact partition search capped at {vertex_budget} vertices, got {n}")
    m = g.m
    adj = g.adj
    # undecided[v]: edges not yet inside the assigned prefix 0..v-1, i.e.
    # with their larger endpoint >= v
    undecided = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        undecided[v] = undecided[v + 1] + (adj[v] & ((1 << v) - 1)).bit_count()

    labels = [0] * n
    best = [-1, None]
    class_masks = [0] * min(parts, n)

    def assign(v: int, cross: int, used: int):
        if v == n:
            if cross > best[0]:
                best[0] = cross
                best[1] = tuple(labels)
            return
        if cross + undecided[v] <= best[0]:
            return
        below = adj[v] & ((1 << v) - 1)
        deg_assigned = below.bit_count()
        for c in range(min(used + 1, parts)):
            gain = deg_assigned - (below & class_masks[c]).bit_count()
            labels[v] = c
            class_masks[c] |= 1 << v
            assign(v + 1, cross + gain, max(used, c + 1))
            class_masks[c] &= ~(1 << v)

    assign(0, 0, 0)
    return best[1], best[0]
