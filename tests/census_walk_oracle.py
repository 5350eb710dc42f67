"""Recursive restricted-growth-string walk: the reference for the census DP.

The walk labels the edges in the graph's lexicographic order, a new block
taking the next unused label, and visits every node of that tree: a node with
nb blocks in use tries nb + [nb < t_max] labels, and a child dies as soon as
some k-clique would show s distinct labels.  Each leaf adds one to a_t, t its
number of blocks.  rtlab counts the set partitions of the edges by a
frontier DP, in an edge order of its choosing, without visiting the tree's
nodes; the tests hold the coefficients of the two equal.  The walk's node
count is its own unit: the DP's budget counts its states.
"""

from rtlab.errors import ResourceLimitError
from rtlab.graphs import k_cliques


def walk_census(g, k: int, s: int, t_max: int, node_budget: int):
    """(coefficients {t: a_t}, nodes visited), raising ResourceLimitError when
    the node count passes node_budget."""
    m = g.m
    cliques = [mask for _, mask in k_cliques(g, k)]
    cliques_of = [[c for c, mask in enumerate(cliques) if mask >> e & 1] for e in range(m)]
    held = [0] * len(cliques)    # label bitmask of each clique
    count = [0] * len(cliques)   # and its number of labels
    cap = s - 1
    coeffs = [0] * (t_max + 1)
    nodes = 0

    def rec(e, nb):
        nonlocal nodes
        if e == m:
            coeffs[nb] += 1
            return
        for b in range(nb + 1 if nb < t_max else t_max):
            nodes += 1
            bit = 1 << b
            gained = []
            for c in cliques_of[e]:
                if not held[c] & bit:
                    if count[c] >= cap:
                        break
                    gained.append(c)
            else:
                for c in gained:
                    held[c] |= bit
                    count[c] += 1
                rec(e + 1, nb + (b == nb))
                for c in gained:
                    held[c] &= ~bit
                    count[c] -= 1
        if nodes > node_budget:
            raise ResourceLimitError(f"census node budget {node_budget} exceeded")

    rec(0, 0)
    return {t: a for t, a in enumerate(coeffs) if a}, nodes
