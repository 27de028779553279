"""The graph questions every engine reduces to, answered once each.

- :func:`tarjan_sccs`: strongly connected components in reverse
  topological order;
- :func:`sccs_topological`: the same components in deterministic
  topological order (hierarchy levels);
- :func:`accepting_cycle`: does a component hold a cycle through a final
  node (NBA lasso membership, trimming, safety closure);
- :func:`reaching`: which marked components each node reaches, one bit per
  kind of mark, by one forward scan of Tarjan's emission order (the bottom
  components of a lasso chain and the nodes that reach each kind, the
  states that reach an accepting cycle);
- :func:`lasso_product`: the reachable (state, cycle position) graph of a
  lasso's cycle, which exact lasso acceptance weighs with probabilities and
  NBA lasso membership searches for accepting cycles.

Tarjan's algorithm is written iteratively (explicit recursion stack) so deep
chains cannot hit Python's recursion limit.
"""

from __future__ import annotations

import heapq
from typing import Callable, Container, Hashable, Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)
W = TypeVar("W")

__all__ = ["tarjan_sccs", "sccs_topological", "accepting_cycle", "reaching",
           "lasso_product"]


def tarjan_sccs(
    nodes: Sequence[N], adjacency: Mapping[N, Sequence[N]]
) -> list[list[N]]:
    """Strongly connected components, emitted in reverse topological order."""
    indices: dict[N, int] = {}
    lowlinks: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    counter = 0
    sccs: list[list[N]] = []

    for root in nodes:
        if root in indices:
            continue
        work: list[tuple[N, int]] = [(root, 0)]
        while work:
            v, succ_i = work.pop()
            if succ_i == 0:
                indices[v] = lowlinks[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            succs = adjacency.get(v, ())
            for i in range(succ_i, len(succs)):
                w = succs[i]
                if w not in indices:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    lowlinks[v] = min(lowlinks[v], indices[w])
            if recurse:
                continue
            if lowlinks[v] == indices[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[v])
    return sccs


def sccs_topological(
    nodes: Sequence[N], adjacency: Mapping[N, Sequence[N]], order: Mapping[N, int]
) -> list[list[N]]:
    """SCCs sorted topologically, ties broken by smallest member ``order``.

    Kahn's algorithm on the condensation with its ready set in a heap keyed
    by smallest member ``order``, which makes the numbering deterministic.
    """
    comps = tarjan_sccs(nodes, adjacency)
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    succs: list[set[int]] = [set() for _ in comps]
    indeg = [0] * len(comps)
    for n in nodes:
        for m in adjacency.get(n, ()):
            ci, cj = comp_of[n], comp_of[m]
            if ci != cj and cj not in succs[ci]:
                succs[ci].add(cj)
                indeg[cj] += 1
    # (smallest member order, component): the keys are unique, so the heap
    # pops the components in the order a sorted ready list would
    key = [min(order[n] for n in comp) for comp in comps]
    ready = [(key[i], i) for i in range(len(comps)) if indeg[i] == 0]
    heapq.heapify(ready)
    out: list[list[N]] = []
    while ready:
        _, i = heapq.heappop(ready)
        out.append(sorted(comps[i], key=lambda n: order[n]))
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (key[j], j))
    return out


def accepting_cycle(
    comp: Sequence[N], adjacency: Mapping[N, Sequence[N]], final: Container[N]
) -> bool:
    """Does component ``comp`` hold a cycle through a node of ``final``?

    A component holds a cycle when it has two or more nodes or a self-loop;
    a run that reaches one can then visit a final node infinitely often.
    """
    has_cycle = len(comp) > 1 or comp[0] in adjacency.get(comp[0], ())
    return has_cycle and any(n in final for n in comp)


def reaching(
    nodes: Sequence[N], adjacency: Mapping[N, Sequence[N]], mark: Callable[[list[N]], int]
) -> dict[N, int]:
    """For every node reachable from ``nodes``, the OR of ``mark(C)`` over
    each component C it reaches, its own included.

    Tarjan emits a component after every component it reaches, so one scan
    in emission order reads each successor's answer before it is needed; no
    reversed graph is built, and the whole pass is linear in the graph.
    """
    out: dict[N, int] = {}
    for comp in tarjan_sccs(nodes, adjacency):
        bits = mark(comp)
        for n in comp:
            for m in adjacency.get(n, ()):
                bits |= out.get(m, 0)  # 0 for a member of comp, still unset
        out.update(dict.fromkeys(comp, bits))
    return out


def lasso_product(
    start: Iterable[N],
    cycle: Sequence[str],
    row: Callable[[N, str], Iterable[tuple[N, W]]],
    order: Mapping[N, int],
) -> tuple[list[tuple[N, int]], dict, dict]:
    """The (state, cycle position) graph reachable from ``start`` at position 0.

    Node (q, i) steps along ``row(q, cycle[i])``, a sequence of
    (target, weight) pairs, to (target, (i + 1) mod |cycle|).  Returns the
    nodes sorted by (position, ``order`` of the state), each node's weighted
    successors in row order, and the same successors without weights.
    """
    length = len(cycle)
    stack = [(q, 0) for q in start]
    seen = set(stack)
    edges = {}
    adjacency = {}
    while stack:
        node = stack.pop()
        q, i = node
        nxt = []
        succs = adjacency[node] = []
        for t, w in row(q, cycle[i]):
            target = (t, (i + 1) % length)
            nxt.append((target, w))
            succs.append(target)
            if target not in seen:
                seen.add(target)
                stack.append(target)
        edges[node] = tuple(nxt)
    return sorted(seen, key=lambda n: (n[1], order[n[0]])), edges, adjacency
