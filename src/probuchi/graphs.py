"""The graph questions every engine reduces to, answered once each.

- :func:`tarjan_sccs`: strongly connected components in reverse
  topological order;
- :func:`sccs_topological`: the same components in deterministic
  topological order (hierarchy levels);
- :func:`bottom_sccs`: components with no outgoing edge, where a finite
  Markov chain is absorbed (lasso chains, macro-step support graphs);
- :func:`accepting_cycles`: components holding a cycle through a final node
  (NBA lasso membership, trimming, safety closure);
- :func:`coreachable`: every node with a path into a target set, by one
  search over reversed edges;
- :func:`lasso_product`: the reachable (state, cycle position) graph of a
  lasso's cycle, which exact lasso acceptance weighs with probabilities and
  NBA lasso membership searches for accepting cycles.

Tarjan's algorithm is written iteratively (explicit recursion stack) so deep
chains cannot hit Python's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Container, Hashable, Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)
W = TypeVar("W")

__all__ = ["tarjan_sccs", "sccs_topological", "bottom_sccs", "accepting_cycles",
           "coreachable", "lasso_product"]


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

    Kahn's algorithm on the condensation with an order-sorted ready set,
    which makes the numbering deterministic.
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
    key = [min(order[n] for n in comp) for comp in comps]
    ready = sorted((i for i in range(len(comps)) if indeg[i] == 0), key=lambda i: key[i])
    out: list[list[N]] = []
    while ready:
        i = ready.pop(0)
        out.append(sorted(comps[i], key=lambda n: order[n]))
        changed = False
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
                changed = True
        if changed:
            ready.sort(key=lambda i: key[i])
    return out


def bottom_sccs(
    nodes: Sequence[N], adjacency: Mapping[N, Sequence[N]]
) -> list[list[N]]:
    """SCCs with no outgoing edges; a finite Markov chain is absorbed into these."""
    comps = tarjan_sccs(nodes, adjacency)
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    bottom = []
    for i, comp in enumerate(comps):
        if all(comp_of[m] == i for n in comp for m in adjacency.get(n, ())):
            bottom.append(comp)
    return bottom


def accepting_cycles(
    nodes: Sequence[N], adjacency: Mapping[N, Sequence[N]], final: Container[N]
) -> list[list[N]]:
    """SCCs that hold a cycle through a node of ``final``, in Tarjan order.

    A component holds a cycle when it has two or more nodes or a self-loop;
    a run that reaches one can then visit a final node infinitely often.
    """
    return [
        comp
        for comp in tarjan_sccs(nodes, adjacency)
        if (len(comp) > 1 or comp[0] in adjacency.get(comp[0], ()))
        and any(n in final for n in comp)
    ]


def coreachable(
    targets: Iterable[N], adjacency: Mapping[N, Sequence[N]]
) -> set[N]:
    """Nodes with a path, possibly empty, into ``targets``.

    One depth-first search over the reversed edges, linear in the graph.
    ``adjacency`` must list every node that has an outgoing edge.
    """
    reverse: dict[N, list[N]] = {}
    for v, succs in adjacency.items():
        for w in succs:
            reverse.setdefault(w, []).append(v)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for v in reverse.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


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
