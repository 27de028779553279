"""Expected values that do not come from the code under test.

Closed forms for the paper's machines, direct run evaluation for
deterministic automata, a support-graph analysis for qualitative questions
(is a lasso accepted with probability 0, > 0 or 1; is it an NBA member),
and a re-implementation of the documented Monte Carlo sampler.  Everything
here reads :class:`model.Spec` values only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import sqrt

from model import Spec

F = Fraction


def symbol_at(stem, cycle, i: int) -> str:
    return stem[i] if i < len(stem) else cycle[(i - len(stem)) % len(cycle)]


def binary_value(stem, cycle) -> Fraction:
    """Value of the binary expansion 0.stem cycle cycle ... of a 0/1 lasso."""
    head = sum((F(int(b), 2 ** (i + 1)) for i, b in enumerate(stem)), F(0))
    per = sum((F(int(b), 2 ** (i + 1)) for i, b in enumerate(cycle)), F(0))
    return head + per / (1 - F(1, 2 ** len(cycle))) / 2 ** len(stem)


def deadline_ok(k: int, stem, cycle, i: int) -> bool:
    return symbol_at(stem, cycle, i + k) == "c"


def succinct_value(k: int, stem, cycle) -> Fraction:
    """Acceptance of the succinct monitor: the scanner spawns one checker,
    at the j-th ``a`` with probability 2^-j, and the run survives iff that
    checker finds its ``c`` (or no checker is ever spawned)."""
    stem_as = [i for i, s in enumerate(stem) if s == "a"]
    cyc_as = [len(stem) + i for i, s in enumerate(cycle) if s == "a"]
    total = sum((F(1, 2 ** (j + 1)) for j, i in enumerate(stem_as) if deadline_ok(k, stem, cycle, i)), F(0))
    rest = F(1, 2 ** len(stem_as))
    if not cyc_as:
        return total + rest
    r = len(cyc_as)
    per = sum((F(1, 2 ** (j + 1)) for j, i in enumerate(cyc_as) if deadline_ok(k, stem, cycle, i)), F(0))
    return total + rest * per / (1 - F(1, 2 ** r))


def uniform_leak_value(leaks: dict, stem, cycle) -> Fraction:
    """Acceptance of a PBA whose transient states all leak ``leaks[a] =
    (to_accepting_sink, to_rejecting_sink)`` on symbol a.

    Only the position in the word matters: from cycle position j the
    accepting mass is alpha_j + stay_j * P(j+1), a periodic recurrence with
    solution P(0) = A / (1 - S).
    """
    acc, live = F(0), F(1)
    for a in stem:
        al, be = leaks[a]
        acc += live * al
        live *= 1 - al - be
    num, stay = F(0), F(1)
    for a in cycle:
        al, be = leaks[a]
        num += stay * al
        stay *= 1 - al - be
    return acc + live * num / (1 - stay)


def deterministic_run_set(spec: Spec, stem, cycle) -> set[str]:
    """States visited infinitely often by the unique run of a deterministic
    machine (probability-one rows or single successors)."""
    q = spec.initial
    for a in stem:
        (q,) = spec.succ(q, a)
    seen: dict[tuple[str, int], int] = {}
    trace: list[str] = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        trace.append(q)
        (q,) = spec.succ(q, cycle[pos])
        pos = (pos + 1) % len(cycle)
    return set(trace[seen[(q, pos)]:])


def rabin_holds(pairs, inf_set) -> bool:
    return any(not (inf_set & b) and (inf_set & g) for b, g in pairs)


# ---------------------------------------------------------------------------
# Support-graph analysis


def sccs(nodes, succ) -> list[list]:
    """Strongly connected components by Kosaraju's two passes, iteratively."""
    order: list = []
    seen: set = set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred: dict = {v: [] for v in nodes}
    for v in nodes:
        for w in succ[v]:
            pred[w].append(v)
    comps: list[list] = []
    done: set = set()
    for root in reversed(order):
        if root in done:
            continue
        done.add(root)
        comp, stack = [], [root]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in pred[v]:
                if w not in done:
                    done.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def stem_support(spec: Spec, stem) -> set[str]:
    current = {spec.initial}
    for a in stem:
        current = {t for q in current for t in spec.succ(q, a)}
    return current


def product_graph(spec: Spec, start: set[str], cycle) -> dict:
    """Reachable (state, cycle position) graph from ``start`` at position 0."""
    succ: dict = {}
    stack = [(q, 0) for q in start]
    for n in stack:
        succ[n] = None
    while stack:
        q, i = stack.pop()
        outs = [(t, (i + 1) % len(cycle)) for t in spec.succ(q, cycle[i])]
        succ[(q, i)] = outs
        for n in outs:
            if n not in succ:
                succ[n] = None
                stack.append(n)
    return succ


def _accepting(spec: Spec, comp) -> bool:
    states = {q for q, _ in comp}
    if spec.rabin:
        return rabin_holds(spec.pairs, states)
    return bool(states & spec.final)


def chain_analysis(spec: Spec, stem, cycle) -> dict:
    """Bottom SCCs of the lasso chain of a probabilistic machine.

    Returns the graph, each bottom node's accepting flag, and the node
    counts the benchmark records as sizes (nodes, and unknowns: transient
    nodes that reach both accepting and rejecting bottom SCCs).
    """
    succ = product_graph(spec, stem_support(spec, stem), cycle)
    comps = sccs(list(succ), succ)
    comp_of = {n: i for i, c in enumerate(comps) for n in c}
    bottom: dict = {}
    for i, comp in enumerate(comps):
        if all(comp_of[t] == i for n in comp for t in succ[n]):
            flag = _accepting(spec, comp)
            for n in comp:
                bottom[n] = flag
    reach_acc = {n for n, f in bottom.items() if f}
    reach_rej = {n for n, f in bottom.items() if not f}
    pred: dict = {n: [] for n in succ}
    for n, outs in succ.items():
        for t in outs:
            pred[t].append(n)
    for seeds in (reach_acc, reach_rej):
        stack = list(seeds)
        while stack:
            for p in pred[stack.pop()]:
                if p not in seeds:
                    seeds.add(p)
                    stack.append(p)
    unknowns = sum(1 for n in succ if n not in bottom and n in reach_acc and n in reach_rej)
    start = [(q, 0) for q in stem_support(spec, stem)]
    return {
        "succ": succ,
        "bottom": bottom,
        "nodes": len(succ),
        "unknowns": unknowns,
        "positive": any(n in reach_acc for n in start),
        "sure": not any(n in reach_rej for n in start),
    }


def qualitative(spec: Spec, stem, cycle) -> str:
    """'zero', 'one' or 'mixed': where the acceptance probability lies."""
    info = chain_analysis(spec, stem, cycle)
    if not info["positive"]:
        return "zero"
    return "one" if info["sure"] else "mixed"


def nba_member(spec: Spec, stem, cycle) -> bool:
    """Some run visits a final state infinitely often (nondeterministic roles)."""
    start = stem_support(spec, stem)
    if not start:
        return False
    succ = product_graph(spec, start, cycle)
    for comp in sccs(list(succ), succ):
        cyclic = len(comp) > 1 or comp[0] in succ[comp[0]]
        if cyclic and any(q in spec.final for q, _ in comp):
            return True
    return False


def lassos(alphabet, stem_bound: int, cycle_bound: int):
    """Lassos in the order the bounded searches use: stem by (length, symbol
    order), then cycle by (length, symbol order)."""
    def words(lo, hi):
        for n in range(lo, hi + 1):
            yield from itertools.product(alphabet, repeat=n)

    for u in words(0, stem_bound):
        for v in words(1, cycle_bound):
            yield u, v


def dra_verdicts(spec: Spec) -> tuple[bool, bool]:
    """(nonempty, universal) for a small deterministic Rabin automaton.

    Every strongly connected set of reachable states is the infinity set of
    some run and every run's infinity set is one, so checking each subset
    decides both questions.
    """
    reach = {spec.initial}
    stack = [spec.initial]
    while stack:
        q = stack.pop()
        for a in spec.alphabet:
            for t in spec.succ(q, a):
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
    nonempty, universal = False, True
    states = sorted(reach, key=spec.index.__getitem__)
    for size in range(1, len(states) + 1):
        for subset in itertools.combinations(states, size):
            s = set(subset)
            inner = {q: [t for a in spec.alphabet for t in spec.succ(q, a) if t in s] for q in subset}
            comps = sccs(list(subset), inner)
            if len(comps) != 1 or (size == 1 and subset[0] not in inner[subset[0]]):
                continue
            if rabin_holds(spec.pairs, s):
                nonempty = True
            else:
                universal = False
    return nonempty, universal


# ---------------------------------------------------------------------------
# Reference Monte Carlo sampler

_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class _Bits:
    """splitmix64 words consumed least significant bit first."""

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self.word = 0
        self.left = 0

    def bit(self) -> int:
        if not self.left:
            self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
            self.word = _mix64(self.state)
            self.left = 64
        self.left -= 1
        b = self.word & 1
        self.word >>= 1
        return b


class _Picker:
    """Exact draw from rational weights by refining a dyadic interval
    [lo, lo + 2^-d) bit by bit, on integers over a common denominator."""

    def __init__(self, weights):
        den = 1
        for w in weights:
            den = den * w.denominator // _gcd(den, w.denominator)
        cum, acc = [], 0
        for w in weights:
            acc += w.numerator * (den // w.denominator)
            cum.append(acc)
        self.den, self.cum = den, cum

    def pick(self, bits: _Bits) -> int:
        lo, d = 0, 1  # interval [lo/d, (lo+1)/d)
        den, cum = self.den, self.cum
        while True:
            for k, c in enumerate(cum):
                if lo * den < c * d:
                    if (lo + 1) * den <= c * d:
                        return k
                    break
            lo = 2 * lo + bits.bit()
            d *= 2


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def reference_mc(spec: Spec, stem, cycle, n: int, seed: int) -> tuple[float, float]:
    """(mean, stderr) that the documented sampler gives for this seed.

    Each sample seeds its own splitmix64 stream from (seed, index), draws
    the start node from the stem distribution and walks the chain until it
    reaches a bottom SCC, whose acceptance decides the sample.  Nodes,
    starts and targets follow declaration order.
    """
    dist = {spec.initial: F(1)}
    for a in stem:
        nxt: dict = {}
        for q, p in dist.items():
            for t, w in spec.row(q, a):
                nxt[t] = nxt.get(t, F(0)) + p * w
        dist = {q: p for q, p in nxt.items() if p}
    info = chain_analysis(spec, stem, cycle)
    bottom = info["bottom"]
    starts = sorted(dist, key=spec.index.__getitem__)
    start_pick = _Picker([dist[q] for q in starts])
    moves: dict = {}
    for (q, i) in info["succ"]:
        row = spec.row(q, cycle[i])
        moves[(q, i)] = ([(t, (i + 1) % len(cycle)) for t, _ in row], _Picker([p for _, p in row]))
    hits = 0
    for k in range(n):
        bits = _Bits(_mix64((seed & _MASK) ^ _mix64(k + 1)))
        node = (starts[start_pick.pick(bits)], 0)
        while node not in bottom:
            targets, picker = moves[node]
            node = targets[picker.pick(bits)]
        hits += bottom[node]
    mean = hits / n
    return mean, sqrt(mean * (1.0 - mean) / n)


def within_stderr(mean: float, exact: Fraction, n: int, k: float = 5.0) -> bool:
    """|mean - exact| within k standard errors of an n-sample estimate of exact."""
    p = float(exact)
    return abs(mean - p) <= k * sqrt(p * (1 - p) / n) + 1e-12


# ---------------------------------------------------------------------------
# Monitor reject masses


def m_id_reject_masses(stream) -> list[Fraction]:
    """Reject mass of the binary-value monitor after each symbol (0 first)."""
    out, r = [F(0)], F(0)
    for i, s in enumerate(stream):
        if s == "0":
            r += F(1, 2 ** (i + 1))
        out.append(r)
    return out


def product_reject_masses(stream) -> list[Fraction]:
    """Reject mass of the monitor product m_id x m_id: 1 - (1 - r)^2."""
    return [1 - (1 - r) ** 2 for r in m_id_reject_masses(stream)]


def leak_reject_masses(keep: Fraction, stream) -> list[Fraction]:
    """Reject mass of :func:`model.leak_monitor` on a stream of ``a`` s."""
    out, live = [F(0)], F(1)
    for s in stream:
        if s == "a":
            live *= keep
        out.append(1 - live)
    return out
