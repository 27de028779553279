"""Differential tests: the shared graph and bitset kernel against the code it replaced.

Each ``ref_*`` function below is a verbatim-in-behaviour copy of an older
implementation: the quadratic ``while changed`` can-reach fixpoint, the
lasso-chain classification built on it, the macro-step doomed-state mask,
the ``list.pop(0)`` breadth-first monoid enumerators with their
row-at-a-time products (the profile monoid on (reach, fin) pairs, which
the kernel packs into one mask per row), the linked-pair universality
loop over every idempotent and element pair, the early-exit
cycle-word search, the layered breadth-first reach words, the NBA trim and
quotient with its own searches, the private NBA lasso product, the
monitor's own accumulation loop, the monitor session's former feed,
which reduced the reject mass from the state on every read, the dense
absorption system over every mixed node of a lasso chain, the sampler
that refines a ``Fraction`` interval and the splitmix64 bit source,
per-sample seed and integer Knuth-Yao pick that the sampler's one loop now inlines, each sample's
seed and first word that it now computes a block at a time, the monitor
universality scan over every monoid element's
doomed mask, the rank-based complement explored on state names and its
product-then-zip rank choices, and the
containment scan and universality probe that built one chain or product
per lasso, the dense per-symbol product behind word matrices (on the
conftest's ``ref_identity`` and ``ref_matmul``), the ``Fraction`` step
that the integer walk replaced, the bounded witness search that
walked every reach word from the start, the subset-witness check on word
matrices and the containment scan that scored lassos on ``Fraction``s.
They are kept here only as
oracles; the properties require the kernel to give exactly the same
answers, in the same order.
"""

from __future__ import annotations

import itertools
import pickle
import random
from array import array
from collections import deque
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import gcd, prod, sqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from probuchi import decide, markov, sim
from probuchi.construct import _empty_nba, complement_to_fpm, gen_p3, gen_succinct
from probuchi.core import (
    Automaton,
    BuchiAcceptance,
    LassoWord,
    RabinAcceptance,
    ResourceLimitError,
    all_words,
    require_valid,
)
from probuchi.decide import (
    _PROBE_BOUND,
    AsymptoticWitness,
    SubsetWitness,
    _discover,
    _first_steps,
    _monoid,
    _profile_tables,
    _safe_start_mask,
    _universality_probe,
    almost_sure_universal,
    containment_refute,
    fpm_positive_empty,
    fpm_positive_universal,
    nba_complement,
    nba_lasso_member,
    nba_universality,
    pba_positive_nonempty_bounded,
    transition_monoid,
    verify_subset_witness,
)
from probuchi import graphs as graphs_module
from probuchi.graphs import accepting_cycle, reaching, tarjan_sccs
from probuchi.markov import (
    RationalMatrix,
    _absorption,
    _bscc_accepting,
    _cycle_values,
    _lasso_value,
    _walk,
    build_lasso_chain,
    final_passage_matrix,
    lasso_acceptance,
    solve_linear,
    word_matrix,
)
from probuchi.sim import (
    _REDUCE_PERIOD,
    McEstimate,
    MonitorError,
    MonitorSession,
    _cumulative,
    mc_lasso_estimate,
    monitor_stream,
)
from probuchi.textio import serialize

from conftest import (
    all_lassos,
    random_dra,
    random_fpm,
    random_hpba,
    random_lasso,
    random_nba,
    random_pba,
    random_pra,
    random_prob_rows,
    ref_identity,
    ref_matmul,
    ref_support,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def two_sink_pba(rng: random.Random, n: int) -> Automaton:
    """Random transient states over an accepting and a rejecting sink.

    Most chains of such a machine hold nodes that can reach both kinds of
    bottom component, which the plain generators rarely produce.
    """
    states = tuple(f"q{i}" for i in range(n)) + ("acc", "rej")
    trans = random_prob_rows(rng, states, ("a", "b"))
    for sink in ("acc", "rej"):
        for a in ("a", "b"):
            trans[(sink, a)] = ((sink, Fraction(1)),)
    return Automaton(
        name="two_sink",
        role="pba",
        alphabet=("a", "b"),
        states=states,
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"acc"})),
        transitions=trans,
    )


def leaky_ring(rng: random.Random, n: int, rabin: bool) -> Automaton:
    """A ring of n transient states over an accepting and a rejecting sink.

    On each symbol a ring state moves on to the next one and to one other
    ring state, and leaks mass to both sinks, so nearly every node of a
    chain is mixed, as in the benchmark's uniform-leak machines; here the
    leaks differ from row to row.
    """
    ts = [f"t{i}" for i in range(n)]
    trans = {}
    for i, q in enumerate(ts):
        for a in ("a", "b"):
            acc, rej = Fraction(rng.randint(1, 4), 16), Fraction(rng.randint(1, 4), 16)
            rest = 1 - acc - rej
            keep = rest * Fraction(rng.randint(1, 4), 4)
            row = {ts[(i + 1) % n]: keep}
            other = rng.choice(ts)
            row[other] = row.get(other, Fraction(0)) + rest - keep
            row["acc"], row["rej"] = acc, rej
            trans[(q, a)] = tuple((t, p) for t, p in row.items() if p)
    for sink in ("acc", "rej"):
        for a in ("a", "b"):
            trans[(sink, a)] = ((sink, Fraction(1)),)
    if rabin:
        role, acceptance = "pra", RabinAcceptance(((frozenset({"rej"}), frozenset({"acc"})),))
    else:
        role, acceptance = "pba", BuchiAcceptance(frozenset({"acc"}))
    return Automaton(
        name="leaky_ring",
        role=role,
        alphabet=("a", "b"),
        states=tuple(ts) + ("acc", "rej"),
        initial="t0",
        acceptance=acceptance,
        transitions=trans,
    )


def stretch_ring(rng: random.Random, n: int) -> Automaton:
    """A ring of n states over an accepting and a rejecting sink, where
    every state but one moves with probability one.

    On a the ring steps to the next state, on b to the one after it; now
    and then a state falls into a sink instead.  Only the branching state
    leaks to both sinks, so a chain runs through single-target stretches of
    up to n - 1 steps between two draws.
    """
    ts = [f"t{i}" for i in range(n)]
    branching = rng.randrange(n)
    trans = {}
    for i, q in enumerate(ts):
        for step, a in enumerate(("a", "b"), start=1):
            nxt = ts[(i + step) % n]
            if i == branching:
                acc, rej = Fraction(rng.randint(1, 4), 16), Fraction(rng.randint(1, 4), 16)
                trans[(q, a)] = ((nxt, 1 - acc - rej), ("acc", acc), ("rej", rej))
            else:
                sink = rng.choice(("acc", "rej")) if rng.random() < 0.1 else nxt
                trans[(q, a)] = ((sink, Fraction(1)),)
    for sink in ("acc", "rej"):
        for a in ("a", "b"):
            trans[(sink, a)] = ((sink, Fraction(1)),)
    return Automaton(
        name="stretch_ring",
        role="pba",
        alphabet=("a", "b"),
        states=tuple(ts) + ("acc", "rej"),
        initial="t0",
        acceptance=BuchiAcceptance(frozenset({"acc"})),
        transitions=trans,
    )


FOLD_KINDS = ["ring-pba", "ring-pra", "pba", "pra"]


def fold_case(rng: random.Random, kind: str, length: int):
    """An automaton and a lasso with a cycle of ``length`` and a stem of 0 to 3."""
    n = rng.randint(1, 7)
    aut = {
        "ring-pba": lambda: leaky_ring(rng, n, rabin=False),
        "ring-pra": lambda: leaky_ring(rng, n, rabin=True),
        "pba": lambda: random_pba(rng, n),
        "pra": lambda: random_pra(rng, n, rng.randint(1, 3)),
    }[kind]()
    stem = tuple(rng.choice(aut.alphabet) for _ in range(rng.randint(0, 3)))
    cycle = tuple(rng.choice(aut.alphabet) for _ in range(length))
    return aut, LassoWord(stem, cycle)


# ---------------------------------------------------------------------------
# Reference implementations


def ref_fixpoint(nodes, adjacency, targets):
    reach = set(targets)
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n not in reach and any(t in reach for t in adjacency[n]):
                reach.add(n)
                changed = True
    return reach


def ref_bottom_sccs(nodes, adjacency):
    """SCCs with no outgoing edges; a finite Markov chain is absorbed into these."""
    comps = tarjan_sccs(nodes, adjacency)
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    bottom = []
    for i, comp in enumerate(comps):
        if all(comp_of[m] == i for n in comp for m in adjacency.get(n, ())):
            bottom.append(comp)
    return bottom


def ref_accepting_cycles(nodes, adjacency, final):
    """SCCs that hold a cycle through a node of ``final``, in Tarjan order.

    A component holds a cycle when it has two or more nodes or a self-loop.
    """
    return [
        comp
        for comp in tarjan_sccs(nodes, adjacency)
        if (len(comp) > 1 or comp[0] in adjacency.get(comp[0], ()))
        and any(n in final for n in comp)
    ]


def ref_coreachable(targets, adjacency):
    """Nodes with a path, possibly empty, into ``targets``: one depth-first
    search over the reversed edges.  ``adjacency`` must list every node that
    has an outgoing edge."""
    reverse = {}
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


def ref_live(nodes, adjacency, final):
    """The nodes that reach a cycle through ``final``, by the two searches
    :func:`reaching` replaced."""
    cycles = ref_accepting_cycles(nodes, adjacency, final)
    return ref_coreachable([q for comp in cycles for q in comp], adjacency)


def ref_chain_classes(aut, chain):
    """(value_of, bscc_nodes, accepting, rejecting) of ``chain`` from its own
    nodes and edges, by a bottom-component search and one reversed search per
    kind of bottom component."""
    adjacency = {n: [t for t, _ in chain.edges[n]] for n in chain.nodes}
    bottoms = ref_bottom_sccs(chain.nodes, adjacency)
    accepting = [_bscc_accepting(aut, comp) for comp in bottoms]
    bscc_value = {n: Fraction(int(acc)) for comp, acc in zip(bottoms, accepting) for n in comp}
    reach_acc = ref_coreachable([n for n, v in bscc_value.items() if v], adjacency)
    reach_rej = ref_coreachable([n for n, v in bscc_value.items() if not v], adjacency)
    value_of = {}
    for n in chain.nodes:
        if n in bscc_value:
            value_of[n] = bscc_value[n]
        elif n in reach_acc and n in reach_rej:
            value_of[n] = None
        else:
            value_of[n] = Fraction(1) if n in reach_acc else Fraction(0)
    return value_of, frozenset(bscc_value), sum(accepting), len(accepting) - sum(accepting)


def ref_chain_values(aut, w):
    """(value_of, bscc_nodes, accepting, rejecting) as the fixpoint chain gave them."""
    dist = ref_masses(aut, w.stem)
    length = len(w.cycle)
    start = [(q, 0) for q in sorted(dist, key=aut.index.__getitem__)]
    edges = {}
    frontier = list(start)
    seen = set(start)
    while frontier:
        node = frontier.pop()
        q, i = node
        nxt = []
        for t, p in aut.prob_row(q, w.cycle[i]):
            target = (t, (i + 1) % length)
            nxt.append((target, p))
            if target not in seen:
                seen.add(target)
                frontier.append(target)
        edges[node] = tuple(nxt)
    nodes = sorted(seen, key=lambda n: (n[1], aut.index[n[0]]))
    adjacency = {n: [t for t, _ in edges[n]] for n in nodes}
    comps = tarjan_sccs(nodes, adjacency)
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    n_acc = n_rej = 0
    bscc_value = {}
    bscc_nodes = set()
    for i, comp in enumerate(comps):
        if all(comp_of[t] == i for n in comp for t in adjacency[n]):
            accepting = _bscc_accepting(aut, comp)
            bscc_value[i] = Fraction(1 if accepting else 0)
            bscc_nodes.update(comp)
            if accepting:
                n_acc += 1
            else:
                n_rej += 1
    in_value = {n for n in nodes if comp_of[n] in bscc_value}
    reach_acc = ref_fixpoint(
        nodes, adjacency, {n for n in in_value if bscc_value[comp_of[n]] == 1}
    )
    reach_rej = ref_fixpoint(
        nodes, adjacency, {n for n in in_value if bscc_value[comp_of[n]] == 0}
    )
    value_of = {}
    for n in nodes:
        ci = comp_of[n]
        if ci in bscc_value:
            value_of[n] = bscc_value[ci]
        elif n in reach_acc and n in reach_rej:
            value_of[n] = None
        else:
            value_of[n] = Fraction(1) if n in reach_acc else Fraction(0)
    return value_of, frozenset(bscc_nodes), n_acc, n_rej


def ref_dense_acceptance(aut, w):
    """Acceptance and the value of every mixed node, from one dense system.

    Each mixed node of the whole chain is an unknown: x_n minus the weights
    of its mixed successors equals the weight of its accepting known ones.
    """
    chain = build_lasso_chain(aut, w)
    unknown = [n for n in chain.nodes if chain.value_of[n] is None]
    solved = {}
    if unknown:
        pos = {n: i for i, n in enumerate(unknown)}
        m = len(unknown)
        a = [[Fraction(0)] * m for _ in range(m)]
        b = [Fraction(0)] * m
        for n in unknown:
            i = pos[n]
            a[i][i] += 1
            for t, p in chain.edges[n]:
                v = chain.value_of[t]
                if v is None:
                    a[i][pos[t]] -= p
                else:
                    b[i] += p * v
        xs = solve_linear(a, b)
        solved = {n: xs[pos[n]] for n in unknown}
    total = Fraction(0)
    for node, mass in chain.initial.items():
        v = chain.value_of[node]
        total += mass * (solved[node] if v is None else v)
    return total, solved


def ref_safe_start_mask(rows, reject_index):
    n = len(rows)
    nodes = list(range(n))
    adjacency = {i: [j for j in range(n) if rows[i] >> j & 1] for i in range(n)}
    comps = tarjan_sccs(nodes, adjacency)
    comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
    bad = set()
    for i, comp in enumerate(comps):
        if all(comp_of[t] == i for q in comp for t in adjacency[q]):
            if comp != [reject_index]:
                bad.update(comp)
    reach_bad = ref_fixpoint(nodes, adjacency, bad)
    doomed = 0
    for q in nodes:
        if q not in reach_bad:
            doomed |= 1 << q
    return doomed


def ref_symbol_masks(aut):
    idx = aut.index
    gen = {}
    for a in aut.alphabet:
        rows = []
        for q in aut.states:
            m = 0
            for t in aut.successors(q, a):
                m |= 1 << idx[t]
            rows.append(m)
        gen[a] = tuple(rows)
    return gen


def ref_transition_monoid(aut):
    """(word, rows) pairs in discovery order."""
    gen = ref_symbol_masks(aut)
    n = len(aut.states)

    def compose(x, sym):
        g = gen[sym]
        out = []
        for i in range(n):
            m = x[i]
            r = 0
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                r |= g[j]
            out.append(r)
        return tuple(out)

    elements = {}
    out = []
    queue = []
    for a in aut.alphabet:
        if gen[a] not in elements:
            elements[gen[a]] = (a,)
            out.append(((a,), gen[a]))
            queue.append(gen[a])
    while queue:
        x = queue.pop(0)
        w = elements[x]
        for a in aut.alphabet:
            y = compose(x, a)
            if y not in elements:
                elements[y] = w + (a,)
                out.append((w + (a,), y))
                queue.append(y)
    return out


def ref_profile_compose(p, q):
    p_reach, p_fin = p
    q_reach, q_fin = q
    reach = []
    fin = []
    for i in range(len(p_reach)):
        r = 0
        f = 0
        m = p_reach[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            r |= q_reach[j]
            f |= q_fin[j]
        m = p_fin[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            f |= q_reach[j]
        reach.append(r)
        fin.append(f)
    return tuple(reach), tuple(fin)


def ref_profile_monoid(a):
    """((reach, fin), word) pairs in discovery order."""
    idx = a.index
    finals = a.final_states
    gens = {}
    for sym in a.alphabet:
        reach = []
        fin = []
        for q in a.states:
            r = 0
            f = 0
            for t in a.successors(q, sym):
                bit = 1 << idx[t]
                r |= bit
                if q in finals or t in finals:
                    f |= bit
            reach.append(r)
            fin.append(f)
        gens[sym] = (tuple(reach), tuple(fin))
    elements = {}
    queue = []
    for sym in a.alphabet:
        p = gens[sym]
        if p not in elements:
            elements[p] = (sym,)
            queue.append((p, (sym,)))
    while queue:
        p, word = queue.pop(0)
        for sym in a.alphabet:
            q = ref_profile_compose(p, gens[sym])
            if q not in elements:
                elements[q] = word + (sym,)
                queue.append((q, word + (sym,)))
    return list(elements.items())


def ref_profile_pair_scan(a):
    """The linked-pair loop of the universality decision: each idempotent V
    in discovery order against the identity and then every U, composing
    (reach, fin) pairs for both the idempotent and the UV = U tests."""
    elements = ref_profile_monoid(a)
    n = len(a.states)
    idx0 = a.index[a.initial]
    finals = a.final_states
    ident = (
        tuple(1 << i for i in range(n)),
        tuple((1 << i) if q in finals else 0 for i, q in enumerate(a.states)),
    )
    for v, vw in elements:
        if ref_profile_compose(v, v) != v:
            continue
        v_reach, v_fin = v
        loops = sum(1 << s for s in range(n) if v_fin[s] >> s & 1)
        for u, uw in [(ident, ()), *elements]:
            if ref_profile_compose(u, v) != u:
                continue
            if not ref_image(u[0][idx0], v_reach) & loops:
                return LassoWord(uw, vw)
    return None


def ref_lex_cycle_word(aut, f):
    words = {}
    layer = []
    for a in aut.alphabet:
        for t in aut.successors(f, a):
            if t == f:
                return (a,)
            if t not in words:
                words[t] = (a,)
                layer.append((t, (a,)))
    while layer:
        nxt = []
        for q, w in layer:
            for a in aut.alphabet:
                for t in aut.successors(q, a):
                    if t == f:
                        return w + (a,)
                    if t not in words:
                        words[t] = w + (a,)
                        nxt.append((t, w + (a,)))
        layer = nxt
    return None


def ref_lex_reach_words(aut, start, at_least_one):
    """Layered breadth-first search, one list per word length."""
    words = {} if at_least_one else {start: ()}
    layer = [(start, ())]
    while layer:
        nxt = []
        for q, w in layer:
            for a in aut.alphabet:
                for t in aut.successors(q, a):
                    if t not in words:
                        words[t] = w + (a,)
                        nxt.append((t, w + (a,)))
        layer = nxt
    return words


def _reduce_nba(a):
    """Trim to states on some accepting run and quotient by forward bisimulation.

    :func:`_quotient` over the integer successor table of ``a``, states
    numbered in declaration order; building the table is linear in the
    transitions.  Read through the module, so the trusted-path check below
    sees every quotient.
    """
    idx = a.index
    table = [
        [[idx[t] for t in a.successors(q, sym)] for sym in a.alphabet]
        for q in a.states
    ]
    finals = {idx[q] for q in a.final_states}
    return decide._quotient(a.name, a.alphabet, table, finals, idx[a.initial])


def check_trusted(out: Automaton) -> Automaton:
    """``out`` after checking that it is what the public constructor builds.

    :func:`_quotient` builds its result without the constructor's re-sort,
    which is sound only when every row is already sorted by declaration
    index and free of duplicates; that precondition is checked first.
    """
    idx = out.index
    for row in out.transitions.values():
        at = [idx[t] for t in row]
        assert at and at == sorted(set(at))
    rebuilt = Automaton(
        name=out.name,
        role=out.role,
        alphabet=out.alphabet,
        states=out.states,
        initial=out.initial,
        acceptance=out.acceptance,
        transitions=dict(out.transitions),
    )
    assert out == rebuilt
    assert list(out.transitions.items()) == list(rebuilt.transitions.items())
    assert hash(out) == hash(rebuilt)
    assert serialize(out) == serialize(rebuilt)
    copy = pickle.loads(pickle.dumps(out))
    assert copy == out and serialize(copy) == serialize(out)
    with pytest.raises(TypeError):
        out.transitions[("kv0", out.alphabet[0])] = ("kv0",)
    return out


@pytest.fixture(autouse=True, scope="module")
def trusted_quotients():
    """Every :func:`_quotient` result in this module, each complement and
    each reduction included, goes through :func:`check_trusted`."""
    real = decide._quotient
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_quotient", lambda *args: check_trusted(real(*args)))
        yield


def ref_reduce_nba(a):
    """Trim and bisimulation quotient with its own two searches."""
    adjacency = a.support_adjacency()
    finals = a.final_states
    live = ref_live(a.states, adjacency, finals)
    keep = set()
    if a.initial in live:
        stack = [a.initial]
        keep.add(a.initial)
        while stack:
            q = stack.pop()
            for sym in a.alphabet:
                for t in a.successors(q, sym):
                    if t in live and t not in keep:
                        keep.add(t)
                        stack.append(t)
    if not keep:
        return _empty_nba(a.name, a.alphabet, "kv0")
    kept = [q for q in a.states if q in keep]
    block_of = {q: (q in finals) for q in kept}
    while True:
        sig = {
            q: (
                block_of[q],
                tuple(
                    frozenset(block_of[t] for t in a.successors(q, sym) if t in keep)
                    for sym in a.alphabet
                ),
            )
            for q in kept
        }
        new_ids = {}
        new_block = {}
        for q in kept:
            new_block[q] = new_ids.setdefault(sig[q], len(new_ids))
        if len(new_ids) == len(set(block_of.values())):
            block_of = new_block
            break
        block_of = new_block
    rep = {}
    for q in kept:
        rep.setdefault(block_of[q], q)
    naming = {}
    bfs = deque([block_of[a.initial]])
    naming[block_of[a.initial]] = "kv0"
    i = 0
    while bfs:
        b = bfs.popleft()
        q = rep[b]
        for sym in a.alphabet:
            for t in a.successors(q, sym):
                if t in keep and block_of[t] not in naming:
                    i += 1
                    naming[block_of[t]] = f"kv{i}"
                    bfs.append(block_of[t])
    transitions = {}
    for q in kept:
        src = naming[block_of[q]]
        for sym in a.alphabet:
            targets = {
                naming[block_of[t]] for t in a.successors(q, sym) if t in keep
            }
            if targets:
                prev = set(transitions.get((src, sym), ()))
                transitions[(src, sym)] = tuple(sorted(prev | targets))
    final_blocks = frozenset(naming[block_of[q]] for q in kept if q in finals)
    states = tuple(sorted(naming.values(), key=lambda s: int(s[2:])))
    return Automaton(
        name=a.name,
        role="nba",
        alphabet=a.alphabet,
        states=states,
        initial="kv0",
        acceptance=BuchiAcceptance(final_blocks),
        transitions=transitions,
    )


def ref_image(mask, rows):
    out = 0
    for j, row in enumerate(rows):
        if mask >> j & 1:
            out |= row
    return out


def ref_compose(x, y):
    return tuple(ref_image(m, y) for m in x)


def ref_fpm_positive_universal(m):
    """The exhaustive scan: every reachable support against every monoid
    element's doomed mask.  Returns the lasso and the rows of the witness
    element, or None."""
    elements = ref_transition_monoid(m)
    idx = m.index
    reject = idx[m.reject]
    gen = ref_symbol_masks(m)
    start = 1 << idx[m.initial]
    supports = {start: ()}
    queue = [start]
    while queue:
        s = queue.pop(0)
        for a in m.alphabet:
            t = ref_image(s, gen[a])
            if t not in supports:
                supports[t] = supports[s] + (a,)
                queue.append(t)
    doomed = [ref_safe_start_mask(rows, reject) for _, rows in elements]
    for s, stem in supports.items():
        for (vword, rows), d in zip(elements, doomed):
            if s & ~d == 0:
                return LassoWord(stem, vword).normalized(), rows
    return None


def ref_nba_complement(a):
    """The rank-based complement on state names, reduced by ref_reduce_nba."""
    finals = a.final_states
    n = len(a.states)
    r_max = 2 * (n - len(finals))
    init = (((a.initial, r_max),), frozenset())
    names = {init: "kv0"}
    transitions = {}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        ranking, owing = state
        g = dict(ranking)
        for sym in a.alphabet:
            succ_bound = {}
            for q, r in g.items():
                for t in a.successors(q, sym):
                    succ_bound[t] = min(succ_bound.get(t, r_max), r)
            dom = sorted(succ_bound, key=a.index.__getitem__)
            choices = []
            count = 1
            for t in dom:
                allowed = [r for r in range(succ_bound[t] + 1) if t not in finals or r % 2 == 0]
                choices.append(allowed)
                count *= len(allowed)
                if count > decide.COMPLEMENT_BRANCH_LIMIT:
                    raise ResourceLimitError("branching", "branch_cap", count)
            owing_succ = {t for q in owing for t in a.successors(q, sym) if t in succ_bound}
            targets = []
            for combo in itertools.product(*choices):
                g2 = tuple(zip(dom, combo))
                even = {t for t, r in g2 if r % 2 == 0}
                nxt = (g2, frozenset(owing_succ & even) if owing else frozenset(even))
                if nxt not in names:
                    if len(names) >= decide.COMPLEMENT_STATE_LIMIT:
                        raise ResourceLimitError("states", "state_cap", len(names))
                    names[nxt] = f"kv{len(names)}"
                    queue.append(nxt)
                targets.append(names[nxt])
            transitions[(names[state], sym)] = tuple(targets)
    out = Automaton(
        name=f"compl({a.name})",
        role="nba",
        alphabet=a.alphabet,
        states=tuple(names.values()),
        initial="kv0",
        acceptance=BuchiAcceptance(frozenset(name for s, name in names.items() if not s[1])),
        transitions=transitions,
    )
    return ref_reduce_nba(out)


def ref_rank_choices(bounds, final, limit):
    """The product-then-zip rank choices: a running count against ``limit``,
    then every ``itertools.product`` tuple rebuilt with ``zip`` and its
    even-rank mask set one bit at a time."""
    dom = [t for t, _ in bounds]
    choices = []
    count = 1
    for t, bound in bounds:
        allowed = range(0, bound + 1, 2 if final[t] else 1)
        choices.append(allowed)
        count *= len(allowed)
        if count > limit:
            raise ResourceLimitError(
                f"rank branching exceeds {limit} at one "
                f"transition; the limit is fixed (input likely too large "
                f"for the rank-based method)",
                cap_name="branch_cap",
                cap_value=limit,
            )
    out = []
    for combo in itertools.product(*choices):
        even = 0
        for t, r in zip(dom, combo):
            if not r & 1:
                even |= 1 << t
        out.append((tuple(zip(dom, combo)), even))
    return out


def ref_nba_lasso_member(a, w):
    """Stem loop and a private (state, cycle position) search."""
    current = {a.initial}
    for s in w.stem:
        current = {t for q in current for t in a.successors(q, s)}
    if not current:
        return False
    length = len(w.cycle)
    start = [(q, 0) for q in current]
    seen = set(start)
    stack = list(start)
    edges = {}
    while stack:
        q, i = stack.pop()
        outs = []
        for t in a.successors(q, w.cycle[i]):
            node = (t, (i + 1) % length)
            outs.append(node)
            if node not in seen:
                seen.add(node)
                stack.append(node)
        edges[(q, i)] = outs
    finals = a.final_states
    nodes = sorted(seen, key=lambda n: (n[1], a.index[n[0]]))
    final_nodes = {n for n in nodes if n[0] in finals}
    return bool(ref_accepting_cycles(nodes, edges, final_nodes))


def ref_per_lasso_containment(b1, b2, semantics, bound):
    """The per-lasso scan: one chain and one absorption solve per lasso and operand."""
    for w in all_lassos(b1.alphabet, bound, bound):
        p1 = _lasso_value(b1, w)
        if semantics == "positive":
            if p1 > 0 and _lasso_value(b2, w) == 0:
                return w
        elif p1 == 1 and _lasso_value(b2, w) < 1:
            return w
    return None


def ref_universality_probe(a):
    """The per-lasso probe: one support product and one SCC search per lasso."""
    for w in all_lassos(a.alphabet, _PROBE_BOUND, _PROBE_BOUND):
        if not ref_nba_lasso_member(a, w):
            return w
    return None


def ref_monitor_run(m, word):
    """Reject masses after each symbol and the final state masses."""
    state = {m.initial: Fraction(1)}
    rejects = []
    for symbol in word:
        nxt = {}
        for q, p in state.items():
            for t, w in m.prob_row(q, symbol):
                nxt[t] = nxt.get(t, 0) + p * w
        state = nxt
        rejects.append(state.get(m.reject, Fraction(0)))
    return rejects, state


_MASK = (1 << 64) - 1


def ref_mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def ref_sample_seed(root: int, index: int) -> int:
    """Per-sample seed derived from the root seed; order-independent."""
    return ref_mix64((root & _MASK) ^ ref_mix64(index + 1))


class ref_bits:
    """Bits of a splitmix64 stream, each 64-bit word lowest bit first."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._word = 0
        self._left = 0

    def bit(self) -> int:
        if self._left == 0:
            self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
            self._word = ref_mix64(self._state)
            self._left = 64
        self._left -= 1
        b = self._word & 1
        self._word >>= 1
        return b


def ref_integer_pick(den: int, cum: list[int], bits) -> int:
    """Index drawn exactly from the distribution with cumulative weights
    ``cum[k] / den``: the Knuth-Yao walk refining [lo/d, (lo+1)/d) one bit
    at a time, compared against the segments by cross-multiplication."""
    lo, d, k = 0, 1, 0
    while True:
        while lo * den >= cum[k] * d:
            k += 1
        if (lo + 1) * den <= cum[k] * d:
            return k
        lo = 2 * lo + bits.bit()
        d *= 2


def ref_session_den(session) -> int:
    """A monitor session's running denominator, from its split."""
    return session._odd << session._twos


def ref_session_state(session) -> dict[str, Fraction]:
    """A monitor session's exact state masses, in its numerators' order."""
    den = ref_session_den(session)
    return {q: Fraction(p, den) for q, p in session._nums.items()}


def ref_pick(weights, bits):
    """Index distributed exactly as ``weights``, refining a ``Fraction``
    interval and re-summing the cumulative weights on every call."""
    cum = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        cum.append(acc)
    lo, hi = Fraction(0), Fraction(1)
    while True:
        k = next((i for i, c in enumerate(cum) if lo < c), None)
        if k is not None and hi <= cum[k]:
            return k
        mid = (lo + hi) / 2
        if bits.bit():
            lo = mid
        else:
            hi = mid


def ref_samples(aut, w, n, seed):
    """``(accepted, moves, stretch)`` per sample of the Monte Carlo loop over
    the lasso chain, one chain step at a time, drawing with ``ref_pick``;
    ``stretch`` is the most moves in a row the sample made from nodes with
    one successor."""
    chain = build_lasso_chain(aut, w)
    in_bscc = {node: chain.value_of[node] for node in chain.bscc_nodes}
    init_nodes = sorted(chain.initial, key=lambda nd: chain.nodes.index(nd))
    init_weights = [chain.initial[nd] for nd in init_nodes]
    for i in range(n):
        bits = ref_bits(ref_sample_seed(seed, i))
        node = init_nodes[ref_pick(init_weights, bits)]
        moves = run = stretch = 0
        while node not in in_bscc:
            targets = chain.edges[node]
            run = run + 1 if len(targets) == 1 else 0
            stretch = max(stretch, run)
            node = targets[ref_pick([p for _, p in targets], bits)][0]
            moves += 1
        yield in_bscc[node] == 1, moves, stretch


def ref_mc_estimate(aut, w, n, seed, limit=None):
    """The estimate of ``ref_samples``; with a ``limit``, a sample of more
    moves raises the step cap instead."""
    hits = 0
    for accepted, moves, _ in ref_samples(aut, w, n, seed):
        if limit is not None and moves > limit:
            raise ResourceLimitError("step limit", "step_cap", limit)
        hits += accepted
    mean = hits / n
    return McEstimate(mean=mean, stderr=sqrt(mean * (1.0 - mean) / n), samples=n, seed=seed)


# ---------------------------------------------------------------------------
# Properties


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    adjacency = {
        v: sorted(set(draw(st.lists(node, max_size=4)))) for v in range(n)
    }
    targets = draw(st.sets(node, max_size=n))
    return list(range(n)), adjacency, targets


def coreached(nodes, adjacency, targets):
    """The nodes with a path into ``targets``, read off :func:`reaching` with
    the mark "the component holds a target"."""
    reach = reaching(nodes, adjacency, lambda comp: any(n in targets for n in comp))
    return {n for n, hit in reach.items() if hit}


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_coreachable_matches_fixpoint(graph):
    nodes, adjacency, targets = graph
    assert coreached(nodes, adjacency, targets) == ref_fixpoint(nodes, adjacency, targets)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_coreachable_matches_fixpoint_on_nba_support_graphs(seed):
    rng = random.Random(seed)
    a = random_nba(rng, rng.randint(1, 8), rng.choice([("a", "b"), ("a", "b", "c")]))
    adjacency = a.support_adjacency()
    targets = [q for q in a.states if rng.random() < 0.3]
    assert coreached(a.states, adjacency, targets) == ref_fixpoint(a.states, adjacency, targets)


CHAIN_KINDS = ["pba", "fpm", "hpba", "pra", "two-sink"]


def chain_case(seed, kind):
    """A random automaton of ``kind`` and a random lasso over its alphabet."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    aut = {
        "pba": lambda: random_pba(rng, n),
        "fpm": lambda: random_fpm(rng, n + 1),
        "hpba": lambda: random_hpba(rng, n),
        "pra": lambda: random_pra(rng, n, rng.randint(1, 3)),
        "two-sink": lambda: two_sink_pba(rng, n),
    }[kind]()
    return aut, random_lasso(rng, aut.alphabet, 5)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(CHAIN_KINDS))
def test_lasso_chain_matches_fixpoint_chain(seed, kind):
    aut, w = chain_case(seed, kind)
    chain = build_lasso_chain(aut, w)
    value_of, bscc_nodes, n_acc, n_rej = ref_chain_values(aut, w)
    assert chain.value_of == value_of
    assert list(chain.value_of) == list(value_of)
    assert chain.bscc_nodes == bscc_nodes
    assert (chain.accepting_bsccs, chain.rejecting_bsccs) == (n_acc, n_rej)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.sampled_from(CHAIN_KINDS))
def test_lasso_chain_classes_match_reversed_searches(seed, kind):
    # The one reaching pass of _chain against the searches it replaced: a
    # bottom-component search and a reversed search per kind of component.
    aut, w = chain_case(seed, kind)
    chain = build_lasso_chain(aut, w)
    value_of, bscc_nodes, n_acc, n_rej = ref_chain_classes(aut, chain)
    assert list(chain.value_of.items()) == list(value_of.items())
    assert chain.bscc_nodes == bscc_nodes
    assert (chain.accepting_bsccs, chain.rejecting_bsccs) == (n_acc, n_rej)


def test_chain_cases_have_mixed_nodes_and_both_kinds():
    # Guard against a vacuous chain differential: of the 500 chains at seeds
    # 0-99 of every kind, at least 60 hold a mixed node (value None) and at
    # least 75 hold both kinds of bottom component (76 and 92 today).  Most
    # come from two_sink_pba; the plain kinds must give at least 8 mixed
    # chains and 10 with both kinds (11 and 15 today).
    counts = {"mixed": 0, "both": 0, "plain mixed": 0, "plain both": 0}
    for kind in CHAIN_KINDS:
        for seed in range(100):
            aut, w = chain_case(seed, kind)
            value_of, _, n_acc, n_rej = ref_chain_classes(aut, build_lasso_chain(aut, w))
            mixed = any(v is None for v in value_of.values())
            both = n_acc > 0 and n_rej > 0
            counts["mixed"] += mixed
            counts["both"] += both
            counts["plain mixed"] += mixed and kind != "two-sink"
            counts["plain both"] += both and kind != "two-sink"
    assert counts["mixed"] >= 60 and counts["both"] >= 75, counts
    assert counts["plain mixed"] >= 8 and counts["plain both"] >= 10, counts


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_accepting_cycle_reach_matches_reversed_search(seed):
    rng = random.Random(seed)
    a = random_nba(rng, rng.randint(1, 8), rng.choice([("a", "b"), ("a", "b", "c")]))
    adjacency = a.support_adjacency()
    finals = a.final_states
    reach = reaching(a.states, adjacency, lambda comp: accepting_cycle(comp, adjacency, finals))
    assert {q for q, hit in reach.items() if hit} == ref_live(a.states, adjacency, finals)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_quotient_live_states_match_reversed_search(seed):
    # Every reaching pass inside _quotient, on the complement and on the
    # reduction of a random NBA, keeps the states that the two reversed
    # searches find on the plain successor graph of the table.
    rng = random.Random(seed)
    a = random_nba(rng, rng.randint(1, 5), ("a", "b"))
    checked = []
    real_quotient, real_reaching = decide._quotient, decide.reaching
    seen = {}

    def quotient(name, alphabet, table, finals, initial):
        seen["graph"] = table, finals
        return real_quotient(name, alphabet, table, finals, initial)

    def reach(nodes, adjacency, mark):
        out = real_reaching(nodes, adjacency, mark)
        table, finals = seen.pop("graph")
        plain = {q: sorted({t for row in rows for t in row}) for q, rows in enumerate(table)}
        want = ref_live(range(len(table)), plain, finals)
        assert {q for q in range(len(table)) if out[q]} == want
        checked.append(len(table))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_quotient", quotient)
        mp.setattr(decide, "reaching", reach)
        _reduce_nba(a)
        try:
            nba_complement(a)
        except ResourceLimitError:
            pass
    assert checked


def counted_tarjan(monkeypatch):
    """Count every tarjan_sccs call, from graphs.reaching and from decide."""
    calls = []

    def counted(nodes, adjacency):
        calls.append(len(nodes))
        return tarjan_sccs(nodes, adjacency)

    for module in (graphs_module, decide):
        monkeypatch.setattr(module, "tarjan_sccs", counted)
    return calls


def test_one_tarjan_pass_per_chain_quotient_and_loop_search(monkeypatch):
    rng = random.Random(5)
    aut = two_sink_pba(rng, 4)
    require_valid(aut)
    nba = random_nba(rng, 5, ("a", "b"))
    calls = counted_tarjan(monkeypatch)
    for _ in range(3):
        lasso_acceptance(aut, random_lasso(rng, aut.alphabet, 4))
    assert len(calls) == 3
    _reduce_nba(nba)
    assert len(calls) == 4
    n = 4
    profile = tuple(rng.randrange(1 << 2 * n) for _ in range(n))
    decide._loop_starts(profile, n)
    assert len(calls) == 5


@st.composite
def macro_steps(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    rows = tuple(draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n)))
    reject = draw(st.integers(0, n - 1))
    if draw(st.booleans()):  # make the reject absorbing, as in a monitor
        rows = rows[:reject] + (1 << reject,) + rows[reject + 1:]
    return rows, reject


@settings(max_examples=400, deadline=None)
@given(macro_steps())
def test_safe_start_mask_matches_reference(step):
    rows, reject = step
    assert _safe_start_mask(rows, reject) == ref_safe_start_mask(rows, reject)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.booleans())
def test_transition_monoid_matches_pop0_enumerator(seed, monitor):
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    if monitor:
        aut = random_fpm(rng, rng.randint(2, 6), alphabet)
    else:
        aut = random_nba(rng, rng.randint(1, 5), alphabet)
    got = [(w, x) for x, w in transition_monoid(aut).items()]
    assert got == ref_transition_monoid(aut)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_profile_monoid_matches_pop0_enumerator(seed):
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    a = random_nba(rng, rng.randint(1, 5), alphabet)
    n = len(a.states)
    full = (1 << n) - 1
    gens, acts, _ = _profile_tables(a)
    unpacked = [
        ((tuple(r & full for r in p), tuple(r >> n for r in p)), w)
        for p, w in dict(_monoid(gens, acts, a.alphabet, 10**6, None, "profile monoid")).items()
    ]
    assert unpacked == ref_profile_monoid(a)


# Profile monoids past this size are skipped: the oracle's pair loop is
# quadratic in the monoid, and a few draws of 7 states reach 10^5 elements.
PAIR_SCAN_CAP = 10_000


def pair_scan(a: Automaton) -> LassoWord | None:
    """:func:`nba_universality` with the lasso probe switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_universality_probe", lambda a, tables, cancel=None: None)
        return nba_universality(a, monoid_cap=PAIR_SCAN_CAP)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_pair_scan_matches_linked_pair_loop(seed):
    a = probe_nba(random.Random(seed))
    try:
        got = pair_scan(a)
    except ResourceLimitError:
        assume(False)
    assert got == ref_profile_pair_scan(a)


def test_pair_scan_cases_are_mixed():
    # Guard against a vacuous pair-scan property: the draws must be
    # universal, refuted with a nonempty stem, and wider than one byte
    # table per profile row (2n > 8), each often.
    rng = random.Random(16)
    universal = stemmed = wide = 0
    for _ in range(300):
        a = probe_nba(rng)
        try:
            w = pair_scan(a)
        except ResourceLimitError:
            continue
        universal += w is None
        stemmed += w is not None and bool(w.stem)
        wide += 2 * len(a.states) > 8
    assert universal >= 15 and stemmed >= 100 and wide >= 60


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_cycle_word_is_the_reach_word_of_the_state_itself(seed):
    rng = random.Random(seed)
    a = random_nba(rng, rng.randint(1, 7), rng.choice([("a", "b"), ("a", "b", "c")]))
    for f in a.states:
        got = next((w for t, w in _discover(_first_steps(a, f), a.successors, a.alphabet)
                    if t == f), None)
        assert got == ref_lex_cycle_word(a, f)


def test_two_sink_chains_have_mixed_nodes():
    # Guard against a vacuous chain property: the two-sink machines must
    # give chains with unknowns (value None) and both kinds of bottom
    # component.
    rng = random.Random(7)
    mixed = both = 0
    for _ in range(200):
        aut = two_sink_pba(rng, rng.randint(1, 6))
        value_of, _, n_acc, n_rej = ref_chain_values(aut, random_lasso(rng, aut.alphabet, 4))
        mixed += any(v is None for v in value_of.values())
        both += n_acc > 0 and n_rej > 0
    assert mixed > 50 and both > 100


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.booleans())
def test_lex_reach_words_matches_layered_bfs(seed, monitor):
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    if monitor:
        aut = random_fpm(rng, rng.randint(2, 7), alphabet)
    else:
        aut = random_nba(rng, rng.randint(1, 7), alphabet)
    for start in aut.states:
        for at_least_one in (False, True):
            seeds = _first_steps(aut, start) if at_least_one else [(start, ())]
            got = dict(_discover(seeds, aut.successors, aut.alphabet))
            want = ref_lex_reach_words(aut, start, at_least_one)
            assert list(got.items()) == list(want.items())


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_reduce_nba_matches_reference_reduction(seed):
    rng = random.Random(seed)
    a = random_nba(rng, rng.randint(1, 3), rng.choice([("a", "b"), ("a", "b", "c")]))
    big = random_nba(rng, rng.randint(1, 9), a.alphabet)
    assert serialize(_reduce_nba(big)) == serialize(ref_reduce_nba(big))
    assert serialize(nba_complement(a)) == serialize(ref_nba_complement(a))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.booleans())
def test_nba_lasso_member_matches_reference_product(seed, deterministic):
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    if deterministic:  # one run per word, from a dra's transitions
        d = random_dra(rng, rng.randint(1, 6), 1, alphabet)
        a = Automaton(
            name="det",
            role="nba",
            alphabet=alphabet,
            states=d.states,
            initial=d.initial,
            acceptance=BuchiAcceptance(d.rabin_pairs[0][1]),
            transitions=d.transitions,
        )
    else:
        a = random_nba(rng, rng.randint(1, 7), alphabet)
    for _ in range(8):
        w = random_lasso(rng, alphabet, 5)
        assert nba_lasso_member(a, w) == ref_nba_lasso_member(a, w)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_monitor_feed_matches_reference_loop(seed):
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    m = random_fpm(rng, rng.randint(2, 7), alphabet)
    word = [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
    session = MonitorSession(m)
    got = [session.feed(a) for a in word]
    rejects, state = ref_monitor_run(m, word)
    assert got == rejects
    assert list(ref_session_state(session).items()) == list(state.items())
    assert ref_masses(m, word) == {q: p for q, p in state.items() if p}


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from(FOLD_KINDS), st.integers(min_value=1, max_value=5))
def test_folded_absorption_matches_dense_solve(seed, kind, length):
    aut, w = fold_case(random.Random(seed), kind, length)
    want, dense = ref_dense_acceptance(aut, w)
    assert lasso_acceptance(aut, w) == want
    heads = _absorption(build_lasso_chain(aut, w), length)
    assert heads == {n: v for n, v in dense.items() if n[1] == 0}


def test_fold_cases_have_mixed_nodes():
    # Guard against a vacuous fold property: the drawn cases must have
    # mixed nodes at cycle position 0, also with a cycle of length 1, and
    # several of them reached by stems that spread the start of the cycle
    # over more than one state.
    rng = random.Random(11)
    mixed = single = spread = 0
    for i in range(400):
        length = 1 + i % 5
        aut, w = fold_case(rng, FOLD_KINDS[i % len(FOLD_KINDS)], length)
        chain = build_lasso_chain(aut, w)
        heads = [n for n in chain.nodes if n[1] == 0 and chain.value_of[n] is None]
        mixed += bool(heads)
        single += bool(heads) and length == 1
        spread += len(heads) > 1 and len(chain.initial) > 1
    assert mixed > 150 and single > 30 and spread > 60


def twinned_nba(rng: random.Random) -> Automaton:
    """A nonempty NBA in which every state q has a copy q' with q's row and
    finality; each edge goes at random into its target or the target's copy,
    so q and q' are bisimilar and merge whenever both are reached."""
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    base = random_nba(rng, rng.randint(2, 8), alphabet)
    while not ref_reduce_nba(base).final_states:
        base = random_nba(rng, rng.randint(2, 8), alphabet)
    trans = {}
    for (q, a), row in base.transitions.items():
        targets = tuple(sorted({t + "'" if rng.random() < 0.5 else t for t in row}))
        trans[(q, a)] = trans[(q + "'", a)] = targets
    return Automaton(
        name="twinned",
        role="nba",
        alphabet=alphabet,
        states=tuple(s for q in base.states for s in (q, q + "'")),
        initial=base.initial,
        acceptance=BuchiAcceptance(
            frozenset(s for q in base.final_states for s in (q, q + "'"))
        ),
        transitions=trans,
    )


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_reduce_nba_matches_reference_reduction_on_twinned_nbas(seed):
    a = twinned_nba(random.Random(seed))
    assert serialize(_reduce_nba(a)) == serialize(ref_reduce_nba(a))


def test_twinned_nbas_merge_states():
    # Guard against a vacuous twinned property: nearly every drawn case must
    # keep more states after the trim than its quotient has blocks, so some
    # block has several members.
    rng = random.Random(12)
    merged = 0
    for _ in range(300):
        a = twinned_nba(rng)
        adjacency = a.support_adjacency()
        live = ref_live(a.states, adjacency, a.final_states)
        kept, stack = {a.initial}, [a.initial]
        while stack:
            for t in adjacency[stack.pop()]:
                if t in live and t not in kept:
                    kept.add(t)
                    stack.append(t)
        merged += len(_reduce_nba(a).states) < len(kept)
    assert merged >= 270


def complement_outcome(complement, a: Automaton) -> str:
    """The serialized complement, or the name of the limit it ran into."""
    try:
        return serialize(complement(a))
    except ResourceLimitError as err:
        return f"limit {err.cap_name}"


# A state limit low enough that the reference exploration stays quick on
# every drawn input; both sides read it when called.
TEST_STATE_LIMIT = 1_000


def complement_outcomes(a: Automaton) -> tuple[str, str]:
    """The complement's and the reference's outcomes under the test limit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "COMPLEMENT_STATE_LIMIT", TEST_STATE_LIMIT)
        return (complement_outcome(nba_complement, a),
                complement_outcome(ref_nba_complement, a))


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_nba_complement_matches_reference_exploration(seed):
    rng = random.Random(seed)
    a = random_nba(rng, rng.randint(1, 4), rng.choice([("a", "b"), ("a", "b", "c")]))
    got, want = complement_outcomes(a)
    assert got == want


def small_twinned_nba(rng: random.Random) -> Automaton:
    """A twinned NBA within the default complementation cap of 10 states."""
    a = twinned_nba(rng)
    while len(a.states) > 10:
        a = twinned_nba(rng)
    return a


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_nba_complement_matches_reference_exploration_on_twinned_nbas(seed):
    got, want = complement_outcomes(small_twinned_nba(random.Random(seed)))
    assert got == want


def test_complement_cases_are_mostly_built():
    # Guard against vacuous complement properties: most drawn cases of
    # either kind must finish under the test limit with a nonempty result.
    rng = random.Random(13)
    plain = twinned = 0
    for _ in range(40):
        a = random_nba(rng, rng.randint(1, 4), rng.choice([("a", "b"), ("a", "b", "c")]))
        plain += "final: kv" in complement_outcomes(a)[0]
        twinned += "final: kv" in complement_outcomes(small_twinned_nba(rng))[0]
    assert plain >= 20 and twinned >= 20


def explored_table(a: Automaton) -> list | None:
    """The macro-state table nba_complement hands to _quotient under the test
    limit, or None when the exploration runs into a limit."""
    tables = []
    real = decide._quotient

    def spy(name, alphabet, table, finals, initial):
        tables.append(table)
        return real(name, alphabet, table, finals, initial)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_quotient", spy)
        mp.setattr(decide, "COMPLEMENT_STATE_LIMIT", TEST_STATE_LIMIT)
        complement_outcome(nba_complement, a)
    return tables[0] if tables else None


def shares_rows(table: list | None) -> bool:
    """Is some row of the table the same list object as another?"""
    rows = [row for rows in table or () for row in rows]
    return len({id(row) for row in rows}) < len(rows)


def test_complement_rows_are_mostly_shared():
    # Guard against a vacuous memo: in most drawn cases of either kind some
    # row of the explored table must be served again from the row memo, so
    # the reference comparisons above run the shared path.
    rng = random.Random(13)
    plain = twinned = 0
    for _ in range(40):
        a = random_nba(rng, rng.randint(1, 4), rng.choice([("a", "b"), ("a", "b", "c")]))
        plain += shares_rows(explored_table(a))
        twinned += shares_rows(explored_table(small_twinned_nba(rng)))
    assert plain >= 20 and twinned >= 20


def memo_reuse(a: Automaton) -> tuple[int, int] | None:
    """How often nba_complement, under the test limit, reuses a ranking's
    rank bounds and a bound set's rank choices; None when the exploration
    runs into a limit.  Every macro-state reads its ranking's bounds and
    every row-memo miss, one fresh row in the table, its bound set's
    choices; each memo miss is one call of the helper behind it."""
    calls = {"_rank_bounds": 0, "_rank_choices": 0}

    def counted(name):
        real = getattr(decide, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(decide, name, counted(name))
        table = explored_table(a)
    if table is None:
        return None
    fresh_rows = len({id(row) for rows in table for row in rows})
    return len(table) - calls["_rank_bounds"], fresh_rows - calls["_rank_choices"]


def reuses_both(reuse: tuple[int, int] | None) -> bool:
    return reuse is not None and min(reuse) > 0


def test_complement_bounds_and_choices_are_mostly_reused():
    # Guard against vacuous memos: in most drawn cases of either kind that
    # finish under the test limit, both the bounds memo and the rank-choice
    # memo must be hit, so the reference comparisons above run the shared
    # paths.  About half of the twinned draws run into the limit.
    rng = random.Random(13)
    plain, twinned = [], []
    for _ in range(40):
        a = random_nba(rng, rng.randint(1, 4), rng.choice([("a", "b"), ("a", "b", "c")]))
        plain.append(memo_reuse(a))
        twinned.append(memo_reuse(small_twinned_nba(rng)))
    for reuse in (plain, twinned):
        built = [r for r in reuse if r is not None]
        reused = sum(map(reuses_both, built))
        assert reused >= 15 and 2 * reused > len(built)


def test_check_trusted_refuses_what_the_constructor_would_change():
    # The trusted-path check has teeth: a row out of declaration order or
    # with a repeated target is refused.
    for row in (("kv1", "kv0"), ("kv0", "kv0")):
        bad = Automaton._trusted(
            name="bad", role="nba", alphabet=("a",), states=("kv0", "kv1"),
            initial="kv0", acceptance=BuchiAcceptance(frozenset({"kv0"})),
            transitions={("kv0", "a"): row, ("kv1", "a"): ("kv0",)},
        )
        with pytest.raises(AssertionError):
            check_trusted(bad)


def test_complement_state_limit_one_below_a_shared_exploration():
    # The largest shared exploration among the guard's plain draws, with the
    # state limit one below its size: the memo discovers no state, so the
    # complement must stop exactly where the reference does.
    rng = random.Random(13)
    draws = []
    for _ in range(40):
        a = random_nba(rng, rng.randint(1, 4), rng.choice([("a", "b"), ("a", "b", "c")]))
        small_twinned_nba(rng)
        table = explored_table(a)
        if shares_rows(table):
            draws.append((len(table), a))
    explored, a = max(draws, key=lambda d: d[0])
    assert explored > 10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "COMPLEMENT_STATE_LIMIT", explored - 1)
        got = complement_outcome(nba_complement, a)
        want = complement_outcome(ref_nba_complement, a)
    assert got == want == "limit state_cap"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "COMPLEMENT_STATE_LIMIT", explored)
        got = complement_outcome(nba_complement, a)
        assert got == complement_outcome(ref_nba_complement, a)
    assert got.startswith("type: nba")


def rank_outcome(fn, *args):
    """The choices, or the branch-limit error's message, cap name and value."""
    try:
        return ("ok", fn(*args))
    except ResourceLimitError as exc:
        return ("limit", str(exc), exc.cap_name, exc.cap_value)


def test_rank_choices_match_the_reference(monkeypatch):
    # Random bound sets as _rank_bounds makes them (state indices in order,
    # bounds up to 2n), under a branch limit small enough that both sides
    # raise on some: the same choices in the same order, or the same error.
    limit = 1_000
    monkeypatch.setattr(decide, "COMPLEMENT_BRANCH_LIMIT", limit)
    rng = random.Random(3131)
    outcomes = {"ok": 0, "limit": 0}
    for _ in range(2_000):
        n = rng.randint(1, 7)
        final = [rng.random() < 0.5 for _ in range(n)]
        bounds = tuple((t, rng.randint(0, 2 * n))
                       for t in sorted(rng.sample(range(n), rng.randint(0, n))))
        got = rank_outcome(decide._rank_choices, bounds, final)
        assert got == rank_outcome(ref_rank_choices, bounds, final, limit), (bounds, final)
        outcomes[got[0]] += 1
    # Vacuity guard: bound sets within the limit and past it.
    assert min(outcomes.values()) >= 100, outcomes


def test_rank_choices_raise_exactly_past_the_branch_limit():
    # At the fixed limit, on a non-final and on a final state: exactly limit
    # choices are built, and one allowed rank more raises as the reference.
    limit = decide.COMPLEMENT_BRANCH_LIMIT
    for t, bound, final in ((0, limit - 1, [False]), (1, 2 * limit - 2, [False, True])):
        assert len(decide._rank_choices(((t, bound),), final)) == limit
        past = ((t, bound + (2 if final[t] else 1)),)
        got = rank_outcome(decide._rank_choices, past, final)
        assert got[0] == "limit" and got == rank_outcome(ref_rank_choices, past, final, limit)


def fpm_case(rng: random.Random, complemented: bool) -> Automaton:
    """A random monitor, or the complementation monitor of a random PBA,
    which is far more often universal."""
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    if complemented:
        return complement_to_fpm(random_pba(rng, rng.randint(1, 4), alphabet))
    return random_fpm(rng, rng.randint(2, 7), alphabet)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.booleans())
def test_fpm_positive_universal_matches_exhaustive_scan(seed, complemented):
    m = fpm_case(random.Random(seed), complemented)
    want = ref_fpm_positive_universal(m)
    assert fpm_positive_universal(m) == (None if want is None else want[0])


def test_fpm_universality_cases_are_mixed():
    # Guard against a vacuous universality property: both answers must be
    # common, and many witness elements must not be idempotent, so the
    # lazy scan has to find an element the idempotent masks do not list.
    rng = random.Random(14)
    universal = refuted = non_idempotent = 0
    for i in range(600):
        want = ref_fpm_positive_universal(fpm_case(rng, i % 2 == 0))
        if want is None:
            universal += 1
        else:
            refuted += 1
            rows = want[1]
            non_idempotent += ref_compose(rows, rows) != rows
    assert universal >= 30 and refuted >= 30 and non_idempotent >= 30


def test_doomed_mask_is_the_idempotent_powers():
    # doomed(x) == doomed(x^omega) on every monoid element, where x^omega is
    # the idempotent among the powers of x, by the oracle and the kernel.
    rng = random.Random(15)
    for _ in range(300):
        m = random_fpm(rng, rng.randint(2, 7), rng.choice([("a", "b"), ("a", "b", "c")]))
        reject = m.index[m.reject]
        for _, x in ref_transition_monoid(m):
            e = x
            while ref_compose(e, e) != e:
                e = ref_compose(e, x)
            doomed = ref_safe_start_mask(x, reject)
            assert ref_safe_start_mask(e, reject) == doomed
            assert _safe_start_mask(e, reject) == doomed


def random_weights(rng: random.Random) -> list[Fraction]:
    """1 to 8 weights summing to one over a denominator 2^i 3^j of up to
    about 2^89, some of them zero.  Longer vectors are drawn more often, so
    most picks refine past the first bit."""
    den = 2 ** rng.randint(0, 64) * 3 ** rng.randint(0, 16)
    k = 9 - min(rng.randint(1, 8), rng.randint(1, 8))
    raw = [0 if rng.random() < 0.15 else rng.randint(1, 2**32) for _ in range(k)]
    if not any(raw):
        raw[-1] = 1
    total = sum(raw)
    nums = [r * den // total for r in raw[:-1]]
    nums.append(den - sum(nums))
    return [Fraction(x, den) for x in nums]


class CountingBits:
    """A bit source that counts the bits drawn from it."""

    def __init__(self, seed: int):
        self.source = ref_bits(seed)
        self.drawn = 0

    def bit(self) -> int:
        self.drawn += 1
        return self.source.bit()


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(min_value=0, max_value=2**64 - 1))
def test_pick_matches_fraction_pick(seed, bit_seed):
    weights = random_weights(random.Random(seed))
    ours, ref = ref_bits(bit_seed), ref_bits(bit_seed)
    den, cum = _cumulative(weights)
    for _ in range(4):
        assert ref_integer_pick(den, cum, ours) == ref_pick(weights, ref)
        assert vars(ours) == vars(ref)


def test_drawn_picks_need_several_bits():
    # Guard against a vacuous pick property: most drawn picks must refine
    # the interval more than once, not end on the first bit or before it.
    rng = random.Random(13)
    several = total = 0
    for _ in range(500):
        weights = random_weights(rng)
        den, cum = _cumulative(weights)
        bits = CountingBits(rng.getrandbits(64))
        for _ in range(4):
            bits.drawn = 0
            ref_integer_pick(den, cum, bits)
            several += bits.drawn >= 2
            total += 1
    assert several >= 0.8 * total
    assert {len(random_weights(rng)) for _ in range(500)} == set(range(1, 9))


MC_KINDS = ["pba", "fpm", "hpba", "pra", "two-sink", "ring", "stretch", "succinct"]


def mc_case(rng: random.Random, kind: str):
    """An automaton of ``kind`` and a lasso with a stem and cycle of up to 3.

    The conftest machines mostly accept with probability 0 or 1, where any
    walk gives the same mean; the two-sink and ring machines mostly do not.
    The stretch rings and succinct monitors have chains with single-target
    stretches of two steps or more.
    """
    n = rng.randint(1, 6)
    aut = {
        "pba": lambda: random_pba(rng, n),
        "fpm": lambda: random_fpm(rng, max(n, 2)),
        "hpba": lambda: random_hpba(rng, n),
        "pra": lambda: random_pra(rng, n, rng.randint(1, 3)),
        "two-sink": lambda: two_sink_pba(rng, n),
        "ring": lambda: leaky_ring(rng, n, rabin=rng.random() < 0.5),
        "stretch": lambda: stretch_ring(rng, n + 2),
        "succinct": lambda: gen_succinct(n),
    }[kind]()
    return aut, random_lasso(rng, aut.alphabet, 3)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(MC_KINDS))
def test_mc_estimate_matches_fraction_sampler(seed, kind):
    rng = random.Random(seed)
    aut, w = mc_case(rng, kind)
    mc_seed = rng.getrandbits(64)
    assert mc_lasso_estimate(aut, w, 40, mc_seed) == ref_mc_estimate(aut, w, 40, mc_seed)


def test_mc_cases_have_mixed_means():
    # Guard against a vacuous estimate property: a fair share of the drawn
    # cases must have a mean strictly between 0 and 1, which a wrong pick
    # can move.
    rng = random.Random(14)
    mixed = 0
    for i in range(300):
        aut, w = mc_case(rng, MC_KINDS[i % len(MC_KINDS)])
        mixed += 0 < mc_lasso_estimate(aut, w, 40, rng.getrandbits(64)).mean < 1
    assert mixed >= 60


def test_stretch_cases_jump_and_have_mixed_means():
    # Guard against a vacuous jump: many drawn stretch rings must have a
    # sample that moves two or more steps in a row from single-target
    # nodes, which the sampler jumps over, and many a mean strictly
    # between 0 and 1, which a wrong jump end can move.
    rng = random.Random(15)
    jumped = mixed = 0
    for _ in range(100):
        aut, w = mc_case(rng, "stretch")
        samples = list(ref_samples(aut, w, 40, rng.getrandbits(64)))
        jumped += max(stretch for _, _, stretch in samples) >= 2
        mixed += 0 < sum(accepted for accepted, _, _ in samples) < 40
    assert jumped >= 30 and mixed >= 30


def line_pba(m: int) -> Automaton:
    """s0 -> s1 -> ... -> sm with probability one, sm absorbing and
    accepting: every sample of ``;a`` takes exactly m moves, all of them
    from single-target nodes."""
    states = tuple(f"s{i}" for i in range(m + 1))
    trans = {(q, "a"): ((states[min(i + 1, m)], Fraction(1)),) for i, q in enumerate(states)}
    return Automaton(name="line", role="pba", alphabet=("a",), states=states, initial="s0",
                     acceptance=BuchiAcceptance(frozenset({states[-1]})), transitions=trans)


def mc_outcome(estimate, aut, w, n, seed):
    """The estimate, or the cap name and value of the step limit it hit."""
    try:
        return estimate(aut, w, n, seed)
    except ResourceLimitError as err:
        return err.cap_name, err.cap_value


@pytest.mark.parametrize("m", [1, 2, 7])
def test_mc_step_limit_counts_every_step_of_a_stretch(monkeypatch, m):
    aut, w = line_pba(m), LassoWord((), ("a",))
    for limit in range(m + 2):
        monkeypatch.setattr(sim, "MC_STEP_LIMIT", limit)
        got = mc_outcome(mc_lasso_estimate, aut, w, 5, 8)
        assert got == mc_outcome(partial(ref_mc_estimate, limit=limit), aut, w, 5, 8)
        assert got == (("step_cap", limit) if limit < m else McEstimate(1.0, 0.0, 5, 8))


@pytest.mark.parametrize("case", ["stretch ring", "leaky ring", "succinct"])
def test_mc_step_limit_boundary_matches_reference(monkeypatch, case):
    # With the limit at the most moves any of the n samples needs, all
    # answer; one below, the first sample that needs them raises, and the
    # samples before it still answer.
    rng = random.Random(16)
    aut, w = {
        "stretch ring": lambda: (stretch_ring(rng, 6), LassoWord(("a",), ("a", "b", "a"))),
        "leaky ring": lambda: (leaky_ring(rng, 4, rabin=False), LassoWord((), ("a", "b"))),
        "succinct": lambda: (gen_succinct(3), LassoWord(("b",), tuple("abbc"))),
    }[case]()
    n, seed = 200, 17
    samples = list(ref_samples(aut, w, n, seed))
    most = max(moves for _, moves, _ in samples)
    first = next(i for i, (_, moves, _) in enumerate(samples) if moves == most)
    assert most >= 3 and first >= 1
    monkeypatch.setattr(sim, "MC_STEP_LIMIT", most)
    assert mc_lasso_estimate(aut, w, n, seed) == ref_mc_estimate(aut, w, n, seed, limit=most)
    monkeypatch.setattr(sim, "MC_STEP_LIMIT", most - 1)
    assert mc_lasso_estimate(aut, w, first, seed) == ref_mc_estimate(aut, w, first, seed, limit=most - 1)
    for count in (first + 1, n):
        assert mc_outcome(mc_lasso_estimate, aut, w, count, seed) == ("step_cap", most - 1)
        assert mc_outcome(partial(ref_mc_estimate, limit=most - 1), aut, w, count, seed) == ("step_cap", most - 1)


# Root seeds for the lane-wise seeding: both ends of the 64-bit range, its
# top bit alone, and one drawn value.
LANE_ROOTS = [0, 1, 2**63, 2**64 - 1, random.Random(19).getrandbits(64)]


def ref_first_words(root: int, n: int) -> list[tuple[int, int]]:
    """``(state, word)`` per sample: the sample's generator state after its
    first step, and the 64 bits that step gives, lowest first."""
    out = []
    for i in range(n):
        bits = ref_bits(ref_sample_seed(root, i))
        word = sum(bits.bit() << j for j in range(64))
        out.append((bits._state, word))
    return out


@pytest.mark.parametrize("root", LANE_ROOTS)
def test_lane_first_words_match_the_per_sample_generator(root):
    # One sample, one short of a block, a block, one past it, and two
    # blocks and one sample.
    want = ref_first_words(root, 2049)
    for n in (1, 1023, 1024, 1025, 2049):
        assert list(sim._first_words(root, n)) == want[:n]


def test_lanes_built_through_the_byte_swapped_path_match_the_per_sample_generator(monkeypatch):
    # A host of the other byte order stores every array word byte-swapped.
    # Hand the lane code arrays stored that way, read the arrays it returns
    # that way, and set ``swap`` for that host: the lanes must not change.
    lanes, words = sim._lanes, sim._words

    def foreign_lanes(native: array) -> int:
        stored = array("Q", native)
        stored.byteswap()
        return lanes(stored, not sim._SWAP)

    def foreign_words(x: int, count: int) -> array:
        stored = words(x, count, not sim._SWAP)
        stored.byteswap()
        return stored

    monkeypatch.setattr(sim, "_lanes", foreign_lanes)
    monkeypatch.setattr(sim, "_words", foreign_words)
    root = LANE_ROOTS[-1]
    assert list(sim._first_words(root, 1025)) == ref_first_words(root, 1025)


def slow_leak_pba() -> Automaton:
    """s stays on a with probability 9/10 and leaks 1/20 each to an accepting
    and a rejecting sink: acceptance 1/2, and ten picks per sample on
    average, none of them dyadic."""
    F = Fraction
    trans = {("s", "a"): (("s", F(9, 10)), ("acc", F(1, 20)), ("rej", F(1, 20))),
             ("acc", "a"): (("acc", F(1)),), ("rej", "a"): (("rej", F(1)),)}
    return Automaton(name="slow_leak", role="pba", alphabet=("a",), states=("s", "acc", "rej"),
                     initial="s", acceptance=BuchiAcceptance(frozenset({"acc"})), transitions=trans)


def test_mc_estimate_past_one_block_matches_the_reference(monkeypatch):
    drawn = []

    class TallyBits(ref_bits):
        """ref_bits that records how many bits each sample draws."""

        def __init__(self, seed: int):
            super().__init__(seed)
            self.index = len(drawn)
            drawn.append(0)

        def bit(self) -> int:
            drawn[self.index] += 1
            return super().bit()

    monkeypatch.setitem(globals(), "ref_bits", TallyBits)
    aut, w, root = slow_leak_pba(), LassoWord((), ("a",)), LANE_ROOTS[-1]
    want = ref_mc_estimate(aut, w, 1025, root)
    assert mc_lasso_estimate(aut, w, 1025, root) == want
    # Guard against a vacuous differential: the mean is one a wrong bit can
    # move, and ten samples or more draw past their first word, so the
    # sampler's own refill after the batched first word runs.
    assert len(drawn) == 1025 and 0 < want.mean < 1 and sum(d > 64 for d in drawn) >= 10, (want.mean, sorted(drawn)[-12:])


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_monitor_feed_matches_reference_loop_on_long_streams(seed):
    # Streams of up to 200 symbols cross the session's periodic reduction
    # of its numerators many times.
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    m = random_fpm(rng, rng.randint(2, 7), alphabet)
    word = [rng.choice(alphabet) for _ in range(rng.randint(0, 200))]
    session = MonitorSession(m)
    got = [session.feed(a) for a in word]
    rejects, state = ref_monitor_run(m, word)
    assert got == rejects
    assert list(ref_session_state(session).items()) == list(state.items())
    assert list(monitor_stream(m, word)) == [Fraction(0)] + rejects


def test_monitor_denominator_stays_bounded():
    # The masses settle at 1/2 on s and t, so the exact denominator is 2;
    # without the periodic reduction the stored one would double on every
    # symbol.
    half = Fraction(1, 2)
    m = Automaton(
        name="halves",
        role="fpm",
        alphabet=("a",),
        states=("s", "t", "rej"),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s", "t"})),
        transitions={
            ("s", "a"): (("s", half), ("t", half)),
            ("t", "a"): (("s", half), ("t", half)),
            ("rej", "a"): (("rej", Fraction(1)),),
        },
        reject="rej",
    )
    session = MonitorSession(m)
    widest = 0
    for _ in range(5000):
        assert session.feed("a") == 0
        widest = max(widest, ref_session_den(session).bit_length())
    assert widest < 64
    assert ref_session_state(session) == {"s": half, "t": half}


def test_monitor_denominator_stays_bounded_on_odd_weights():
    # As above with weights over 6: the masses settle at 1/6 and 5/6, and
    # the periodic reduction must divide out the odd part of the stored
    # denominator, not only its power of two.
    sixth = Fraction(1, 6)
    row = (("s", sixth), ("t", 5 * sixth))
    m = Automaton(
        name="sixths",
        role="fpm",
        alphabet=("a",),
        states=("s", "t", "rej"),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s", "t"})),
        transitions={("s", "a"): row, ("t", "a"): row, ("rej", "a"): (("rej", Fraction(1)),)},
        reject="rej",
    )
    session = MonitorSession(m)
    widest = 0
    for _ in range(5000):
        assert session.feed("a") == 0
        widest = max(widest, ref_session_den(session).bit_length())
    assert widest < 64
    assert ref_session_state(session) == {"s": sixth, "t": 5 * sixth}


# A prime far above the rows' other primes, next to products of the small
# primes 2, 3, 5 and 7, so the odd part of a session's denominator mixes
# several primes and its gcds meet a large one.
BIG_PRIME = 1_000_003
MIXED_DENOMINATORS = [2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 21, 35, 49, 105,
                      BIG_PRIME, 2 * BIG_PRIME, 3 * BIG_PRIME]


def mixed_prime_fpm(rng: random.Random):
    """Monitor whose rows have denominators mixing 2, 3, 5, 7 and
    :data:`BIG_PRIME`, and a stream for it."""
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    live = tuple(f"q{i}" for i in range(rng.randint(1, 5)))
    states = live + ("rej",)
    dens = rng.sample(MIXED_DENOMINATORS, rng.randint(1, 4))
    trans = {}
    for q in live:
        for a in alphabet:
            d = rng.choice(dens)
            k = rng.randint(1, min(len(states), 3, d))
            cuts = sorted(rng.sample(range(1, d), k - 1))
            parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [d])]
            targets = rng.sample(states, k)
            trans[(q, a)] = tuple((t, Fraction(n, d)) for t, n in zip(targets, parts))
    for a in alphabet:
        trans[("rej", a)] = (("rej", Fraction(1)),)
    m = Automaton(
        name="mixed_primes",
        role="fpm",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=BuchiAcceptance(frozenset(live)),
        transitions=trans,
        reject="rej",
    )
    return m, [rng.choice(alphabet) for _ in range(rng.randint(0, 60))]


def feed_mixed_prime_case(m, word):
    """Feed ``word`` and check every reject mass is a canonical Fraction
    and the session's split of its denominator; returns the masses and
    whether the running denominator held a power of two next to an odd
    prime, held :data:`BIG_PRIME`, and had a reject mass reduced by it."""
    session = MonitorSession(m)
    got = []
    mixed = big = big_content = False
    for a in word:
        r = session.feed(a)
        assert gcd(r.numerator, r.denominator) == 1 and r.denominator > 0
        assert hash(r) == hash(Fraction(r.numerator, r.denominator))
        got.append(r)
        # The split is the running denominator's: an odd part and a power of two.
        assert session._odd % 2 == 1 and session._twos >= 0
        mixed |= session._twos > 0 and any(session._odd % p == 0 for p in (3, 5, 7))
        big |= session._odd % BIG_PRIME == 0
        big_content |= r > 0 and (ref_session_den(session) // r.denominator) % BIG_PRIME == 0
    return got, session, (mixed, big, big_content)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_monitor_feed_matches_reference_loop_on_mixed_primes(seed):
    rng = random.Random(seed)
    m, word = mixed_prime_fpm(rng)
    got, session, _ = feed_mixed_prime_case(m, word)
    rejects, state = ref_monitor_run(m, word)
    assert got == rejects
    assert [(r.numerator, r.denominator) for r in got] == [
        (r.numerator, r.denominator) for r in rejects]
    assert list(ref_session_state(session).items()) == list(state.items())


def test_mixed_prime_cases_exercise_both_factor_kinds():
    # Guard against a vacuous mixed-prime property: the drawn streams must
    # often carry a power of two next to an odd prime, often carry the big
    # prime, and often reduce a reject mass by a power of it.
    rng = random.Random(31)
    counts = [0, 0, 0]
    for _ in range(200):
        _, _, seen = feed_mixed_prime_case(*mixed_prime_fpm(rng))
        counts = [c + s for c, s in zip(counts, seen)]
    assert counts[0] >= 60 and counts[1] >= 40 and counts[2] >= 30, counts


# ---------------------------------------------------------------------------
# Monitor sessions against their former feed


class RefMonitorSession(MonitorSession):
    """A monitor session with its former feed: each feed returns
    :attr:`reject_probability`, which reduces the reject mass from the
    session's state on every read.  The mass is built by the public
    ``Fraction`` constructor, whose own gcd would repair a mass that was
    not in lowest terms."""

    @property
    def reject_probability(self) -> Fraction:
        num, odd, k = self._nums.get(self._m.reject, 0), self._odd, self._twos
        low = num & ((1 << k) - 1)
        if low:
            k = (low & -low).bit_length() - 1
        if odd > 1:
            g = gcd(odd, num)
            num, odd = num // g, odd // g
        return Fraction(num >> k, odd << (self._twos - k))

    def feed(self, symbol: str) -> Fraction:
        if symbol not in self._split:
            raise MonitorError(symbol, self._position)
        sym_twos, sym_odd = self._split[symbol]
        self._nums = _walk(self._m, (self._nums, 1), symbol)[0]
        self._twos += sym_twos
        self._odd *= sym_odd
        self._position += 1
        if self._position % _REDUCE_PERIOD == 0:
            self._reduce()
        return self.reject_probability


def session_split(session):
    """A session's numerators in order, with its denominator's split."""
    return list(session._nums.items()), session._twos, session._odd


def feed_against_reference(m, word, unknown=()):
    """Feed ``word`` to a session and to :class:`RefMonitorSession` side by
    side, and before each position in ``unknown`` a symbol outside the
    alphabet, which both must refuse at the same position, leaving the
    session as it was.  Compares every mass, hash included, and the state
    after every feed.  Returns whether a reduction divided the state, some
    denominator had an odd part above 1, and some reject numerator over a
    power of two was even (the masked path) or odd (no mask)."""
    got, want = MonitorSession(m), RefMonitorSession(m)
    reduced = odd_part = even_num = odd_num = False
    for i, a in enumerate(word):
        if i in unknown:
            before = session_split(got), got.reject_probability
            with pytest.raises(MonitorError) as err:
                got.feed("?")
            with pytest.raises(MonitorError) as ref_err:
                want.feed("?")
            assert err.value.position == ref_err.value.position == i
            assert (session_split(got), got.reject_probability) == before
        twos, odd = got._twos, got._odd
        r, s = got.feed(a), want.feed(a)
        assert (r.numerator, r.denominator, hash(r)) == (s.numerator, s.denominator, hash(s))
        assert got.reject_probability is r
        assert session_split(got) == session_split(want)
        reduced |= got._twos < twos or got._odd < odd
        odd_part |= got._odd > 1
        num = got._nums.get(m.reject, 0)
        even_num |= got._twos > 0 and num > 0 and num % 2 == 0
        odd_num |= got._twos > 0 and num % 2 == 1
    return reduced, odd_part, even_num, odd_num


def session_case(rng: random.Random, kind: str):
    """A ``random_fpm`` or ``mixed_prime_fpm`` monitor, a stream of up to
    120 of its symbols, and up to three positions of unknown symbols."""
    if kind == "mixed-prime":
        m, _ = mixed_prime_fpm(rng)
    else:
        alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
        m = random_fpm(rng, rng.randint(2, 7), alphabet)
    word = [rng.choice(m.alphabet) for _ in range(rng.randint(0, 120))]
    return m, word, set(rng.sample(range(len(word) + 1), min(3, rng.randint(0, len(word)))))


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(["fpm", "mixed-prime"]))
def test_monitor_feed_matches_its_former_feed(seed, kind):
    feed_against_reference(*session_case(random.Random(seed), kind))


def test_monitor_feed_matches_its_former_feed_on_the_long_leak_stream():
    # 1 - (1023/1024)^n has an odd numerator over 1024^n, 30,000 bits wide
    # after 3,000 symbols; the stream ends on an unknown symbol.
    keep = Fraction(1023, 1024)
    leak = Automaton(
        name="leak", role="fpm", alphabet=("a",), states=("q", "rej"), initial="q",
        acceptance=BuchiAcceptance(frozenset({"q"})),
        transitions={("q", "a"): (("q", keep), ("rej", 1 - keep)), ("rej", "a"): (("rej", Fraction(1)),)},
        reject="rej",
    )
    seen = feed_against_reference(leak, ["a"] * 3000 + ["a"], unknown={3000})
    assert seen == (False, False, False, True)


def test_monitor_session_cases_exercise_every_path():
    # Guard against a vacuous differential: the drawn cases must cross
    # reductions that divide the state, carry odd denominator parts, and
    # reach the reject mass with even and with odd numerators over a power
    # of two.
    rng = random.Random(59)
    counts = [0, 0, 0, 0]
    for i in range(100):
        seen = feed_against_reference(*session_case(rng, ["fpm", "mixed-prime"][i % 2]))
        counts = [c + s for c, s in zip(counts, seen)]
    assert min(counts) >= 20, counts


# ---------------------------------------------------------------------------
# One integer walk for stems and monitor streams, against the Fraction step

WALK_KINDS = ["pba", "fpm", "mixed-prime"]


def ref_step(aut, masses, symbol):
    """State masses (state to ``Fraction``) moved by one ``symbol`` through a
    plain ``Fraction`` loop, exact zeros dropped: the package's former
    ``Distribution.step``."""
    out = {}
    for q, p in masses.items():
        for t, w in aut.prob_row(q, symbol):
            out[t] = out.get(t, 0) + p * w
    return {t: p for t, p in out.items() if p}


def ref_masses(aut, word):
    """The state masses after ``word`` from the initial state, by :func:`ref_step`."""
    masses = {aut.initial: Fraction(1)}
    for a in word:
        masses = ref_step(aut, masses, a)
    return masses


def walk_case(rng: random.Random, kind: str):
    """An automaton of ``kind`` and a word of up to 40 of its symbols."""
    if kind == "mixed-prime":
        aut, _ = mixed_prime_fpm(rng)
    else:
        alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
        aut = (random_pba if kind == "pba" else random_fpm)(rng, rng.randint(2, 6), alphabet)
    return aut, [rng.choice(aut.alphabet) for _ in range(rng.randint(0, 40))]


def walk_against_reference(aut, word):
    """Check the integer walk, read as fractions, against :func:`ref_step`
    after every symbol; returns whether some mass had a denominator with
    an odd factor and whether some mass had a denominator past 2^64."""
    walk, dist = ({aut.initial: 1}, 1), {aut.initial: Fraction(1)}
    odd = wide = False
    for a in word:
        walk, dist = _walk(aut, walk, a), ref_step(aut, dist, a)
        nums, den = walk
        got = [(q, Fraction(p, den)) for q, p in nums.items()]
        assert got == list(dist.items())
        odd |= any(p.denominator & (p.denominator - 1) for _, p in got)
        wide |= any(p.denominator >= 2**64 for _, p in got)
    return odd, wide


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(WALK_KINDS))
def test_integer_walk_matches_distribution_step(seed, kind):
    walk_against_reference(*walk_case(random.Random(seed), kind))


def test_walk_cases_have_odd_and_wide_denominators():
    # Guard against a vacuous walk property: the drawn cases must often
    # carry masses whose denominators have an odd factor, and often masses
    # whose denominators pass 2^64.
    rng = random.Random(41)
    odd = wide = 0
    for i in range(300):
        o, w = walk_against_reference(*walk_case(rng, WALK_KINDS[i % len(WALK_KINDS)]))
        odd += o
        wide += w
    assert odd >= 50 and wide >= 40, (odd, wide)


# ---------------------------------------------------------------------------
# Bounded lasso scans: one chain or product per cycle, not per lasso

SCAN_KINDS = ["pba", "fpm", "pra", "hpba", "two-sink", "ring-pra"]


def scan_automaton(rng: random.Random, kind: str) -> Automaton:
    n = rng.randint(1, 5)
    return {
        "pba": lambda: random_pba(rng, n),
        "fpm": lambda: random_fpm(rng, n + 1),
        "pra": lambda: random_pra(rng, n, rng.randint(1, 3)),
        "hpba": lambda: random_hpba(rng, n),
        "two-sink": lambda: two_sink_pba(rng, n),
        "ring-pra": lambda: leaky_ring(rng, n, rabin=True),
    }[kind]()


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.sampled_from(SCAN_KINDS), st.integers(min_value=1, max_value=3))
def test_cycle_values_match_lasso_values(seed, kind, bound):
    aut = scan_automaton(random.Random(seed), kind)
    stems = {}
    for u in all_words(aut.alphabet, 0, bound):
        stems[u] = ref_masses(aut, u)
    starts = frozenset().union(*stems.values())
    for v in all_words(aut.alphabet, 1, bound):
        values = _cycle_values(aut, starts, v)
        assert set(values) == starts
        for u, masses in stems.items():
            scored = sum((p * values[q] for q, p in masses.items()), Fraction(0))
            assert scored == _lasso_value(aut, LassoWord(u, v))


def containment_operands(rng: random.Random) -> tuple[Automaton, Automaton]:
    """Two random PBAs or monitors over a and b, of 1 to 5 states each."""

    def operand():
        n = rng.randint(1, 4)
        return random_pba(rng, n) if rng.random() < 0.5 else random_fpm(rng, n + 1)

    return operand(), operand()


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.sampled_from(["positive", "almost-sure"]), st.integers(min_value=1, max_value=3))
def test_containment_refute_matches_per_lasso_scan(seed, semantics, bound):
    b1, b2 = containment_operands(random.Random(seed))
    got = containment_refute(b1, b2, semantics, bound)
    assert got == ref_per_lasso_containment(b1, b2, semantics, bound)


def probe_nba(rng: random.Random) -> Automaton:
    return random_nba(rng, rng.randint(1, 7), rng.choice([("a", "b"), ("a", "b", "c")]))


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_universality_probe_matches_per_lasso_probe(seed):
    a = probe_nba(random.Random(seed))
    assert _universality_probe(a, _profile_tables(a)) == ref_universality_probe(a)


def test_scan_cases_refute_and_miss():
    # Guard against vacuous scan properties: the drawn cases must give
    # both answers often, under each semantics and in the probe.
    for semantics in ("positive", "almost-sure"):
        rng = random.Random(14)
        refuted = 0
        for i in range(300):
            b1, b2 = containment_operands(rng)
            refuted += containment_refute(b1, b2, semantics, 1 + i % 3) is not None
        assert refuted >= 30 and 300 - refuted >= 30
    rng = random.Random(15)
    hits = sum(_universality_probe(a, _profile_tables(a)) is not None
               for a in (probe_nba(rng) for _ in range(300)))
    assert hits >= 30 and 300 - hits >= 20


def cyclic_factor_nba() -> Automaton:
    """All words but a c w where c w has finitely many two-letter factors
    outside {ab, bc, ca}, that is, where a c w ends in a rotation of
    (abc)^omega.

    After a, the state s accepts whatever starts with a or b, through the
    universal state u.  After ac it remembers the last letter, in the
    final copy f after a factor outside the cycle.
    """
    alphabet = ("a", "b", "c")
    good = {("a", "b"), ("b", "c"), ("c", "a")}
    transitions = {("q0", "a"): ("s",), ("q0", "b"): ("u",), ("q0", "c"): ("u",),
                   ("s", "a"): ("u",), ("s", "b"): ("u",), ("s", "c"): ("qc",)}
    for y in alphabet:
        transitions[("u", y)] = ("u",)
        for x in alphabet:
            target = f"q{y}" if (x, y) in good else f"f{y}"
            transitions[(f"q{x}", y)] = transitions[(f"f{x}", y)] = (target,)
    return Automaton(
        name="cyclic_factor",
        role="nba",
        alphabet=alphabet,
        states=("q0", "s", "u", *(f"{c}{x}" for c in "qf" for x in alphabet)),
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"u", "fa", "fb", "fc"})),
        transitions=transitions,
    )


def test_universality_probe_reads_rotations_from_their_first_letter():
    # After stem a, s accepts (bca)^omega: b then u.  The probe reads that
    # from the least rotation abc, taking its preimage under b after the
    # one under c.  Taken in the other order, s would have to accept
    # c b (abc)^omega, which it rejects, and the probe would stop at bca
    # before the first rejected lasso, a (cab)^omega.
    a = cyclic_factor_nba()
    want = LassoWord(("a",), ("c", "a", "b"))
    assert _universality_probe(a, _profile_tables(a)) == want == ref_universality_probe(a)


# ---------------------------------------------------------------------------
# Exact word walks: word matrices on the final-passage walk, reach masses on
# the stem walk


def ref_word_matrix(aut, u):
    """The dense product of one per-symbol transition matrix per letter."""
    n = len(aut.states)
    result = ref_identity(aut.states)
    for a in u:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, q in enumerate(aut.states):
            for t, p in aut.prob_row(q, a):
                rows[i][aut.index[t]] += p
        result = ref_matmul(result, RationalMatrix(aut.states, tuple(map(tuple, rows))))
    return result


def ref_bounded_witness(b, max_len, max_j, x):
    """The bounded witness search that walked each reach word from the start."""
    words = list(all_words(b.alphabet, 1, max_len))
    dists = [ref_masses(b, u) for u in words]
    fps = [final_passage_matrix(b, u) for u in words]
    for size in range(1, len(b.states) + 1):
        for combo in itertools.combinations(b.states, size):
            c = frozenset(combo)
            u = next((w for w, d in zip(words, dists)
                      if sum((p for q, p in d.items() if q in c), Fraction(0)) > x),
                     None)
            if u is None:
                continue
            segments = []
            for j in range(1, max_j + 1):
                bound = 1 - Fraction(1, 2**j)
                seg = next((w for w, fp in zip(words, fps)
                            if all(fp.row_sum(q, c) > bound for q in c)), None)
                if seg is None:
                    break
                segments.append(seg)
            else:
                return AsymptoticWitness(c, u, tuple(segments), 1)
    return None


def walk_automaton(rng: random.Random) -> Automaton:
    """A random PBA or monitor over a and b, of 1 to 5 states."""
    n = rng.randint(1, 4)
    return random_pba(rng, n) if rng.random() < 0.5 else random_fpm(rng, n + 1)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(min_value=0, max_value=4))
def test_word_matrix_matches_dense_product(seed, length):
    rng = random.Random(seed)
    aut = walk_automaton(rng)
    u = tuple(rng.choice(aut.alphabet) for _ in range(length))
    assert word_matrix(aut, u) == ref_word_matrix(aut, u)


X_VALUES = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.sampled_from(X_VALUES))
def test_bounded_witness_matches_per_word_walk(seed, max_len, max_j, x):
    b = walk_automaton(random.Random(seed))
    got = pba_positive_nonempty_bounded(b, max_len, max_j, x)
    assert got == ref_bounded_witness(b, max_len, max_j, x)


def test_bounded_witness_cases_find_and_miss():
    # Guard against a vacuous witness property: the drawn cases must give
    # both answers, at every x.
    rng = random.Random(16)
    found = {x: 0 for x in X_VALUES}
    draws = {x: 0 for x in X_VALUES}
    for i in range(120):
        x = X_VALUES[i % 3]
        b = walk_automaton(rng)
        draws[x] += 1
        found[x] += pba_positive_nonempty_bounded(b, 1 + i % 3, 1 + i // 3 % 3, x) is not None
    for x in X_VALUES:
        assert 10 <= found[x] <= draws[x] - 10


# The witness re-check and lower bound before they shared one loop: the bound
# re-ran the check and then rebuilt every matrix.

import sys


def ref_verify_asymptotic_witness(b, w, x=Fraction(0)):
    if not w.states or not w.u or not w.segments:
        return False
    if word_matrix(b, w.u).row_sum(b.initial, w.states) <= x:
        return False
    for off, seg in enumerate(w.segments):
        j = w.start_index + off
        if not seg:
            return False
        fp = final_passage_matrix(b, seg)
        bound = 1 - Fraction(1, 2**j)
        if any(fp.row_sum(q, w.states) <= bound for q in w.states):
            return False
    return True


def ref_acceptance_lower_bound(b, w):
    from probuchi.core import require_valid
    from probuchi.decide import LassoLowerBound

    require_valid(b)
    if not ref_verify_asymptotic_witness(b, w):
        raise decide.AutomatonError("invalid asymptotic witness")
    z = word_matrix(b, w.u).row_sum(b.initial, w.states)
    value = z
    last_min = Fraction(1)
    for seg in w.segments:
        fp = final_passage_matrix(b, seg)
        last_min = min(fp.row_sum(q, w.states) for q in w.states)
        value *= last_min
    stem = w.u + tuple(itertools.chain.from_iterable(w.segments[:-1]))
    assembled = LassoWord(stem, w.segments[-1])
    return LassoLowerBound(value=value, asymptotic=last_min == 1, lasso=assembled)


def _witness_draws(rng):
    """Witnesses the search finds, then ones with a part swapped for a random
    (possibly empty) word, a state set with a stranger, an unknown symbol in
    some part or another start index."""
    while True:
        b = walk_automaton(rng)
        found = pba_positive_nonempty_bounded(b, rng.randint(1, 2), rng.randint(1, 3))
        if found is not None:
            yield b, found
        base = found or AsymptoticWitness(frozenset(b.states[:1]), ("a",), (("a",),))
        parts = [base.u, *base.segments]

        def word():
            return tuple(rng.choice("aab" if rng.random() < 0.8 else "abz")
                         for _ in range(rng.randint(0, 3)))

        for _ in range(rng.randint(1, 2)):
            parts[rng.randrange(len(parts))] = word()
        if rng.random() < 0.3:
            parts.append(word())
        states = frozenset(q for q in b.states if rng.random() < 0.6)
        if rng.random() < 0.1:
            states |= {"stranger"}
        yield b, AsymptoticWitness(rng.choice([base.states, states]), parts[0],
                                   tuple(parts[1:]), rng.choice([1, 1, 2, 3]))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the type is part of the outcome
        return ("error", type(exc), str(exc))


def test_witness_check_and_bound_match_the_reference(monkeypatch):
    # The check reads the stem mass off one row and each segment's return
    # off the witness states' rows, so decide has neither builder of its
    # own; the spies set there count one that comes back.
    builds = {}
    for module in (decide, sys.modules[__name__]):
        for name in ("word_matrix", "final_passage_matrix"):
            def spy(*args, _fn=getattr(markov, name), _key=(module, name)):
                builds[_key] = builds.get(_key, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, name, spy, raising=False)

    def counted(module, fn, *args):
        builds.clear()
        out = _outcome(fn, *args)
        return out, [builds.get((module, n), 0) for n in ("word_matrix", "final_passage_matrix")]

    rng = random.Random(1717)
    draws = _witness_draws(rng)
    verdicts = {True: 0, False: 0, "error": 0}
    bounds = 0
    for _ in range(600):
        b, w = next(draws)
        x = rng.choice(X_VALUES)
        ref, _ = counted(sys.modules[__name__], ref_verify_asymptotic_witness, b, w, x)
        got, got_builds = counted(decide, decide.verify_asymptotic_witness, b, w, x)
        assert got == ref and got_builds == [0, 0], (w, x, ref, got)
        verdicts[ref[1] if ref[0] == "ok" else "error"] += 1
        ref, _ = counted(sys.modules[__name__], ref_acceptance_lower_bound, b, w)
        got, got_builds = counted(decide, decide.acceptance_lower_bound, b, w)
        assert got == ref, (w, ref, got)
        if got[0] == "ok":
            bounds += 1
            assert got_builds == [0, 0]  # one pass over the witness, no matrix
    # Vacuity guard: witnesses that hold, fail and raise, and bounds built.
    assert verdicts[True] >= 100 and verdicts[False] >= 100 and verdicts["error"] >= 20, verdicts
    assert bounds >= 100, bounds


# ---------------------------------------------------------------------------
# Certificates without rational arithmetic: subset witnesses checked on
# supports, containment lassos scored on integers


def ref_verify_subset_witness(m, w):
    """The word-matrix check: the stem's mass on the set, then the support
    of each set state's row under the cycle."""
    if m.role != "fpm":
        raise decide.AutomatonError("verify_subset_witness needs an fpm")
    if not w.states or not w.u or not w.v or m.reject in w.states:
        return False
    if word_matrix(m, w.u).row_sum(m.initial, w.states) <= 0:
        return False
    matv = word_matrix(m, w.v)
    return all(ref_support(matv, q) <= w.states for q in w.states)


def _subset_witness_draws(rng):
    """Witnesses the search finds, then ones with a part swapped for a random
    (possibly empty) word that may hold an unknown symbol, with a random
    state set that may hold the reject or a stranger, or over a monitor
    whose row sums break validation."""
    while True:
        m = random_fpm(rng, rng.randint(2, 5))
        found = fpm_positive_empty(m)
        if found is not None:
            yield m, found
        base = found or SubsetWitness(frozenset(m.states[:1]), ("a",), ("a",))

        def word():
            return tuple(rng.choice("aab" if rng.random() < 0.9 else "abz")
                         for _ in range(rng.randint(0, 3)))

        parts = [base.states, base.u, base.v]
        if rng.random() < 0.5:
            parts[0] = frozenset(q for q in m.states if rng.random() < 0.5)
            if rng.random() < 0.1:
                parts[0] |= {"stranger"}
        parts[rng.randint(1, 2)] = word()
        if rng.random() < 0.05:
            m = replace(m, transitions={**m.transitions, ("q0", "a"): (("q0", Fraction(1, 2)),)})
        yield m, SubsetWitness(*parts)


def test_subset_witness_check_matches_the_word_matrix_check():
    rng = random.Random(2727)
    draws = _subset_witness_draws(rng)
    verdicts = {True: 0, False: 0, "error": 0}
    for _ in range(800):
        m, w = next(draws)
        ref = _outcome(ref_verify_subset_witness, m, w)
        got = _outcome(verify_subset_witness, m, w)
        assert got == ref, (w, ref, got)
        verdicts[ref[1] if ref[0] == "ok" else "error"] += 1
    # Vacuity guard: witnesses that hold, fail and raise.
    assert verdicts[True] >= 100 and verdicts[False] >= 100 and verdicts["error"] >= 20, verdicts


def test_almost_sure_counterexample_builds_no_matrix(monkeypatch):
    passages = []

    def spy(*args, _fn=markov._passage):
        passages.append(args[1])
        return _fn(*args)

    monkeypatch.setattr(markov, "_passage", spy)
    monkeypatch.setattr(decide, "_passage", spy)
    w = almost_sure_universal(gen_p3(Fraction(1, 3)))
    assert w == LassoWord((), ("x",)) and passages == []


def ref_containment_refute(b1, b2, semantics, bound, cycle_values=_cycle_values):
    """The ``Fraction`` scoring: each lasso's value is the sum of its stem's
    masses times the cycle's per-state values, divided by the stem's
    denominator."""
    if semantics not in ("positive", "almost-sure"):
        raise decide.AutomatonError("semantics must be positive or almost-sure")
    if b1.alphabet != b2.alphabet:
        raise decide.AutomatonError("containment needs a shared alphabet")
    if bound < 1:
        raise decide.AutomatonError("bound must be at least 1")
    for aut in (b1, b2):
        if not aut.is_probabilistic:
            raise decide.AutomatonError("lasso acceptance needs a probabilistic automaton")
    for aut in (b1, b2):
        require_valid(aut)
    autos = (b1, b2)

    def step(walks, sym):
        return tuple(_walk(aut, walk, sym) for aut, walk in zip(autos, walks))

    stems = decide._walk_stems(b1.alphabet, bound,
                               (({b1.initial: 1}, 1), ({b2.initial: 1}, 1)), step)
    starts = [frozenset().union(*(m[k][0] for m in stems.values())) for k in (0, 1)]
    values = ({}, {})

    def value(k, walks, v):
        per_state = values[k].get(v)
        if per_state is None:
            per_state = values[k][v] = cycle_values(autos[k], starts[k], v)
        nums, den = walks[k]
        return sum((p * per_state[q] for q, p in nums.items()), Fraction(0)) / den

    positive = semantics == "positive"
    for u, masses in stems.items():
        for v in all_words(b1.alphabet, 1, bound):
            p1 = value(0, masses, v)
            if positive:
                hit = p1 > 0 and value(1, masses, v) == 0
            else:
                hit = p1 == 1 and value(1, masses, v) < 1
            if not hit:
                continue
            w = LassoWord(u, v)
            scanned = (p1, value(1, masses, v))
            exact = (_lasso_value(b1, w), _lasso_value(b2, w))
            decide._certify(scanned == exact, b1, w, "containment witness {} scanned as {} "
                            "and {}, but its acceptance probabilities are {} and {}",
                            *scanned, *exact)
            return w
    return None


def skewed_cycle_values(rng):
    """Per-cycle values of which some states read 0, 1 or a random fraction
    instead of their exact value, drawn once per automaton and cycle."""
    drawn = {}

    def cycle_values(aut, starts, cycle):
        key = (id(aut), cycle)
        if key not in drawn:
            exact = _cycle_values(aut, starts, cycle)
            drawn[key] = {q: rng.choice([x, x, Fraction(0), Fraction(1),
                                         Fraction(rng.randint(0, 6), rng.randint(1, 6)) % 1])
                          for q, x in exact.items()}
        return drawn[key]

    return cycle_values


def test_containment_scoring_matches_fraction_scoring(monkeypatch):
    # On exact values the two scorings return the same lasso or None; on
    # skewed ones they also stop at the same lasso, and the per-lasso
    # re-check refuses it with the same message.
    rng = random.Random(2828)
    outcomes = {"hit": 0, "miss": 0, "refused": 0}
    for i in range(360):
        b1, b2 = containment_operands(rng)
        semantics, bound = ("positive", "almost-sure")[i % 2], 1 + i // 2 % 3
        values = _cycle_values if i % 3 else skewed_cycle_values(random.Random(i))
        monkeypatch.setattr(decide, "_cycle_values", values)
        got = _outcome(containment_refute, b1, b2, semantics, bound)
        ref = _outcome(ref_containment_refute, b1, b2, semantics, bound, values)
        assert got == ref, (i, got, ref)
        if got[0] == "error":
            assert got[1] is decide.CertificationError and values is not _cycle_values, got
            outcomes["refused"] += 1
        else:
            outcomes["miss" if got[1] is None else "hit"] += 1
    # Vacuity guard: lassos found, scans that miss and certificates refused.
    assert min(outcomes.values()) >= 30, outcomes
