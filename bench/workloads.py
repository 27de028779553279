"""The four workloads: inputs from a seed, queries, and expected answers.

A workload is a list of queries run in a closed loop by one caller.  Every
query carries its own check against an expected value from ``oracles``
(or written out from the paper's examples below), never from the code
under test.  ``sizes`` records the input sizes the results belong to.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import model
import oracles
from model import F, Spec

WHY = {
    "exact_lasso": "The paper's core query, exact lasso acceptance, on a mix where the chain "
                   "build, the absorption solve and per-call overhead each dominate one class.",
    "decide_certified": "Certified decisions through the boolean-monoid, profile and rank-based "
                        "searches; the Markov layer serves only to re-check certificates here.",
    "sample_stream": "The simulation layer: Monte Carlo over lasso chains and exact monitor "
                     "streams whose rationals grow to thousands of digits, with no absorption solve.",
    "cli_roundtrip": "One probuchi process per query, where interpreter start-up, import, "
                     "parsing and serialization dominate, as a user of the command line sees it.",
}

# Error text of the two known defects: str() of a rational above Python's
# integer-to-string limit.
DIGIT_LIMIT = "Exceeds the limit"


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_defect: str | None = None
    label: str = ""  # the input, for reports and the determinism self-check


@dataclass
class Workload:
    name: str
    queries: list[Query]
    sizes: dict = field(default_factory=dict)
    why: str = ""
    # Run once in set-up.  Picked before shuffling, so its cost does not
    # depend on the seed.
    warmup: list[Query] = field(default_factory=list)


def _first_of_each_kind(queries: list[Query]) -> list[Query]:
    seen: set[str] = set()
    return [q for q in queries if not (q.kind in seen or seen.add(q.kind))]


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"{seed}/{part}")


def _word(rng: random.Random, alphabet, lo: int, hi: int) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def _lasso_text(stem, cycle) -> str:
    return "".join(stem) + ";" + "".join(cycle)


def _equals(expected):
    return lambda got: got == expected


def _range(values) -> list:
    values = list(values)
    return [min(values), max(values)] if values else []


# ---------------------------------------------------------------------------
# Input families with answers known by construction


def uniform_leak_pba(rng: random.Random, n: int, leaks: dict) -> Spec:
    """n transient states on a ring plus one random extra target each; on
    symbol a every transient state leaks leaks[a] to the two sinks.

    With n coprime to the cycle length every (state, position) node is
    reachable and reaches both sinks, so the chain has n * L unknowns.
    """
    ts = [f"t{i}" for i in range(n)]
    rows: dict = {}
    for i, q in enumerate(ts):
        for a, (al, be) in leaks.items():
            ring = ts[(i + 1) % n]
            other = rng.choice([t for t in ts if t != ring])
            rest = (1 - al - be) / 2
            rows[(q, a)] = ((ring, rest), (other, rest), ("acc", al), ("rej", be))
    for a in leaks:
        rows[("acc", a)] = (("acc", F(1)),)
        rows[("rej", a)] = (("rej", F(1)),)
    return Spec("pba", tuple(leaks), tuple(ts) + ("acc", "rej"), "t0", rows,
                final=frozenset({"acc"}), name="leak_pba")


LEAK_PALETTE = [(F(1, 8), F(1, 8)), (F(1, 4), F(1, 8)), (F(1, 8), F(1, 4)),
                (F(1, 16), F(3, 16)), (F(3, 16), F(1, 16))]


def det_pra(rng: random.Random, n: int, npairs: int) -> Spec:
    """Probabilistic Rabin automaton whose rows all have probability one."""
    states = tuple(f"d{i}" for i in range(n))
    rows = {(q, a): ((rng.choice(states), F(1)),) for q in states for a in ("a", "b")}
    pairs = tuple(
        (frozenset(s for s in states if rng.random() < 0.3),
         frozenset(s for s in states if rng.random() < 0.5))
        for _ in range(npairs)
    )
    return Spec("pra", ("a", "b"), states, "d0", rows, pairs=pairs, name="det_pra")


def dra(rng: random.Random, n: int, npairs: int) -> Spec:
    states = tuple(f"q{i}" for i in range(n))
    rows = {(q, a): (rng.choice(states),) for q in states for a in ("a", "b")}
    pairs = tuple(
        (frozenset(s for s in states if rng.random() < 0.25),
         frozenset(s for s in states if rng.random() < 0.4))
        for _ in range(npairs)
    )
    return Spec("dra", ("a", "b"), states, "q0", rows, pairs=pairs, name="dra")


def random_nba(rng: random.Random, n: int) -> Spec:
    states = tuple(f"q{i}" for i in range(n))
    rows: dict = {}
    for q in states:
        for a in ("a", "b"):
            k = rng.choice([0, 1, 1, 2])
            ts = tuple(sorted(rng.sample(list(states), min(k, n))))
            if ts:
                rows[(q, a)] = ts
    finals = frozenset(s for s in states if rng.random() < 0.5)
    return Spec("nba", ("a", "b"), states, "q0", rows, final=finals, name="nba")


# Shapes for rank-based complementation, drawn once from random_nba with
# these generator seeds; their complements have about 1, 41, 159 and 679
# states.  The run seed renames and reorders their states, which changes
# the input but not the work.
COMPLEMENT_SHAPES = (None, 82, 100, 17)


def complement_shape(shape_seed: int | None) -> Spec:
    if shape_seed is None:  # universal, so the complement is empty
        rows = {(q, a): ("u0", "u1") for q in ("u0", "u1") for a in ("a", "b")}
        return Spec("nba", ("a", "b"), ("u0", "u1"), "u0", rows,
                    final=frozenset({"u0", "u1"}), name="nba")
    rng = random.Random(shape_seed)
    return random_nba(rng, rng.choice([3, 4]))


def perm_fpm(n: int, leak: bool) -> Spec:
    """Monitor whose symbols act on the live states as an n-cycle (a) and a
    transposition (b).  These generate the symmetric group, so the boolean
    transition monoid has n! elements.  With ``leak`` every live row sends
    half its mass to the reject: the positive language is empty and every
    word is rejected almost surely.  Without it the reject is unreachable:
    every word is accepted surely."""
    live = [f"p{i}" for i in range(n)]
    perm = {"a": {i: (i + 1) % n for i in range(n)},
            "b": {i: (1 - i if i < 2 else i) for i in range(n)}}
    rows: dict = {}
    for a in ("a", "b"):
        for i, q in enumerate(live):
            t = live[perm[a][i]]
            rows[(q, a)] = ((t, F(1, 2)), ("rej", F(1, 2))) if leak else ((t, F(1)),)
        rows[("rej", a)] = (("rej", F(1)),)
    return Spec("fpm", ("a", "b"), tuple(live) + ("rej",), "p0", rows,
                final=frozenset(live), reject="rej", name="perm_fpm")


def perm_nba(n: int, trap: bool, drop: int | None = None) -> Spec:
    """NBA on the same two generators, final at p0.  With ``trap`` the
    initial state may also jump to an accepting sink, so it is universal.
    ``drop`` removes the b-edge of one state to make it non-universal."""
    st = [f"p{i}" for i in range(n)]
    rows: dict = {}
    for i, q in enumerate(st):
        rows[(q, "a")] = (st[(i + 1) % n],)
        if i != drop:
            rows[(q, "b")] = (st[1 - i] if i < 2 else q,)
    finals = {"p0"}
    if trap:
        st.append("u")
        for a in ("a", "b"):
            rows[("u", a)] = ("u",)
            rows[("p0", a)] = rows.get(("p0", a), ()) + ("u",)
        finals.add("u")
    return Spec("nba", ("a", "b"), tuple(st), "p0", rows, final=frozenset(finals), name="perm_nba")


def biased_pba(rng: random.Random, n: int, sink_final: bool) -> Spec:
    """Every row sends 1/4 to one absorbing sink.  Every run ends in the
    sink almost surely, so with an accepting sink every word is accepted
    surely, and with a rejecting sink every word is accepted with
    probability 0."""
    states = tuple(f"s{i}" for i in range(n))
    rows: dict = {}
    for q in states:
        for a in ("a", "b"):
            if rng.random() < 0.5:
                t1, t2 = rng.sample(states, 2) if n > 1 else (states[0], states[0])
                row = [(t1, F(1, 2)), (t2, F(1, 4))] if t1 != t2 else [(t1, F(3, 4))]
            else:
                row = [(rng.choice(states), F(3, 4))]
            rows[(q, a)] = tuple(row) + (("z", F(1, 4)),)
    for a in ("a", "b"):
        rows[("z", a)] = (("z", F(1)),)
    finals = {s for s in states if rng.random() < 0.5}
    if sink_final:
        finals.add("z")
    return Spec("pba", ("a", "b"), states + ("z",), "s0", rows, final=frozenset(finals),
                name="biased_pba")


# ---------------------------------------------------------------------------
# exact_lasso


def exact_lasso(seed: int, pb) -> Workload:
    core, markov = pb.core, pb.markov
    queries: list[Query] = []
    sizes: dict[str, dict] = {}

    def add(kind: str, spec: Spec, aut, stem, cycle, expected: Fraction) -> None:
        w = core.LassoWord(stem, cycle)
        queries.append(Query(kind, lambda: markov.lasso_acceptance(aut, w), _equals(expected),
                             label=f"{kind} {spec.digest} {_lasso_text(stem, cycle)}"))
        info = oracles.chain_analysis(spec, stem, cycle)
        rec = sizes.setdefault(kind, {"queries": 0, "states": set(), "cycle_len": set(),
                                      "chain_nodes": 0, "unknowns": 0})
        rec["queries"] += 1
        rec["states"].add(len(spec.states))
        rec["cycle_len"].add(len(cycle))
        rec["chain_nodes"] += info["nodes"]
        rec["unknowns"] += info["unknowns"]

    # Chain-bound: the deadline monitor on a b^(k-1) c (accepted surely) and
    # a near miss with the c one place early (rejected surely), rotated,
    # after a stem without a.
    rng = _rng(seed, "chain")
    for k in (120, 240):
        spec = model.succinct(k)
        aut = spec.to_automaton(core)
        for cyc in (("a",) + ("b",) * (k - 1) + ("c",), ("a",) + ("b",) * (k - 2) + ("c", "b")):
            r = rng.randrange(len(cyc))
            cycle = cyc[r:] + cyc[:r]
            stem = _word(rng, "bc", 0, 3)
            add("chain", spec, aut, stem, cycle, oracles.succinct_value(k, stem, cycle))

    # Solve-bound: uniform-leak PBAs, every transient node unknown.
    rng = _rng(seed, "solve")
    for n, length in ((21, 5), (23, 7)):
        leaks = dict(zip(("a", "b"), rng.sample(LEAK_PALETTE, 2)))
        spec = uniform_leak_pba(rng, n, leaks)
        stem = _word(rng, "ab", 0, 2)
        cycle = _word(rng, "ab", length, length)
        add("solve", spec, spec.to_automaton(core), stem, cycle,
            oracles.uniform_leak_value(leaks, stem, cycle))

    # Call-bound: about a thousand short lassos on small machines.
    rng = _rng(seed, "call")
    m_id = model.m_id()
    m_id2 = model.fpm_product(m_id, m_id)
    p3 = model.p3(rng.choice([F(1, 4), F(1, 3), F(2, 5)]))
    pras = [det_pra(rng, rng.randint(4, 5), 2) for _ in range(5)]
    plan = [("call:m_id", m_id, 350, lambda s, c: oracles.binary_value(s, c)),
            ("call:m_id_squared", m_id2, 150, lambda s, c: oracles.binary_value(s, c) ** 2),
            ("call:p3", p3, 250, lambda s, c: F(0))]
    # Every (stem length, cycle length) pair appears equally often, so the
    # latency percentiles do not move with the seed's draw of lengths.
    shapes = [(u, v) for u in range(5) for v in range(1, 6)]
    for kind, spec, count, value in plan:
        aut = spec.to_automaton(core)
        for j in range(count):
            u, v = shapes[j % len(shapes)]
            stem, cycle = _word(rng, spec.alphabet, u, u), _word(rng, spec.alphabet, v, v)
            add(kind, spec, aut, stem, cycle, value(stem, cycle))
    auts = [p.to_automaton(core) for p in pras]
    for j in range(250):
        i = rng.randrange(len(pras))
        u, v = shapes[j % len(shapes)]
        stem, cycle = _word(rng, "ab", u, u), _word(rng, "ab", v, v)
        inf = oracles.deterministic_run_set(pras[i], stem, cycle)
        add("call:det_pra", pras[i], auts[i], stem, cycle,
            F(int(bool(oracles.rabin_holds(pras[i].pairs, inf)))))

    warmup = _first_of_each_kind(queries)
    rng.shuffle(queries)
    for rec in sizes.values():
        rec["states"], rec["cycle_len"] = _range(rec["states"]), _range(rec["cycle_len"])
    return Workload("exact_lasso", queries, sizes, WHY["exact_lasso"], warmup)


# ---------------------------------------------------------------------------
# decide_certified


def decide_certified(seed: int, pb) -> Workload:
    core, decide, construct = pb.core, pb.decide, pb.construct
    rng = _rng(seed, "decide")
    queries: list[Query] = []
    sizes: dict[str, Any] = {}

    def add(kind: str, spec: Spec, call, check, *extra: Spec) -> None:
        """Query ``call(automaton of spec, *automata of extra)``."""
        auts = [x.to_automaton(core) for x in (spec,) + extra]
        label = kind + " " + " ".join(x.digest for x in (spec,) + extra)
        queries.append(Query(kind, lambda: call(*auts), check, label=label))

    def lasso_of(w) -> tuple:
        return (tuple(w.stem), tuple(w.cycle))

    def qual_is(spec: Spec, allowed: set[str]):
        return lambda w: w is not None and oracles.qualitative(spec, *lasso_of(w)) in allowed

    # Boolean-monoid procedures on monitors with n! monoid elements.
    leak6, leak7, free7 = (model.renamed(perm_fpm(n, leak), rng, "m")
                           for n, leak in ((6, True), (7, True), (7, False)))
    sizes["monoid_elements"] = {"perm_fpm_6": 720, "perm_fpm_7": 5040}
    for spec in (leak6, leak7):
        add("fpm_positive_empty", spec, lambda a: decide.fpm_positive_empty(a), _equals(None))
    live = frozenset(q for q in free7.states if q != free7.reject)
    add("fpm_positive_empty", free7, lambda a: decide.fpm_positive_empty(a),
        lambda sw: sw is not None and sw.states == live and str(sw.lasso()) == ";a"
        and oracles.qualitative(free7, *lasso_of(sw.lasso())) == "one")
    add("fpm_positive_universal", leak6, lambda a: decide.fpm_positive_universal(a),
        lambda w: w is not None and str(w) == ";a" and oracles.qualitative(leak6, *lasso_of(w)) == "zero")
    add("fpm_positive_universal", free7, lambda a: decide.fpm_positive_universal(a), _equals(None))

    # Almost-sure decisions: the paper's binary-value monitor (expected
    # lassos as published with the example), then machines whose answer is
    # fixed by construction, with witnesses checked qualitatively.
    m_id = model.m_id()
    add("almost_sure", m_id, lambda a: decide.almost_sure_empty(a), lambda w: str(w) == ";1")
    add("almost_sure", m_id, lambda a: decide.almost_sure_universal(a), lambda w: str(w) == ";0")
    p3 = model.p3(rng.choice([F(1, 4), F(1, 3), F(2, 5)]))
    # Random PBAs whose answer is fixed by construction: four with an
    # accepting sink (L=1 universal), four with a rejecting one (L=1 empty).
    biased = [(biased_pba(rng, 4, sink_final), not sink_final, sink_final)
              for sink_final in (True, False) * 4]
    for spec, empty, universal in [(p3, True, False), (model.succinct(3), False, False)] + biased:
        add("almost_sure", spec, lambda a: decide.almost_sure_empty(a),
            _equals(None) if empty else qual_is(spec, {"one"}))
        add("almost_sure", spec, lambda a: decide.almost_sure_universal(a),
            _equals(None) if universal else qual_is(spec, {"zero", "mixed"}))

    # Profile-monoid universality: one universal NBA enumerated in full, two
    # non-universal ones caught by the bounded probe, whose expected
    # counterexample is the first rejected lasso in probe order.
    add("nba_universality", model.renamed(perm_nba(6, trap=True), rng, "n"),
        lambda a: decide.nba_universality(a), _equals(None))
    for drop in rng.sample(range(6), 2):
        spec = model.renamed(perm_nba(6, trap=False, drop=drop), rng, "n")
        first = next(((u, v) for u, v in oracles.lassos(spec.alphabet, 3, 3)
                      if not oracles.nba_member(spec, u, v)), None)
        add("nba_universality", spec, lambda a: decide.nba_universality(a),
            lambda w, first=first: w is not None and lasso_of(w) == first)
    sizes["nba_universality"] = {"states": [7, 6, 6], "profile_elements_universal": 842}

    # Rank-based complementation, checked on every lasso with stem <= 2 and
    # cycle <= 2: a member of the output iff not a member of the input.
    comp_sizes = []
    for shape in COMPLEMENT_SHAPES:
        spec = model.renamed(complement_shape(shape), rng, "c")
        samples = [(u, v, oracles.nba_member(spec, u, v)) for u, v in oracles.lassos(spec.alphabet, 2, 2)]
        comp_sizes.append(len(spec.states))
        add("nba_complement", spec, lambda a: decide.nba_complement(a),
            lambda out, samples=samples: _complement_ok(out, samples))
    sizes["complement_input_states"] = comp_sizes
    sizes["complement_output_states"] = [1, 41, 159, 679]

    # Hierarchical PBAs: the paper's monitor, then DRAs through dra_to_hpba,
    # whose positive language is the DRA's language.
    add("hpba", m_id, lambda a: decide.hpba_probable_empty(a), lambda w: str(w) == "1;0")
    add("hpba", m_id, lambda a: decide.hpba_probable_universal(a), lambda w: str(w) == ";0")
    for _ in range(6):
        d = dra(rng, 4, 2)
        nonempty, universal = oracles.dra_verdicts(d)

        def accepts(w, d=d) -> bool:
            return bool(oracles.rabin_holds(d.pairs, oracles.deterministic_run_set(d, *w)))

        first = next((uv for uv in oracles.lassos(d.alphabet, 3, 3) if not accepts(uv)), None)
        add("hpba", d, lambda a: decide.hpba_probable_empty(construct.dra_to_hpba(a)),
            (lambda w, accepts=accepts: w is not None and accepts(lasso_of(w)))
            if nonempty else _equals(None))
        add("hpba", d, lambda a: decide.hpba_probable_universal(construct.dra_to_hpba(a)),
            _equals(None) if universal else
            (lambda w, accepts=accepts, first=first: w is not None and not accepts(lasso_of(w))
             and (first is None or lasso_of(w) == first)))

    # Bounded searches.  m_id's value is the binary value of the word; the
    # swapped monitor's is that of the complemented word.
    def flip(word):
        return tuple("1" if s == "0" else "0" for s in word)

    first = next((u, v) for u, v in oracles.lassos(("0", "1"), 3, 3)
                 if oracles.binary_value(u, v) > 0 and oracles.binary_value(flip(u), flip(v)) == 0)
    add("containment", m_id, lambda a, b: decide.containment_refute(a, b, "positive", 3),
        lambda w: w is not None and lasso_of(w) == first, model.m_id(swapped=True))
    add("containment", model.fpm_product(m_id, m_id),
        lambda a, b: decide.containment_refute(a, b, "positive", 3), _equals(None), m_id)
    add("containment", model.top_pba(("0", "1")),
        lambda a, b: decide.containment_refute(a, b, "almost-sure", 3), lambda w: str(w) == ";0", m_id)
    add("bounded_witness", m_id, lambda a: decide.pba_positive_nonempty_bounded(a, 3, 3),
        lambda w: w is not None and w.states == {"q1"} and tuple(w.u) == ("1",)
        and tuple(map(tuple, w.segments)) == (("0",),) * 3)

    warmup = _first_of_each_kind(queries)
    rng.shuffle(queries)
    return Workload("decide_certified", queries, sizes, WHY["decide_certified"], warmup)


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:10]


def _complement_ok(out, samples) -> bool:
    spec = Spec("nba", tuple(out.alphabet), tuple(out.states), out.initial,
                dict(out.transitions), final=frozenset(out.acceptance.final))
    return all(oracles.nba_member(spec, u, v) != member for u, v, member in samples)


# ---------------------------------------------------------------------------
# sample_stream

MC_SAMPLES = 10_000
STREAM_SEGMENT = 100


def sample_stream(seed: int, pb) -> Workload:
    core, sim = pb.core, pb.sim
    rng = _rng(seed, "sample")
    queries: list[Query] = []
    mc_sizes = []

    def add_mc(kind, spec: Spec, stem, cycle, n: int, exact: Fraction) -> None:
        aut = spec.to_automaton(core)
        w = core.LassoWord(stem, cycle)
        mc_seed = rng.getrandbits(64)
        expected = oracles.reference_mc(spec, stem, cycle, n, mc_seed)

        def check(est) -> bool:
            return ((est.mean, est.stderr, est.samples) == (*expected, n)
                    and oracles.within_stderr(est.mean, exact, n))

        queries.append(Query(kind, lambda: sim.mc_lasso_estimate(aut, w, n, mc_seed), check,
                             label=f"{kind} {spec.digest} {_lasso_text(stem, cycle)} {n} {mc_seed}"))
        info = oracles.chain_analysis(spec, stem, cycle)
        mc_sizes.append({"kind": kind, "states": len(spec.states), "cycle_len": len(cycle),
                         "chain_nodes": info["nodes"], "samples": n})

    def mid_value_lasso(spec: Spec, value) -> tuple:
        # A lasso whose acceptance is away from 0 and 1, so the estimate's
        # 5-stderr check is informative; fixed lengths keep the work per
        # sample from moving with the seed.
        while True:
            stem, cycle = _word(rng, spec.alphabet, 2, 2), _word(rng, spec.alphabet, 3, 3)
            if F(1, 10) <= value(stem, cycle) <= F(9, 10):
                return stem, cycle

    m_id = model.m_id()
    stem, cycle = mid_value_lasso(m_id, oracles.binary_value)
    add_mc("mc_small", m_id, stem, cycle, MC_SAMPLES, oracles.binary_value(stem, cycle))
    m_id2 = model.fpm_product(m_id, m_id)
    stem, cycle = mid_value_lasso(m_id2, lambda s, c: oracles.binary_value(s, c) ** 2)
    add_mc("mc_small", m_id2, stem, cycle, MC_SAMPLES, oracles.binary_value(stem, cycle) ** 2)
    # Both symbols leak 3/8 in total, so a sample's expected walk length, and
    # with it the work, does not depend on the seed's choice of word.
    leaks = {"a": (F(1, 4), F(1, 8)), "b": (F(1, 8), F(1, 4))}
    leak = uniform_leak_pba(rng, 5, leaks)
    stem, cycle = _word(rng, "ab", 0, 2), _word(rng, "ab", 3, 3)
    add_mc("mc_small", leak, stem, cycle, MC_SAMPLES, oracles.uniform_leak_value(leaks, stem, cycle))
    k = 200
    add_mc("mc_large_chain", model.succinct(k), (), ("a",) + ("b",) * (k - 1) + ("c",), 100, F(1))

    # Monitor streams, fed in segments; a pass starts each stream afresh.
    keep = F(1023, 1024)
    streams = [
        ("m_id", model.m_id(), tuple(rng.choice("01") for _ in range(3000)), oracles.m_id_reject_masses),
        ("m_id_squared", model.fpm_product(m_id, m_id), tuple(rng.choice("01") for _ in range(3000)),
         oracles.product_reject_masses),
        ("leak_1023/1024", model.leak_monitor(1023, 1024), ("a",) * 2000,
         lambda s: oracles.leak_reject_masses(keep, s)),
    ]
    segments: list[list[Query]] = []
    for label, spec, stream, masses in streams:
        aut = spec.to_automaton(core)
        expected = masses(stream)
        state: dict = {}
        segs = []
        for start in range(0, len(stream), STREAM_SEGMENT):
            chunk = stream[start:start + STREAM_SEGMENT]

            def feed(chunk=chunk, start=start, aut=aut, state=state):
                if start == 0:
                    state["session"] = sim.MonitorSession(aut)
                session = state["session"]
                return [session.feed(s) for s in chunk]

            segs.append(Query("stream_segment", feed,
                              _equals(expected[start + 1:start + 1 + len(chunk)]),
                              label=f"{label} {start} {''.join(chunk)}"))
        segments.append(segs)
    # Interleave the streams round-robin; each stream keeps its order.
    longest = max(len(s) for s in segments)
    interleaved = [q for group in zip(*[s + [None] * (longest - len(s)) for s in segments])
                   for q in group if q is not None]
    # Spread the Monte Carlo queries evenly among the segments.
    step = len(interleaved) // (len(queries) + 1)
    ordered: list[Query] = []
    for i, q in enumerate(queries):
        ordered.extend(interleaved[i * step:(i + 1) * step])
        ordered.append(q)
    ordered.extend(interleaved[len(queries) * step:])
    sizes = {"mc": mc_sizes,
             "streams": [{"monitor": label, "states": len(spec.states), "symbols": len(stream),
                          "segment": STREAM_SEGMENT} for label, spec, stream, _ in streams]}
    return Workload("sample_stream", ordered, sizes, WHY["sample_stream"],
                    _first_of_each_kind(queries + segments[0]))


# ---------------------------------------------------------------------------
# cli_roundtrip


def _digits_unlimited() -> None:
    # The benchmark itself must render the expected rationals of the
    # known-defect queries; this changes the limit in this process only.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@dataclass
class Completed:
    returncode: int
    stdout: str
    stderr: str
    elapsed_s: float  # around spawn and wait, measured by the spawner


class CliRunner:
    """Runs one probuchi process per query from the checkout's sources,
    through ``spawner.py``; ``close`` stops the spawner."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if not k.startswith("PROBUCHI_")}
        self.env = dict(env, PYTHONPATH=str(root / "src"))
        self.launcher: Path | None = None  # set for the traced run
        self.records: list[dict] = []  # traced run: one per process
        self.peak_kb = 0
        self._spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=workdir)

    def __call__(self, args: list[str], stdin: Path | None = None) -> Completed:
        out, err = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        env = self.env
        if self.launcher is None:
            cmd = [sys.executable, "-m", "probuchi.cli", *args]
        else:
            spans_file = self.workdir / "spans.json"
            cmd = [sys.executable, str(self.launcher), *args]
            env = dict(env, BENCH_SPANS=str(spans_file))
        request = {"cmd": cmd, "env": env, "cwd": str(self.workdir),
                   "stdin": None if stdin is None else str(stdin),
                   "stdout": str(out), "stderr": str(err)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        self.peak_kb = max(self.peak_kb, reply["peak_kb"])
        if self.launcher is not None and spans_file.exists():
            rec = json.loads(spans_file.read_text())
            rec["interpreter_s"] = rec.pop("start") - reply["spawned"]
            self.records.append(rec)
            spans_file.unlink()
        return Completed(reply["rc"], out.read_text(), err.read_text(), reply["elapsed_s"])

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait(timeout=60)
        self._spawner.stdout.close()


def _json_is(expected: dict):
    def check(proc) -> bool:
        return proc.returncode == 0 and json.loads(proc.stdout) == expected
    return check


def _text_is(expected: str):
    return lambda proc: proc.returncode == 0 and proc.stdout == expected


def cli_roundtrip(seed: int, root: Path, workdir: Path, runner: CliRunner) -> Workload:
    _digits_unlimited()
    rng = _rng(seed, "cli")
    files: dict[str, dict] = {}

    def put(name: str, spec: Spec) -> None:
        text = spec.serialize()
        (workdir / name).write_text(text)
        files[name] = {"states": len(spec.states), "bytes": len(text)}

    m_id = model.m_id()
    put("m_id.fpm", m_id)
    big = model.succinct(2000)
    big_text = big.serialize()
    put("succinct_2000.fpm", big)
    leak = model.leak_monitor(1023, 1024)
    put("leak.fpm", leak)
    put("top.pba", model.top_pba(("0", "1")))
    univ = model.renamed(perm_nba(5, trap=True), rng, "n")
    put("univ.nba", univ)
    nonuniv = model.renamed(perm_nba(5, trap=False, drop=rng.randrange(5)), rng, "n")
    put("nonuniv.nba", nonuniv)
    some = random_nba(rng, 4)
    put("some.nba", some)
    cmp_in = model.renamed(complement_shape(82), rng, "c")
    put("cmp.nba", cmp_in)

    q: list[Query] = []

    def add(kind, args, check, stdin=None, known_defect=None):
        path = None
        if stdin is not None:
            path = workdir / f"stdin-{len(q)}.txt"
            path.write_text(stdin)
        q.append(Query(kind, lambda: runner(args, path), check, known_defect,
                       label=" ".join(args) + ("" if stdin is None else " <" + _sha(stdin))))

    lam = rng.choice(["1/4", "1/3", "2/5"])
    add("gen", ["gen", "m_id"], _text_is(m_id.serialize()))
    add("gen", ["gen", "succinct", "2000"], _text_is(big_text))
    add("gen", ["gen", "p3", lam], _text_is(model.p3(Fraction(lam)).serialize()))
    valid = {"command": "validate", "valid": True, "violations": []}
    add("validate", ["validate", "m_id.fpm"], _json_is(valid))
    add("validate", ["validate", "succinct_2000.fpm"], _json_is(valid))
    add("validate", ["validate", "top.pba"], _json_is(valid))
    add("gen", ["gen", "m_id_squared"], _text_is(model.fpm_product(m_id, m_id).serialize()))
    # Levels number the SCCs topologically, ties by first state: the
    # scanner, each checker, then the two sinks.
    add("rank", ["rank", "m_id.fpm"], _json_is(
        {"command": "rank", "hierarchical": True, "levels": {"q0": 0, "q1": 1, "qr": 2}, "k": 2}))
    add("rank", ["rank", "succinct_2000.fpm"], _json_is(
        {"command": "rank", "hierarchical": True,
         "levels": {q: i for i, q in enumerate(big.states)}, "k": len(big.states) - 1}))
    for _ in range(3):
        stem, cycle = _word(rng, "01", 0, 4), _word(rng, "01", 1, 5)
        add("prob", ["prob", "m_id.fpm", _lasso_text(stem, cycle)], _json_is(
            {"command": "prob", "lasso": _lasso_text(stem, cycle),
             "probability": str(oracles.binary_value(stem, cycle))}))
    # Parsing the 173 KB file dominates these; no a, so the scanner never
    # spawns a checker and the word is accepted surely.
    for _ in range(3):
        stem, cycle = _word(rng, "bc", 0, 3), _word(rng, "bc", 1, 3)
        add("prob", ["prob", "succinct_2000.fpm", _lasso_text(stem, cycle)], _json_is(
            {"command": "prob", "lasso": _lasso_text(stem, cycle), "probability": "1"}))
    # Known defect: an exact answer of more than 4,300 digits.
    long_stem = "a" * 1500
    add("prob", ["prob", "leak.fpm", long_stem + ";b"], _json_is(
        {"command": "prob", "lasso": long_stem + ";b",
         "probability": str(F(1023, 1024) ** 1500)}), known_defect=DIGIT_LIMIT)
    stem, cycle = _word(rng, "01", 0, 2), ("1", "0") if rng.random() < 0.5 else ("0", "1", "1")
    mc_seed = rng.randrange(1 << 32)
    mean, stderr = oracles.reference_mc(m_id, stem, cycle, 2000, mc_seed)
    add("mc", ["mc", "m_id.fpm", _lasso_text(stem, cycle), "--samples", "2000", "--seed", str(mc_seed)],
        _json_is({"command": "mc", "lasso": _lasso_text(stem, cycle), "mean": mean,
                  "stderr": stderr, "samples": 2000, "seed": mc_seed}))
    add("empty", ["empty", "m_id.fpm", "--semantics", "almost-sure"], _json_is(
        {"command": "empty", "semantics": "almost-sure", "answer": "nonempty",
         "witness": {"lasso": ";1", "certificate": {"acceptance": "1"}}}))
    add("universal", ["universal", "m_id.fpm", "--semantics", "almost-sure"], _json_is(
        {"command": "universal", "semantics": "almost-sure", "answer": "non-universal",
         "counterexample": {"lasso": ";0", "certificate": {"acceptance": "0"}}}))
    add("empty", ["empty", "some.nba"], _nba_empty_check(some))
    add("universal", ["universal", "univ.nba"], _json_is(
        {"command": "universal", "semantics": "positive", "answer": "universal"}))
    first = next((u, v) for u, v in oracles.lassos(nonuniv.alphabet, 3, 3)
                 if not oracles.nba_member(nonuniv, u, v))
    add("universal", ["universal", "nonuniv.nba"], _json_is(
        {"command": "universal", "semantics": "positive", "answer": "non-universal",
         "counterexample": {"lasso": _lasso_text(*first), "certificate": {"member": False}}}))
    add("witness", ["witness", "m_id.fpm", "--max-len", "1", "--max-j", "3"], _json_is(
        {"command": "witness", "answer": "nonempty",
         "witness": {"states": ["q1"], "u": "1", "segments": ["0", "0", "0"], "start_index": 1},
         "lower_bound": "1/2", "asymptotic": True, "assembled_lasso": "100;0",
         "certificate": {"acceptance": "1/2"}}))
    add("contain", ["contain", "top.pba", "m_id.fpm", "--semantics", "almost-sure", "--bound", "2"],
        _json_is({"command": "contain", "semantics": "almost-sure", "answer": "refuted",
                  "witness": {"lasso": ";0", "certificate": {"left_acceptance": "1",
                                                             "right_acceptance": "0"}}}))
    samples = [(u, v, oracles.nba_member(cmp_in, u, v)) for u, v in oracles.lassos(("a", "b"), 2, 2)]
    add("complement", ["complement", "cmp.nba"], lambda proc: proc.returncode == 0 and all(
        oracles.nba_member(model.parse_nba(proc.stdout), u, v) != member for u, v, member in samples))
    add("product", ["product", "m_id.fpm", "m_id.fpm"], _text_is(model.fpm_product(m_id, m_id).serialize()))
    add("hpba2nba", ["hpba2nba", "m_id.fpm"], _text_is(model.two_copy_nba(m_id).serialize()))
    stream = [rng.choice("01") for _ in range(300)]
    add("monitor", ["monitor", "m_id.fpm"],
        _text_is("".join(f"{x}\n" for x in oracles.m_id_reject_masses(stream))),
        stdin="".join(s + "\n" for s in stream))
    # Known defect: the reject mass passes 4,300 digits at symbol 1,429.
    stream = ["a"] * 1500
    add("monitor", ["monitor", "leak.fpm"],
        _text_is("".join(f"{x}\n" for x in oracles.leak_reject_masses(F(1023, 1024), stream))),
        stdin="".join(s + "\n" for s in stream), known_defect=DIGIT_LIMIT)

    warmup = q[:1]  # one process fills the file and bytecode caches
    rng.shuffle(q)
    sizes = {
        "processes_per_pass": len(q),
        "known_defect_queries": sum(1 for x in q if x.known_defect),
        "files": files,
        "monitor_stream_symbols": [300, 1500],
        "mc_samples": 2000,
    }
    return Workload("cli_roundtrip", q, sizes, WHY["cli_roundtrip"], warmup)


def _nba_empty_check(spec: Spec):
    """Verdict from reachable accepting cycles; the witness must be a member."""
    succ = {q: [t for a in spec.alphabet for t in spec.succ(q, a)] for q in spec.states}
    seen, stack = {spec.initial}, [spec.initial]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    sub = {q: [t for t in succ[q] if t in seen] for q in seen}
    nonempty = any(
        (len(c) > 1 or c[0] in sub[c[0]]) and any(q in spec.final for q in c)
        for c in oracles.sccs(list(seen), sub)
    )

    def check(proc) -> bool:
        if proc.returncode != 0:
            return False
        doc = json.loads(proc.stdout)
        if not nonempty:
            return doc == {"command": "empty", "semantics": "positive", "answer": "empty"}
        stem, _, cycle = doc["witness"]["lasso"].partition(";")
        return (doc["answer"] == "nonempty" and doc["witness"]["certificate"] == {"member": True}
                and oracles.nba_member(spec, tuple(stem), tuple(cycle)))

    return check
