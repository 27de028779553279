"""Shared random-instance builders and independent oracles for the tests.

All generators draw from a seeded ``random.Random`` so every test is
reproducible.  Probabilities come from a small dyadic palette, which keeps
the exact solvers fast and the row sums exactly one by construction.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from probuchi import Automaton, BuchiAcceptance, LassoWord, RabinAcceptance, RationalMatrix

F = Fraction
PALETTE = [
    (F(1),),
    (F(1, 2), F(1, 2)),
    (F(1, 2), F(1, 4), F(1, 4)),
    (F(3, 4), F(1, 4)),
    (F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
]


def random_prob_rows(rng: random.Random, states, alphabet):
    trans = {}
    for q in states:
        for a in alphabet:
            ws = rng.choice([w for w in PALETTE if len(w) <= len(states)])
            targets = rng.sample(list(states), len(ws))
            trans[(q, a)] = tuple(zip(targets, ws))
    return trans


def random_pba(rng: random.Random, n: int, alphabet=("a", "b")) -> Automaton:
    states = tuple(f"q{i}" for i in range(n))
    finals = frozenset(s for s in states if rng.random() < 0.5)
    return Automaton(
        name="random_pba",
        role="pba",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=BuchiAcceptance(finals),
        transitions=random_prob_rows(rng, states, alphabet),
    )


def random_fpm(rng: random.Random, n: int, alphabet=("a", "b")) -> Automaton:
    """Monitor with n states total, the last one the absorbing reject."""
    live = tuple(f"q{i}" for i in range(n - 1))
    states = live + ("rej",)
    trans = random_prob_rows(rng, states, alphabet)
    for a in alphabet:
        trans[("rej", a)] = (("rej", F(1)),)
    return Automaton(
        name="random_fpm",
        role="fpm",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=BuchiAcceptance(frozenset(live)),
        transitions=trans,
        reject="rej",
    )


def random_hpba(rng: random.Random, n: int, alphabet=("a", "b")) -> Automaton:
    """Hierarchical by construction: levels fixed first, rows respect them."""
    states = tuple(f"q{i}" for i in range(n))
    levels = sorted(rng.randint(0, 2) for _ in range(n))
    level = dict(zip(states, levels))
    trans = {}
    for q in states:
        same = [s for s in states if level[s] == level[q]]
        higher = [s for s in states if level[s] > level[q]]
        for a in alphabet:
            s = rng.choice(same)
            take = (
                rng.sample(higher, min(len(higher), rng.randint(1, 2)))
                if higher and rng.random() < 0.6
                else []
            )
            if not take:
                row = ((s, F(1)),)
            elif rng.random() < 0.3:
                w = F(1, len(take))
                row = tuple((h, w) for h in take)
            else:
                w = F(1, 2) / len(take)
                row = ((s, F(1, 2)),) + tuple((h, w) for h in take)
            trans[(q, a)] = row
    finals = frozenset(s for s in states if rng.random() < 0.4) or frozenset(
        {states[-1]}
    )
    return Automaton(
        name="random_hpba",
        role="hpba",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=BuchiAcceptance(finals),
        transitions=trans,
    )


def random_nba(rng: random.Random, n: int, alphabet=("a", "b")) -> Automaton:
    states = tuple(f"q{i}" for i in range(n))
    trans = {}
    for q in states:
        for a in alphabet:
            k = rng.choice([0, 1, 1, 2])
            ts = tuple(sorted(rng.sample(list(states), min(k, n))))
            if ts:
                trans[(q, a)] = ts
    finals = frozenset(s for s in states if rng.random() < 0.5)
    return Automaton(
        name="random_nba",
        role="nba",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=BuchiAcceptance(finals),
        transitions=trans,
    )


def random_pra(
    rng: random.Random, n: int, npairs: int, alphabet=("a", "b")
) -> Automaton:
    states = tuple(f"q{i}" for i in range(n))
    pairs = []
    for _ in range(npairs):
        b = frozenset(s for s in states if rng.random() < 0.3)
        g = frozenset(s for s in states if rng.random() < 0.4)
        pairs.append((b, g))
    return Automaton(
        name="random_pra",
        role="pra",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=RabinAcceptance(tuple(pairs)),
        transitions=random_prob_rows(rng, states, alphabet),
    )


def random_deterministic_pra(
    rng: random.Random, n: int, npairs: int, alphabet=("a", "b")
) -> Automaton:
    """PRA with probability-one rows: trivially satisfies the 0/1 law."""
    d = random_dra(rng, n, npairs, alphabet)
    trans = {
        (q, a): ((d.successors(q, a)[0], F(1)),)
        for q in d.states
        for a in alphabet
    }
    return Automaton(
        name="det_pra",
        role="pra",
        alphabet=alphabet,
        states=d.states,
        initial=d.initial,
        acceptance=d.acceptance,
        transitions=trans,
    )


def random_dra(
    rng: random.Random, n: int, npairs: int, alphabet=("a", "b")
) -> Automaton:
    states = tuple(f"q{i}" for i in range(n))
    trans = {
        (q, a): (rng.choice(states),) for q in states for a in alphabet
    }
    pairs = []
    for _ in range(npairs):
        b = frozenset(s for s in states if rng.random() < 0.25)
        g = frozenset(s for s in states if rng.random() < 0.4)
        pairs.append((b, g))
    return Automaton(
        name="random_dra",
        role="dra",
        alphabet=alphabet,
        states=states,
        initial="q0",
        acceptance=RabinAcceptance(tuple(pairs)),
        transitions=trans,
    )


def random_lasso(rng: random.Random, alphabet, max_len: int) -> LassoWord:
    stem = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
    cycle = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
    return LassoWord(stem, cycle)


def all_lassos(alphabet, stem_bound: int, cycle_bound: int):
    for ln in range(stem_bound + 1):
        for u in itertools.product(alphabet, repeat=ln):
            for lc in range(1, cycle_bound + 1):
                for v in itertools.product(alphabet, repeat=lc):
                    yield LassoWord(u, v)


# ---------------------------------------------------------------------------
# Independent oracles


def dra_accepts(d: Automaton, w: LassoWord) -> bool:
    """Direct deterministic-run evaluation of the Rabin condition."""
    q = d.initial
    for a in w.stem:
        (q,) = d.successors(q, a)
    seen: dict[tuple[str, int], int] = {}
    trace: list[str] = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        trace.append(q)
        (q,) = d.successors(q, w.cycle[pos])
        pos = (pos + 1) % len(w.cycle)
    loop = set(trace[seen[(q, pos)]:])
    return any(not (loop & b) and (loop & g) for b, g in d.rabin_pairs)


def deadline_language_accepts(n: int, w: LassoWord) -> bool:
    """Safety oracle: every 'a' is followed by 'c' exactly n positions later.

    Simulated on the deterministic pending-deadline automaton (state = set of
    remaining distances), which is the O(2^n) machine the succinct monitor
    replaces; the run is eventually periodic so termination is by state
    repetition.
    """
    pending: frozenset[int] = frozenset()
    q = pending
    seen = set()
    pos = -len(w.stem)
    symbols = list(w.stem)
    while True:
        if pos >= 0:
            key = (q, pos % len(w.cycle))
            if key in seen:
                return True
            seen.add(key)
        sym = symbols[pos + len(w.stem)] if pos < 0 else w.cycle[pos % len(w.cycle)]
        if 1 in q and sym != "c":
            return False
        q = frozenset(d - 1 for d in q if d > 1)
        if sym == "a":
            q = q | {n}
        pos += 1


def brute_force_ranking_exists(aut: Automaton) -> bool:
    """Exhaustive search over every rank assignment with k < |Q|."""
    states = aut.states
    n = len(states)
    succ = {
        (i, a): tuple(states.index(t) for t in aut.successors(q, a))
        for i, q in enumerate(states)
        for a in aut.alphabet
    }
    for assign in itertools.product(range(n), repeat=n):
        ok = True
        for (i, _a), targets in succ.items():
            li = assign[i]
            same = 0
            for t in targets:
                lt = assign[t]
                if lt < li:
                    ok = False
                    break
                if lt == li:
                    same += 1
            if not ok or same > 1:
                ok = False
                break
        if ok:
            return True
    return False


def ref_identity(states) -> RationalMatrix:
    """The identity matrix over ``states``, the word matrix of the empty word."""
    n = len(states)
    return RationalMatrix(tuple(states), tuple(
        tuple(F(1 if i == j else 0) for j in range(n)) for i in range(n)))


def ref_entry(mat: RationalMatrix, q: str, q2: str) -> Fraction:
    """The entry of ``mat`` in row ``q`` and column ``q2``."""
    return mat.rows[mat.states.index(q)][mat.states.index(q2)]


def ref_row(mat: RationalMatrix, q: str) -> dict[str, Fraction]:
    """Row ``q`` of ``mat`` as its nonzero entries by column state."""
    return {t: p for t, p in zip(mat.states, mat.rows[mat.states.index(q)]) if p}


def ref_support(mat: RationalMatrix, q: str) -> frozenset[str]:
    """The columns of row ``q`` of ``mat`` that hold positive entries."""
    return frozenset(t for t, p in ref_row(mat, q).items() if p > 0)


def ref_matmul(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    """The dense product of two matrices over the same states, one sum per entry."""
    assert x.states == y.states
    columns = list(zip(*y.rows))
    return RationalMatrix(x.states, tuple(
        tuple(sum((a * b for a, b in zip(row, col)), F(0)) for col in columns)
        for row in x.rows))
