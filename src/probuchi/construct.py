"""Automaton constructions and generators for the worked example machines.

Fresh states introduced by a construction are named by suffixing ``#rej`` or
``#init`` to a short base, and pair states are rendered as parenthesized
tuples like ``(q0,q1)``; a clash with a user-declared state name raises
:class:`ConstructionError`.  Every construction returns a fresh immutable
automaton that passes :func:`probuchi.core.validate`.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    Automaton,
    AutomatonError,
    BuchiAcceptance,
    ConstructionError,
    RabinAcceptance,
    RankFunction,
    ResourceLimitError,
    _clip,
    _scc_ranking,
    ranking_violations,
    require_valid,
)
from .graphs import accepting_cycle, reaching
from .textio import integer, rational

__all__ = [
    "complement_to_fpm",
    "reject_pba",
    "fpm_product",
    "almost_sure_union",
    "almost_sure_intersection",
    "dra_to_hpba",
    "hpba_to_nba",
    "safety_closure",
    "rabin_decomposition",
    "rename_states",
    "gen_m_id",
    "gen_m_id_swapped",
    "gen_m_id_squared",
    "gen_succinct",
    "gen_p3",
    "generate_example",
    "GENERATORS",
]

FRESH_REJECT = "qr#rej"
FRESH_INITIAL = "qs#init"

HALF = Fraction(1, 2)


def _require_buchi_probabilistic(aut: Automaton, op: str) -> None:
    if not aut.is_probabilistic:
        raise ConstructionError(f"{op} needs a probabilistic automaton")
    if not aut.is_buchi:
        raise ConstructionError(f"{op} needs Buchi acceptance")
    require_valid(aut)


def _fresh(name: str, taken: Sequence[str]) -> str:
    if name in taken:
        raise ConstructionError(f"fresh state name {_clip(name)} collides with input")
    return name


def pair_state(a: str, b: str) -> str:
    return f"({a},{b})"


def complement_to_fpm(b: Automaton) -> Automaton:
    """Finite probabilistic monitor M with L_=1(b) the complement of L_>0(M).

    From every final state of ``b`` the monitor leaks probability 1/2 to a
    fresh absorbing reject state and halves the original transitions;
    non-final states keep their rows.  All original states are accepting.
    """
    _require_buchi_probabilistic(b, "complement_to_fpm")
    qr = _fresh(FRESH_REJECT, b.states)
    finals = b.final_states
    transitions: dict = {}
    for q in b.states:
        for a in b.alphabet:
            row = b.prob_row(q, a)
            if q in finals:
                new = [(t, p * HALF) for t, p in row]
                new.append((qr, HALF))
            else:
                new = list(row)
            transitions[(q, a)] = tuple(new)
    for a in b.alphabet:
        transitions[(qr, a)] = ((qr, Fraction(1)),)
    return Automaton(
        name=f"comp({b.name})",
        role="fpm",
        alphabet=b.alphabet,
        states=b.states + (qr,),
        initial=b.initial,
        acceptance=BuchiAcceptance(frozenset(b.states)),
        transitions=transitions,
        reject=qr,
    )


def reject_pba(m: Automaton) -> Automaton:
    """PBA whose only final state is the monitor's reject state.

    Satisfies L_>0(m) = complement of L_=1(reject_pba(m)); states and
    transitions are untouched.
    """
    if m.role != "fpm":
        raise ConstructionError("reject_pba needs an fpm")
    require_valid(m)
    assert m.reject is not None
    return replace(
        m,
        name=f"rej({m.name})",
        role="pba",
        acceptance=BuchiAcceptance(frozenset({m.reject})),
        reject=None,
    )


def fpm_product(m1: Automaton, m2: Automaton) -> Automaton:
    """Monitor whose acceptance probability is the product of the factors'.

    States are pairs of surviving (non-reject) states plus one fresh reject;
    the pairwise transition weight is the product of the component weights
    and the residual mass goes to the reject state.
    """
    for m in (m1, m2):
        if m.role != "fpm":
            raise ConstructionError("fpm_product needs fpm inputs")
        require_valid(m)
    if m1.alphabet != m2.alphabet:
        raise ConstructionError("fpm_product needs a shared alphabet")
    live1 = [q for q in m1.states if q != m1.reject]
    live2 = [q for q in m2.states if q != m2.reject]
    states = tuple(pair_state(p, q) for p in live1 for q in live2)
    seen: set[str] = set()
    for name in states:
        if name in seen:
            raise ConstructionError(f"two state pairs render to the same name {_clip(name)}")
        seen.add(name)
    qr = _fresh(FRESH_REJECT, states)
    transitions: dict = {}
    for p in live1:
        for q in live2:
            src = pair_state(p, q)
            for a in m1.alphabet:
                row = []
                total = Fraction(0)
                for t1, w1 in m1.prob_row(p, a):
                    if t1 == m1.reject:
                        continue
                    for t2, w2 in m2.prob_row(q, a):
                        if t2 == m2.reject:
                            continue
                        w = w1 * w2
                        row.append((pair_state(t1, t2), w))
                        total += w
                if total < 1:
                    row.append((qr, 1 - total))
                transitions[(src, a)] = tuple(row)
    for a in m1.alphabet:
        transitions[(qr, a)] = ((qr, Fraction(1)),)
    return Automaton(
        name=f"prod({m1.name},{m2.name})",
        role="fpm",
        alphabet=m1.alphabet,
        states=states + (qr,),
        initial=pair_state(m1.initial, m2.initial),
        acceptance=BuchiAcceptance(frozenset(states)),
        transitions=transitions,
        reject=qr,
    )


def almost_sure_union(b1: Automaton, b2: Automaton) -> Automaton:
    """PBA with L_=1 equal to the union of the operands' almost-sure languages.

    De Morgan route: complement both to monitors, multiply, flip the product
    monitor's reject into the only final state.
    """
    if b1.alphabet != b2.alphabet:
        raise ConstructionError("almost_sure_union needs a shared alphabet")
    out = reject_pba(fpm_product(complement_to_fpm(b1), complement_to_fpm(b2)))
    return replace(out, name=f"union({b1.name},{b2.name})")


def almost_sure_intersection(b1: Automaton, b2: Automaton) -> Automaton:
    """PBA with L_=1 equal to the intersection of the almost-sure languages.

    A fresh initial state folds the fair coin into the first symbol:
    delta(qs, a, q) = (1/2) delta_1(qs1, a, q) + (1/2) delta_2(qs2, a, q).
    State sets must be disjoint; rename first if they are not.
    """
    for b in (b1, b2):
        _require_buchi_probabilistic(b, "almost_sure_intersection")
    if b1.alphabet != b2.alphabet:
        raise ConstructionError("almost_sure_intersection needs a shared alphabet")
    clash = set(b1.states) & set(b2.states)
    if clash:
        raise ConstructionError(
            f"state names shared by both operands: {sorted(clash)}"
        )
    qs = _fresh(FRESH_INITIAL, b1.states + b2.states)
    transitions: dict = {}
    for b in (b1, b2):
        transitions.update(b.transitions)
    for a in b1.alphabet:
        row = [(t, p * HALF) for t, p in b1.prob_row(b1.initial, a)]
        row += [(t, p * HALF) for t, p in b2.prob_row(b2.initial, a)]
        transitions[(qs, a)] = tuple(row)
    return Automaton(
        name=f"inter({b1.name},{b2.name})",
        role="pba",
        alphabet=b1.alphabet,
        states=(qs,) + b1.states + b2.states,
        initial=qs,
        acceptance=BuchiAcceptance(b1.final_states | b2.final_states),
        transitions=transitions,
    )


def dra_to_hpba(d: Automaton) -> Automaton:
    """Hierarchical PBA with L_>0 equal to the language of the Rabin automaton.

    The machine branches uniformly (probability 1/k) into one copy of the
    input per Rabin pair; inside copy i the run follows the deterministic
    transitions, except that states of B_i leak probability 1/2 to a fresh
    absorbing reject.  Finals are the G_i states of copy i.  The attached
    ranking puts the fresh initial at level 0, copy i at level i and the
    reject at level k+1, so the output is a (k+1)-level hierarchical PBA.
    """
    if d.role != "dra":
        raise ConstructionError("dra_to_hpba needs a dra")
    require_valid(d)
    pairs = d.rabin_pairs
    k = len(pairs)
    if k < 1:
        raise ConstructionError("dra_to_hpba needs at least one Rabin pair")

    states = [pair_state(str(i), q) for i in range(1, k + 1) for q in d.states]
    qs = _fresh(FRESH_INITIAL, states)
    qr = _fresh(FRESH_REJECT, states)
    transitions: dict = {}
    for a in d.alphabet:
        (succ,) = d.successors(d.initial, a)
        transitions[(qs, a)] = tuple(
            (pair_state(str(i), succ), Fraction(1, k)) for i in range(1, k + 1)
        )
    for i, (b_i, _g_i) in enumerate(pairs, start=1):
        for q in d.states:
            for a in d.alphabet:
                (succ,) = d.successors(q, a)
                if q in b_i:
                    row = ((pair_state(str(i), succ), HALF), (qr, HALF))
                else:
                    row = ((pair_state(str(i), succ), Fraction(1)),)
                transitions[(pair_state(str(i), q), a)] = row
    for a in d.alphabet:
        transitions[(qr, a)] = ((qr, Fraction(1)),)
    finals = frozenset(
        pair_state(str(i), q) for i, (_b, g) in enumerate(pairs, start=1) for q in g
    )
    levels = {qs: 0, qr: k + 1}
    for i in range(1, k + 1):
        for q in d.states:
            levels[pair_state(str(i), q)] = i
    return Automaton(
        name=f"hpba({d.name})",
        role="hpba",
        alphabet=d.alphabet,
        states=(qs,) + tuple(states) + (qr,),
        initial=qs,
        acceptance=BuchiAcceptance(finals),
        transitions=transitions,
        ranks=RankFunction(levels, k + 1),
    )


def hpba_to_nba(h: Automaton) -> Automaton:
    """Nondeterministic Büchi automaton recognizing L_>0 of a hierarchical PBA.

    Two copies of the state space: copy 0 follows every positive-probability
    transition, copy 1 only the deterministic (probability exactly 1) ones,
    with a one-way jump from copy 0 to copy 1 and finals in copy 1.  The
    input must admit a compatible ranking; the error names a violating
    (state, symbol) pair otherwise.  Validation has already ranked an
    ``hpba``: a compatible ranking is constant on SCCs, so the SCC ranking
    passes too, and only the other roles are ranked here.
    """
    _require_buchi_probabilistic(h, "hpba_to_nba")
    violations = [] if h.role == "hpba" else ranking_violations(h, _scc_ranking(h))
    if violations:
        q, a = violations[0]
        raise ConstructionError(
            f"input is not hierarchical: two same-component successors at ({q},{a})"
        )

    states = tuple(pair_state(q, c) for c in "01" for q in h.states)
    transitions: dict = {}
    for q in h.states:
        for a in h.alphabet:
            row = h.prob_row(q, a)
            c0 = [pair_state(t, c) for c in "01" for t, _ in row]
            transitions[(pair_state(q, "0"), a)] = tuple(c0)
            c1 = [pair_state(t, "1") for t, p in row if p == 1]
            transitions[(pair_state(q, "1"), a)] = tuple(c1)
    finals = frozenset(pair_state(q, "1") for q in h.final_states)
    return Automaton(
        name=f"nba({h.name})",
        role="nba",
        alphabet=h.alphabet,
        states=states,
        initial=pair_state(h.initial, "0"),
        acceptance=BuchiAcceptance(finals),
        transitions=transitions,
    )


def _empty_nba(name: str, alphabet: tuple[str, ...], state: str) -> Automaton:
    """One state, no transitions: an NBA for the empty language."""
    return Automaton(
        name=name,
        role="nba",
        alphabet=alphabet,
        states=(state,),
        initial=state,
        acceptance=BuchiAcceptance(frozenset()),
        transitions={},
    )


def safety_closure(h: Automaton) -> Automaton:
    """NBA for the topological closure of L_>0 of a hierarchical PBA.

    The closure automaton lives on Q_>0, the states from which some word is
    accepted with positive probability, keeps every positive-probability
    edge inside Q_>0 and makes every state accepting.  Q_>0 is decidable
    here because the input is hierarchical: a state q belongs to Q_>0 iff an
    accepting cycle is reachable from (q, copy 0) in the two-copy automaton,
    which is the per-state emptiness answer computed on one shared graph.
    If the initial state falls outside Q_>0 the closure is empty and an
    empty-language NBA is returned.
    """
    nba = hpba_to_nba(h)
    adjacency = nba.support_adjacency()
    finals = nba.final_states
    # States that can reach an accepting cycle.
    live = reaching(nba.states, adjacency, lambda comp: accepting_cycle(comp, adjacency, finals))
    positive = tuple(q for q in h.states if live[pair_state(q, "0")])

    if h.initial not in positive:
        return _empty_nba(f"closure({h.name})", h.alphabet, h.initial)
    keep = set(positive)
    transitions: dict = {}
    for q in positive:
        for a in h.alphabet:
            targets = tuple(t for t in h.successors(q, a) if t in keep)
            if targets:
                transitions[(q, a)] = targets
    return Automaton(
        name=f"closure({h.name})",
        role="nba",
        alphabet=h.alphabet,
        states=positive,
        initial=h.initial,
        acceptance=BuchiAcceptance(frozenset(positive)),
        transitions=transitions,
    )


def rabin_decomposition(
    r: Automaton, cap: int = 6
) -> list[tuple[tuple[frozenset[int], int], Automaton, Automaton]]:
    """Positive/negative PBA family decomposing probable Rabin acceptance.

    For every nonempty index set I and j in I the entry carries the PBA with
    finals Good_I (union of the G_r, r in I) and the PBA with finals
    Bad_{I,j} (B_j union the other G_r of I).  A member with
    mu(positive) = 1 and mu(negative) < 1 forces positive Rabin acceptance;
    conversely every word accepted with probability exactly one has such a
    member.  For inputs obeying the zero-one acceptance law (as the Rabin
    automata equivalent to a PBA do), the two collapse into: positive Rabin
    acceptance iff some member splits.  The family has n * 2^(n-1) members,
    so the pair count is capped.
    """
    if r.role != "pra":
        raise ConstructionError("rabin_decomposition needs a pra")
    if cap < 1:
        raise ConstructionError(
            f"decomposition cap (--cap) must be at least 1, got {cap}"
        )
    require_valid(r)
    pairs = r.rabin_pairs
    n = len(pairs)
    if n > cap:
        raise ResourceLimitError(
            f"{n} Rabin pairs exceed the decomposition cap {cap}; "
            "raise it via decompose --cap",
            cap_name="decomposition cap",
            cap_value=cap,
        )
    out = []
    for mask in range(1, 1 << n):
        index_set = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        good = frozenset().union(*(pairs[i - 1][1] for i in index_set))
        for j in sorted(index_set):
            bad = pairs[j - 1][0].union(
                *(pairs[i - 1][1] for i in index_set if i != j)
            )
            positive = replace(
                r,
                name=f"{r.name}[good I={sorted(index_set)}]",
                role="pba",
                acceptance=BuchiAcceptance(good),
            )
            negative = replace(
                r,
                name=f"{r.name}[bad I={sorted(index_set)} j={j}]",
                role="pba",
                acceptance=BuchiAcceptance(frozenset(bad)),
            )
            out.append(((index_set, j), positive, negative))
    return out


def rename_states(aut: Automaton, mapping: Mapping[str, str] | None = None, suffix: str = "") -> Automaton:
    """Copy of the automaton with states renamed (mapping or uniform suffix)."""
    if mapping is None:
        mapping = {q: q + suffix for q in aut.states}
    missing = next((q for q in aut.states if q not in mapping), None)
    if missing is not None:
        raise ConstructionError(f"state renaming misses state {_clip(missing)}")
    mapping = {q: mapping[q] for q in aut.states}
    if len(set(mapping.values())) != len(aut.states):
        raise ConstructionError("state renaming is not injective")

    def m(q: str) -> str:
        try:
            return mapping[q]
        except KeyError:
            raise ConstructionError(f"automaton names undeclared state {_clip(q)}") from None

    transitions: dict = {}
    for (q, a), row in aut.transitions.items():
        if aut.is_probabilistic:
            transitions[(m(q), a)] = tuple((m(t), p) for t, p in row)
        else:
            transitions[(m(q), a)] = tuple(m(t) for t in row)
    if isinstance(aut.acceptance, BuchiAcceptance):
        acceptance: BuchiAcceptance | RabinAcceptance = BuchiAcceptance(
            frozenset(m(q) for q in aut.acceptance.final)
        )
    else:
        acceptance = RabinAcceptance(
            tuple(
                (frozenset(m(q) for q in b), frozenset(m(q) for q in g))
                for b, g in aut.acceptance.pairs
            )
        )
    ranks = aut.ranks
    if ranks is not None:
        ranks = RankFunction({m(q): lv for q, lv in ranks.levels.items()}, ranks.k)
    return Automaton(
        name=aut.name,
        role=aut.role,
        alphabet=aut.alphabet,
        states=tuple(m(q) for q in aut.states),
        initial=m(aut.initial),
        acceptance=acceptance,
        transitions=transitions,
        reject=m(aut.reject) if aut.reject is not None else None,
        ranks=ranks,
    )


def gen_m_id(swapped: bool = False) -> Automaton:
    """Three-state monitor whose acceptance probability is the binary value.

    On symbol 1 the scanning state flips a fair coin between staying and the
    absorbing safe state; on symbol 0 between staying and the absorbing
    reject.  ``swapped`` exchanges the two symbols, giving a machine with
    almost-sure language {0^omega}.
    """
    one, zero = ("0", "1") if swapped else ("1", "0")
    transitions = {
        ("q0", zero): (("q0", HALF), ("qr", HALF)),
        ("q0", one): (("q0", HALF), ("q1", HALF)),
        ("q1", "0"): (("q1", Fraction(1)),),
        ("q1", "1"): (("q1", Fraction(1)),),
        ("qr", "0"): (("qr", Fraction(1)),),
        ("qr", "1"): (("qr", Fraction(1)),),
    }
    return Automaton(
        name="m_id_swapped" if swapped else "m_id",
        role="fpm",
        alphabet=("0", "1"),
        states=("q0", "q1", "qr"),
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q0", "q1"})),
        transitions=transitions,
        reject="qr",
    )


def gen_m_id_swapped() -> Automaton:
    return gen_m_id(swapped=True)


def gen_m_id_squared() -> Automaton:
    """Product of the value monitor with itself: acceptance is value squared."""
    return replace(fpm_product(gen_m_id(), gen_m_id()), name="m_id_squared")


def gen_succinct(n: int) -> Automaton:
    """Monitor for "every a is followed by c exactly n positions later".

    On each ``a`` the scanner branches with probability 1/2 into a chained
    checker that skips n-1 symbols and inspects the n-th: a ``c`` parks in
    an absorbing accepting state, anything else falls into the reject.
    States are O(n) while a deterministic Büchi automaton for the same
    language tracks all pending deadlines and needs O(2^n) states.
    """
    if n < 1:
        raise AutomatonError("succinct generator needs n >= 1")
    alphabet = ("a", "b", "c")
    checkers = tuple(f"chk{i}" for i in range(1, n + 1))
    states = ("scan",) + checkers + ("acc", "rej")
    transitions: dict = {}
    transitions[("scan", "a")] = (("scan", HALF), ("chk1", HALF))
    transitions[("scan", "b")] = (("scan", Fraction(1)),)
    transitions[("scan", "c")] = (("scan", Fraction(1)),)
    for i in range(1, n):
        for a in alphabet:
            transitions[(f"chk{i}", a)] = ((f"chk{i+1}", Fraction(1)),)
    transitions[(f"chk{n}", "a")] = (("rej", Fraction(1)),)
    transitions[(f"chk{n}", "b")] = (("rej", Fraction(1)),)
    transitions[(f"chk{n}", "c")] = (("acc", Fraction(1)),)
    for a in alphabet:
        transitions[("acc", a)] = (("acc", Fraction(1)),)
        transitions[("rej", a)] = (("rej", Fraction(1)),)
    return Automaton(
        name=f"succinct_{n}",
        role="fpm",
        alphabet=alphabet,
        states=states,
        initial="scan",
        acceptance=BuchiAcceptance(frozenset(states) - {"rej"}),
        transitions=transitions,
        reject="rej",
    )


def gen_p3(lam: Fraction) -> Automaton:
    """Four-state PBA parameterized by a small escape probability.

    s0 is both initial and the sole final state.  On an ordinary symbol it
    keeps scanning with probability lam and drops to s1 otherwise; separator
    symbols route s1/s2 back toward s0 or into the absorbing sink.  The two
    separator symbols of the original figure behave identically, so a single
    ``@`` stands for both (``#`` would collide with text-format comments).
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise AutomatonError("p3 generator needs a rational in (0,1)")
    one = Fraction(1)
    transitions = {
        ("s0", "x"): (("s0", lam), ("s1", 1 - lam)),
        ("s0", "@"): (("sr", one),),
        ("s0", "$"): (("sr", one),),
        ("s1", "x"): (("s1", one),),
        ("s1", "@"): (("s0", one),),
        ("s1", "$"): (("s2", one),),
        ("s2", "x"): (("sr", one),),
        ("s2", "@"): (("sr", one),),
        ("s2", "$"): (("s0", one),),
        ("sr", "x"): (("sr", one),),
        ("sr", "@"): (("sr", one),),
        ("sr", "$"): (("sr", one),),
    }
    return Automaton(
        name="p3",
        role="pba",
        alphabet=("x", "@", "$"),
        states=("s0", "s1", "s2", "sr"),
        initial="s0",
        acceptance=BuchiAcceptance(frozenset({"s0"})),
        transitions=transitions,
    )


GENERATORS = {
    "m_id": (gen_m_id, 0),
    "m_id_swapped": (gen_m_id_swapped, 0),
    "m_id_squared": (gen_m_id_squared, 0),
    "succinct": (gen_succinct, 1),
    "p3": (gen_p3, 1),
}


def generate_example(name: str, *params: str) -> Automaton:
    """Dispatch to a named generator; parameters arrive as strings."""
    if name not in GENERATORS:
        raise AutomatonError(
            f"unknown generator {_clip(name)}; known: {', '.join(sorted(GENERATORS))}"
        )
    fn, arity = GENERATORS[name]
    if len(params) != arity:
        raise AutomatonError(f"generator {name} takes {arity} parameter(s)")
    if name == "succinct":
        try:
            n = integer(params[0])
        except ValueError:
            raise AutomatonError("succinct parameter must be an integer") from None
        return fn(n)
    if name == "p3":
        try:
            lam = rational(params[0])
        except ValueError:
            raise AutomatonError("p3 parameter must be a rational like 1/4") from None
        return fn(lam)
    return fn()
