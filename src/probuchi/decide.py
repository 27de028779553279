"""Decision procedures: NBA emptiness/complementation/universality, monitor
subset/monoid procedures, almost-sure decisions, bounded witness search.

Every nonempty or non-universal answer ships a certificate that is
re-verified by an independent engine (exact lasso acceptance or NBA lasso
membership) before being returned.  An empty answer of monitor positive
emptiness ships one too: a topological numbering of its safe-step graph,
re-checked one support step per node and symbol.  A failed re-check raises
:class:`CertificationError` through :func:`_certify`, naming the witness
as a lasso over the alphabet, or the automaton when there is no witness,
instead of silently answering.

Monitor positive emptiness is decided on supports.  A set T of live states
steps safely on a symbol a when post(T, a) misses the reject; L_>0(m) is
nonempty iff the safe steps reachable from the singletons of the live
states that a nonempty word reaches close a cycle.  If T -> ... -> T on a
word v, then v^omega never leaves T, and T holds mass after some stem.  If
there is no cycle, every safe walk is shorter than the graph, so from
every live state some leak happens within 2^|Q| letters with probability
bounded below, and almost every run is rejected.

Monitor positive universality is decided on belief supports, the state
sets that words reach from {q0}: L_>0(m) is not universal iff the
almost-sure reachability fixpoint of blind POMDPs keeps {q0}, the greatest
set W of supports from which every state reaches the reject through
symbols that stay in W.  A universal answer builds no monoid element.

Long searches accept a cooperative ``cancel`` callback (return True to stop,
raises :class:`SearchCancelled`); the monoid, profile and subset searches
also take an optional ``progress`` callback that receives short status
strings.  Every breadth-first search is one generator, :func:`_discover`,
which hands out elements lazily in discovery order, so a caller that
wants one element stops there.  Both monoids come from one kernel,
:func:`_monoid`, the profile monoid on one :func:`_profile_tables`, as
elements with their shortest words, one :func:`_image` per row and letter;
:func:`transition_monoid` returns them as one map, and the witnesses of
monitor positive emptiness and universality read them only up to their
first hit, each element through one :func:`_closure`.  All functions are
pure; deterministic tie-breaking (shortest first, then symbol declaration
order) makes outputs reproducible.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Container, Hashable, Iterable, Iterator, Sequence, TypeVar

from .core import (
    Automaton,
    AutomatonError,
    BuchiAcceptance,
    LassoWord,
    NONDET_ROLES,
    ResourceLimitError,
    _clip,
    all_words,
    post,
    require_valid,
)
from .construct import _empty_nba, complement_to_fpm, hpba_to_nba
from .graphs import accepting_cycle, lasso_product, reaching, tarjan_sccs
from .markov import (
    _bscc_accepting,
    _cycle_values,
    _lasso_value,
    _passage,
    _passage_row,
    _walk,
    lasso_acceptance,
)
from .textio import format_lasso, integer

__all__ = [
    "SubsetWitness",
    "AsymptoticWitness",
    "LassoLowerBound",
    "CertificationError",
    "SearchCancelled",
    "nba_lasso_member",
    "nba_emptiness",
    "nba_complement",
    "nba_universality",
    "hpba_probable_empty",
    "hpba_probable_universal",
    "fpm_positive_empty",
    "fpm_positive_universal",
    "almost_sure_empty",
    "almost_sure_universal",
    "pba_positive_nonempty_bounded",
    "verify_subset_witness",
    "verify_asymptotic_witness",
    "acceptance_lower_bound",
    "containment_refute",
    "transition_monoid",
]

Cancel = Callable[[], bool] | None
Progress = Callable[[str], None] | None

MONOID_CAP_ENV = "PROBUCHI_MONOID_CAP"
COMPLEMENT_CAP_ENV = "PROBUCHI_COMPLEMENT_CAP"
_CAP_FLAGS = {MONOID_CAP_ENV: "--monoid-cap", COMPLEMENT_CAP_ENV: "--complement-cap"}

# Fixed limits of the rank-based complement: states, rank choices per step.
COMPLEMENT_STATE_LIMIT = 50_000
COMPLEMENT_BRANCH_LIMIT = 50_000

# Stem and cycle bound of the lasso probe that runs before the complete
# universality decision.
_PROBE_BOUND = 3

_ACCEPTED = "universality counterexample {} is accepted"


class CertificationError(AutomatonError):
    """A witness failed its independent re-verification (internal error)."""


class SearchCancelled(AutomatonError):
    """A cooperative cancellation callback stopped a long search."""


def _cap(cap: int | None, env: str, default: int) -> int:
    """An explicit cap, else the integer in ``env``, else ``default``.

    The variable is read by :func:`probuchi.textio.integer`.  A cap below 1
    is an input error naming its flag or variable.
    """
    source = _CAP_FLAGS[env]
    if cap is None:
        text = os.environ.get(env)
        if text is None:
            return default
        source = env
        try:
            cap = integer(text)
        except ValueError:
            raise AutomatonError(f"{env} must be an integer, got {_clip(text)}") from None
    if cap < 1:
        raise AutomatonError(f"{source} must be at least 1, got {cap}")
    return cap


def _certify(holds: bool, aut: Automaton, w: LassoWord | None, claim: str, *details) -> None:
    """Raise :class:`CertificationError` unless the re-check ``holds``.

    The message is ``claim`` with its ``{}`` fields filled by what was
    checked, then by ``details``: the witness ``w`` written over ``aut``'s
    alphabet, or, for an empty answer, which has no witness, ``aut``'s name.
    """
    if not holds:
        subject = _clip(aut.name) if w is None else format_lasso(w, aut.alphabet)
        raise CertificationError(claim.format(subject, *details))


def _check_cancel(cancel: Cancel) -> None:
    if cancel is not None and cancel():
        raise SearchCancelled("search cancelled by caller")


@dataclass(frozen=True)
class SubsetWitness:
    """Certificate for nonempty positive monitor semantics.

    ``u`` reaches the state set with positive probability and ``v`` keeps
    every state of the set inside the set with probability one, so the word
    u v^omega survives forever with probability at least delta_u(qs, C).
    """

    states: frozenset[str]
    u: tuple[str, ...]
    v: tuple[str, ...]

    def lasso(self) -> LassoWord:
        return LassoWord(self.u, self.v).normalized()


@dataclass(frozen=True)
class AsymptoticWitness:
    """Bounded certificate that a PBA accepts some word with probability > x.

    Segment j keeps the set ``states`` inside itself with probability
    > 1 - 2^-j while touching a final state, endpoints included; chaining u
    with the segments yields a word accepted with positive probability.
    """

    states: frozenset[str]
    u: tuple[str, ...]
    segments: tuple[tuple[str, ...], ...]
    start_index: int = 1

    def lasso(self) -> LassoWord:
        """u u_1 ... u_{J-1} (u_J)^omega, the word the segments assemble."""
        stem = self.u + tuple(itertools.chain.from_iterable(self.segments[:-1]))
        return LassoWord(stem, self.segments[-1])


@dataclass(frozen=True)
class LassoLowerBound:
    """Certified lower bound extracted from an asymptotic witness.

    ``asymptotic`` is True when the last segment returns to the witness set
    with probability exactly one, in which case ``value`` really bounds the
    acceptance probability of ``lasso``; otherwise ``value`` only bounds the
    finite-prefix event of touching finals during every listed segment.
    """

    value: Fraction
    asymptotic: bool
    lasso: LassoWord


# ---------------------------------------------------------------------------
# Shared search helpers


def _word_key(aut: Automaton, word: Sequence[str]) -> tuple:
    sk = {a: i for i, a in enumerate(aut.alphabet)}
    return (len(word), tuple(sk[a] for a in word))


K = TypeVar("K", bound=Hashable)
S = TypeVar("S")


def _discover(
    seeds: Iterable[tuple[K, tuple[S, ...]]],
    step: Callable[[K, S], Iterable[K]],
    alphabet: Sequence[S],
    cap: int | None = None,
    cancel: Cancel = None,
    what: str = "",
) -> Iterator[tuple[K, tuple[S, ...]]]:
    """Breadth-first closure of ``seeds`` under ``step``, each with its word.

    ``step(x, a)`` lists the successors of ``x`` on symbol ``a``.  Yields
    every element in discovery order, which is (word length, symbol order),
    with the first word that reached it; a seed keeps the word it came
    with.  An element's successors are found after it is handed out, so a
    reader that stops early pays only for what it read.  Before each
    element is handed out, more than ``cap`` elements found, seeds
    included, raise :class:`ResourceLimitError` naming ``what``.
    """
    found: dict[K, tuple[S, ...]] = {}
    for key, word in seeds:
        found.setdefault(key, word)
    queue = deque(found)
    while queue:  # nonempty after every discovery, so each one is counted
        _check_cancel(cancel)
        if cap is not None and len(found) > cap:
            raise ResourceLimitError(
                f"{what} exceeds {cap} elements; raise it via "
                f"--monoid-cap or {MONOID_CAP_ENV}",
                cap_name=MONOID_CAP_ENV,
                cap_value=cap,
            )
        x = queue.popleft()
        word = found[x]
        yield x, word
        for a in alphabet:
            for y in step(x, a):
                if y not in found:
                    found[y] = word + (a,)
                    queue.append(y)


def _symbol_masks(aut: Automaton) -> dict[str, tuple[int, ...]]:
    """Per symbol, each state's successor set as a bitmask by declaration index."""
    idx = aut.index
    return {
        a: tuple(sum(1 << idx[t] for t in aut.successors(q, a)) for q in aut.states)
        for a in aut.alphabet
    }


def _image(mask: int, rows: Sequence[int]) -> int:
    """Union of ``rows[j]`` over the set bits j of ``mask``: one support step."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closure(rows: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of the support graph of ``rows``: each
    state's row holds every state it reaches, itself included.  Warshall's
    algorithm on the row bitmasks, O(n^2) word operations."""
    closure = [r | 1 << i for i, r in enumerate(rows)]
    for k in range(len(closure)):
        through, bit = closure[k], 1 << k
        closure = [c | through if c & bit else c for c in closure]
    return closure


def _monoid(gens: dict, acts: dict, alphabet: Sequence[S], cap: int, cancel: Cancel,
            what: str) -> Iterator[tuple[tuple[int, ...], tuple[S, ...]]]:
    """The support semigroup of ``gens`` by :func:`_discover`, with words.

    ``gens[a]`` holds the rows of symbol a; multiplying by it on the right
    takes each row to its :func:`_image` over ``acts[a]``.  Rows repeat
    across elements (there are at most 2^width of them), so each row's
    image on a is computed once per enumeration, by one :func:`_image`
    the first time the row meets a, and then read from ``images[a]``.
    Elements come lazily, in discovery order.
    """
    images: dict[S, dict[int, int]] = {a: {} for a in alphabet}

    def step(x: tuple[int, ...], a: S) -> tuple[tuple[int, ...]]:
        seen = images[a]
        try:
            return (tuple(map(seen.__getitem__, x)),)
        except KeyError:  # some row of x is new on a
            for r in x:
                if r not in seen:
                    seen[r] = _image(r, acts[a])
            return (tuple(map(seen.__getitem__, x)),)

    return _discover(((gens[a], (a,)) for a in alphabet), step, alphabet, cap, cancel, what)


def _first_steps(aut: Automaton, q: str) -> list[tuple[str, tuple[str]]]:
    """:func:`_discover` seeds for the nonempty words read from ``q``."""
    return [(t, (a,)) for a in aut.alphabet for t in aut.successors(q, a)]


def _walk_stems(
    alphabet: Sequence[S],
    bound: int,
    start: K,
    step: Callable[[K, S], K],
    cancel: Cancel = None,
) -> dict[tuple[S, ...], K]:
    """``start`` carried along every stem of length <= ``bound`` by ``step``.

    Stems come in :func:`all_words` order, the empty one first, and each is
    one ``step`` from its prefix, so the walk costs one step per stem.
    """
    walked = {(): start}
    for u in all_words(alphabet, 1, bound):
        _check_cancel(cancel)
        walked[u] = step(walked[u[:-1]], u[-1])
    return walked


# ---------------------------------------------------------------------------
# NBA procedures


def nba_lasso_member(a: Automaton, w: LassoWord) -> bool:
    """Does some run on ``w`` meet the acceptance condition?

    Decided on the graph over (state, cycle position).  For an NBA,
    membership holds iff a final-state node inside a cycle of that graph is
    reachable from the stem's successor set.  A DRA has one run, so its
    graph is a path into a single bottom SCC, whose states are the ones the
    run visits infinitely often; the Rabin pairs are checked on them.
    """
    if a.role not in NONDET_ROLES:
        raise AutomatonError("lasso membership needs a nondeterministic automaton")
    require_valid(a)
    a.check_symbols(w.stem + w.cycle)
    return _lasso_member(a, w)


def _lasso_member(a: Automaton, w: LassoWord) -> bool:
    """:func:`nba_lasso_member` for a validated automaton and word."""
    current = post(a, a.initial, w.stem)
    if not current:
        return False
    rows = a.transitions  # target tuples, since the role is nondeterministic
    nodes, _, adjacency = lasso_product(
        current, w.cycle, lambda q, s: [(t, None) for t in rows.get((q, s), ())], a.index
    )
    components = tarjan_sccs(nodes, adjacency)
    if a.role == "dra":
        # the graph's one bottom component, which Tarjan emits first
        return _bscc_accepting(a, components[0])
    finals = {n for n in nodes if n[0] in a.final_states}
    return any(accepting_cycle(comp, adjacency, finals) for comp in components)


def nba_emptiness(a: Automaton) -> LassoWord | None:
    """None when the language is empty, else a witness lasso.

    The witness reaches some final state on the stem and loops on the cycle;
    among all finals the (stem length + cycle length, stem, cycle) minimum
    under symbol declaration order is returned, re-verified by
    :func:`nba_lasso_member`.  A final's cycle search stops at that final.
    """
    if a.role != "nba":
        raise AutomatonError("emptiness needs an nba")
    require_valid(a)
    reach = dict(_discover([(a.initial, ())], a.successors, a.alphabet))
    best: tuple | None = None
    best_w: LassoWord | None = None
    for f in a.states:
        if f not in a.final_states or f not in reach:
            continue
        cycles = _discover(_first_steps(a, f), a.successors, a.alphabet)
        cyc = next((w for t, w in cycles if t == f), None)
        if cyc is None:
            continue
        u = reach[f]
        key = (
            len(u) + len(cyc),
            len(u),
            _word_key(a, u),
            _word_key(a, cyc),
        )
        if best is None or key < best:
            best = key
            best_w = LassoWord(u, cyc)
    if best_w is not None:
        _certify(nba_lasso_member(a, best_w), a, best_w, "emptiness witness {} failed membership")
    return best_w


# -- rank-based complementation


def nba_complement(a: Automaton, cap: int | None = None) -> Automaton:
    """Complement NBA via level rankings bounded by 2(|Q| - |F|).

    Classical rank-based construction: states pair a level ranking of the
    reachable subset with an obligation set tracking which even-ranked runs
    still owe a visit to an odd rank; acceptance is an empty obligation set.
    Macro-states are explored breadth-first on integers: a ranking is a
    tuple of (state index, rank) pairs, interned to an id, and the
    obligation set a bitmask, stepped through the input's per-symbol
    successor masks.  Work is paid once per distinct input:
    - per ranking, one pass over its edges per symbol gives the successors'
      rank bounds (:func:`_rank_bounds`), interned as bound sets;
    - per bound set, its rank choices and their even-rank masks are
      expanded once (:func:`_rank_choices`);
    - per (bound set, owed successors), the row of targets is built, one
      ``owing & even`` and one dictionary probe per choice, and shared by
      every later macro-state with that key;
    - per macro-state and symbol, only the owed successors and two
      dictionary probes remain.
    The integer successor table then goes to :func:`_quotient`, which trims
    it and quotients it by forward bisimulation; no intermediate automaton
    is built.  Inputs larger than the cap, or explorations beyond the fixed
    state or branching limits, raise :class:`ResourceLimitError` naming the
    cap: the branch limit at the first sight of a bound set, the state
    limit at the first new macro-state past it, both where an unmemoized
    exploration would.
    """
    if a.role != "nba":
        raise AutomatonError("complementation needs an nba")
    require_valid(a)
    the_cap = _cap(cap, COMPLEMENT_CAP_ENV, 10)
    n = len(a.states)
    if n > the_cap:
        raise ResourceLimitError(
            f"{n} states exceed the complementation cap {the_cap}; raise it via "
            f"--complement-cap or {COMPLEMENT_CAP_ENV}",
            cap_name=COMPLEMENT_CAP_ENV,
            cap_value=the_cap,
        )
    final = [q in a.final_states for q in a.states]
    r_max = 2 * (n - sum(final))
    gens = list(_symbol_masks(a).values())
    succ_lists = [[_members(m) for m in g] for g in gens]

    # Rankings and bound sets are interned to ids, so a macro-state is the
    # pair (ranking id, owed states).  Per ranking: the successor rank bounds
    # of each symbol, as bound set ids.  Per bound set: its rank choices, as
    # (ranking id, even-ranked states) pairs.  Rows by (bound set id, owed
    # successors); -1 stands for "no obligation", since -1 & even == even.
    ranked = [((a.index[a.initial], r_max),)]
    rank_ids = {ranked[0]: 0}
    bounded: list[tuple[tuple[int, int], ...]] = []
    bound_ids: dict[tuple[tuple[int, int], ...], int] = {}
    steps: dict[int, list[int]] = {}
    expansions: dict[int, list[tuple[int, int]]] = {}
    ids = {(0, 0): 0}
    found = [(0, 0)]
    memo: dict[tuple[int, int], list[int]] = {}
    table: list[list[list[int]]] = []
    for rid, owing in found:  # grows while it is read: breadth-first
        bids = steps.get(rid)
        if bids is None:
            bids = steps[rid] = [_intern(b, bound_ids, bounded)
                                 for b in _rank_bounds(ranked[rid], succ_lists, r_max)]
        rows = []
        for g, bid in zip(gens, bids):
            owing_succ = _image(owing, g) if owing else -1
            key = (bid, owing_succ)
            targets = memo.get(key)
            if targets is None:
                choices = expansions.get(bid)
                if choices is None:
                    choices = expansions[bid] = [(_intern(g2, rank_ids, ranked), even)
                                                 for g2, even in _rank_choices(bounded[bid], final)]
                targets = memo[key] = []
                for choice, even in choices:
                    nxt = (choice, owing_succ & even)
                    j = ids.get(nxt)
                    if j is None:
                        if len(ids) >= COMPLEMENT_STATE_LIMIT:
                            raise ResourceLimitError(
                                f"complement exploration exceeds "
                                f"{COMPLEMENT_STATE_LIMIT} states; the limit is fixed",
                                cap_name="state_cap",
                                cap_value=COMPLEMENT_STATE_LIMIT,
                            )
                        j = ids[nxt] = len(found)
                        found.append(nxt)
                    targets.append(j)
                targets.sort()
            rows.append(targets)
        table.append(rows)
    accepting = {i for i, (_, owing) in enumerate(found) if not owing}
    return _quotient(f"compl({a.name})", a.alphabet, table, accepting, 0)


def _intern(key: K, ids: dict[K, int], keys: list[K]) -> int:
    """The id of ``key`` in ``ids``; a new key gets the next one and joins ``keys``."""
    i = ids.get(key)
    if i is None:
        i = ids[key] = len(keys)
        keys.append(key)
    return i


def _rank_bounds(
    ranking: tuple[tuple[int, int], ...], succ_lists: Sequence[Sequence[Sequence[int]]], r_max: int
) -> list[tuple[tuple[int, int], ...]]:
    """Per symbol, each successor of ``ranking``'s states with the least rank
    of its predecessors, as (state index, bound) pairs in state order."""
    out = []
    for succ in succ_lists:
        succ_bound: dict[int, int] = {}
        for q, r in ranking:
            for t in succ[q]:
                succ_bound[t] = min(succ_bound.get(t, r_max), r)
        out.append(tuple(sorted(succ_bound.items())))
    return out


def _rank_choices(
    bounds: tuple[tuple[int, int], ...], final: Sequence[bool]
) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Every ranking at or below ``bounds`` that gives final states even
    ranks, in product order, each with the bitmask of its even-ranked
    states.  Each state's allowed ranks extend every prefix once, so a
    choice is built one (state, rank) pair at a time.  More than the fixed
    branch limit raise :class:`ResourceLimitError` before any is built.
    """
    options = [[(((t, r),), 0 if r & 1 else 1 << t)
                for r in range(0, bound + 1, 2 if final[t] else 1)] for t, bound in bounds]
    if math.prod(map(len, options)) > COMPLEMENT_BRANCH_LIMIT:
        raise ResourceLimitError(
            f"rank branching exceeds {COMPLEMENT_BRANCH_LIMIT} at one "
            f"transition; the limit is fixed (input likely too large "
            f"for the rank-based method)",
            cap_name="branch_cap",
            cap_value=COMPLEMENT_BRANCH_LIMIT,
        )
    out: list[tuple[tuple[tuple[int, int], ...], int]] = [((), 0)]
    for steps in options:
        out = [(pairs + pair, even | bit) for pairs, even in out for pair, bit in steps]
    return out


def _quotient(
    name: str,
    alphabet: tuple[str, ...],
    table: Sequence[Sequence[Sequence[int]]],
    finals: Container[int],
    initial: int,
) -> Automaton:
    """The trimmed forward-bisimulation quotient of an integer NBA.

    ``table[q][i]`` lists the successors of state q on ``alphabet[i]`` in
    ascending order.  States off every accepting run from ``initial`` are
    dropped; if that is all of them the result is the one-state empty NBA.
    The kept states are split, starting from {final, non-final}, by their
    signature: own block plus, per symbol, the set of successor blocks,
    until the block count stops growing.  That is the coarsest partition in
    which a block's members share finality and successor blocks.  Equal
    rows are interned once, and the trim, the rounds and the naming read
    each distinct row once: a round costs one frozenset of block ids per
    distinct row, read off a list indexed by state id, plus one signature
    per state, O(|kept|·|alphabet|) plus the total length of the distinct
    rows, not of every edge, and at most |kept| rounds run.  Blocks are
    named ``kv0``, ``kv1``, ... in breadth-first order from the initial
    block, reading each block's first member's successors in state order.
    Every emitted row is sorted by block number, which is declaration
    order, and lists each block once, so the result is built by
    :meth:`Automaton._trusted`, without the constructor's re-sort.
    """
    # Rows repeat across states: each distinct row is interned once and a
    # state keeps its rows' ids.  The support graph goes through them, state
    # q to row node ~r for each of its rows r and ~r to r's targets, so the
    # searches pay per distinct row, not per edge; a cycle through a state
    # has two or more nodes either way.
    row_id: dict[tuple[int, ...], int] = {}
    ids = [[row_id.setdefault(tuple(row), len(row_id)) for row in rows] for rows in table]
    adjacency: dict[int, Sequence[int]] = {q: [~r for r in rids] for q, rids in enumerate(ids)}
    adjacency.update((~r, row) for r, row in enumerate(row_id))
    live = reaching(range(len(table)), adjacency,
                    lambda comp: accepting_cycle(comp, adjacency, finals))
    if not live[initial]:
        return _empty_nba(name, alphabet, "kv0")
    # live successors; forward reachability within live states closes keep
    # under them, so from a kept state they all stay in keep
    succ = [[t for t in row if live[t]] for row in row_id]
    symbols = range(len(alphabet))
    kept = sorted(q for q, _ in _discover([(initial, ())], lambda q, i: succ[ids[q][i]],
                                          symbols))
    used = {r for q in kept for r in ids[q]}
    # block ids by state id; a state off ``kept`` keeps its 0 and is never read
    block = [0] * len(table)
    for q in kept:
        block[q] = int(q in finals)
    count = len({block[q] for q in kept})
    while True:
        at = block.__getitem__
        blocks_of = {r: frozenset(map(at, succ[r])) for r in used}
        sigs: dict[tuple, int] = {}
        new_block = [0] * len(table)
        for q in kept:
            sig = (block[q], *[blocks_of[r] for r in ids[q]])
            new_block[q] = sigs.setdefault(sig, len(sigs))
        block = new_block
        if len(sigs) == count:
            break
        count = len(sigs)
    # at the fixpoint the members of a block share their acceptance and
    # their successor blocks, so one member gives the block's rows; a row's
    # blocks are listed once each, in the order its targets first reach them
    rep: dict[int, int] = {}
    for q in kept:
        rep.setdefault(block[q], q)
    blocks = {r: list(dict.fromkeys(block[t] for t in succ[r])) for r in used}
    order = [b for b, _ in _discover([(block[initial], ())],
                                     lambda b, i: blocks[ids[rep[b]][i]], symbols)]
    number = {b: i for i, b in enumerate(order)}
    names = [f"kv{i}" for i in range(len(order))]
    named = {r: tuple(names[i] for i in sorted(number[c] for c in blocks[r])) for r in used}
    transitions = {
        (src, sym): named[r]
        for src, b in zip(names, order)
        for sym, r in zip(alphabet, ids[rep[b]])
        if named[r]
    }
    return Automaton._trusted(
        name=name,
        role="nba",
        alphabet=alphabet,
        states=tuple(names),
        initial="kv0",
        acceptance=BuchiAcceptance(
            frozenset(src for src, b in zip(names, order) if rep[b] in finals)
        ),
        transitions=transitions,
    )


# -- transition profiles (Ramsey universality)

# A profile packs one 2n-bit row per state, reach | fin << n: a path exists,
# and a path exists through a final state, endpoints included.  Row by row
# fin is a subset of reach, so right-multiplying by a profile is a support
# step over its action rows: the rows a left factor's reach bits, then its
# fin bits, read in the profile.


def _profile_tables(a: Automaton) -> tuple[dict, dict, tuple[int, ...]]:
    """Per symbol its profile and action rows, then the empty word's profile.
    A symbol's fin bits are the successors reached while touching a final
    state at either end."""
    n = len(a.states)
    full = (1 << n) - 1
    finals = a.final_states
    final_mask = sum(1 << a.index[q] for q in finals)
    gens = {
        sym: tuple(r | (r if q in finals else r & final_mask) << n
                   for q, r in zip(a.states, rows))
        for sym, rows in _symbol_masks(a).items()
    }
    acts = {sym: p + tuple((r & full) << n for r in p) for sym, p in gens.items()}
    unit = tuple(1 << i | (q in finals) << i + n for i, q in enumerate(a.states))
    return gens, acts, unit


def _profile_fixes(rows: Iterable[int], p: tuple[int, ...], n: int) -> bool:
    """Is each of ``rows`` its own product with the profile ``p``?

    A row r times p is :func:`_image` over p's action rows, which is the
    image of r's reach bits under p, with the reach half of the image of
    r's fin bits shifted into the fin half; the action rows are never
    built.  The reach half is compared first, since most products already
    differ there.
    """
    full = (1 << n) - 1
    for r in rows:
        low = _image(r & full, p)
        if low & full != r & full or low | (_image(r >> n, p) & full) << n != r:
            return False
    return True


def nba_universality(
    a: Automaton,
    monoid_cap: int | None = None,
    cancel: Cancel = None,
    progress: Progress = None,
) -> LassoWord | None:
    """None when the NBA accepts every word, else a rejected counterexample.

    A bounded lasso search runs first as a fast path: stems and cycles up
    to length 3, at one SCC search on the states per cycle up to rotation
    and powers (a, b, ab, aab, abb over two letters) rather than per
    lasso, and one successor set per stem.  The complete decision
    enumerates the finite monoid of transition profiles (reachability with
    and without touching a final state) on :func:`_monoid` and checks
    every linked pair (U, V idempotent, UV = U): the language is
    universal iff each such pair admits a final-touching loop, and a
    failing pair yields the rejected lasso word(U) word(V)^omega.  The
    loop test reads U only through the states it reaches from the initial
    one, so it runs once per such row and V, and only the U of failing
    rows get the UV = U test.  The profile monoid,
    single letters included, is capped by the shared monoid cap.  The
    probe and the monoid share one :func:`_profile_tables`.
    """
    if a.role != "nba":
        raise AutomatonError("universality needs an nba")
    require_valid(a)
    tables = _profile_tables(a)
    probed = _universality_probe(a, tables, cancel)
    if probed is not None:
        _certify(not _lasso_member(a, probed), a, probed, _ACCEPTED)
        return probed
    gens, acts, unit = tables
    cap = _cap(monoid_cap, MONOID_CAP_ENV, 10**6)
    elements = dict(_monoid(gens, acts, a.alphabet, cap, cancel, "profile monoid"))
    if progress is not None:
        progress(f"profile monoid has {len(elements)} elements")
    n = len(a.states)
    full = (1 << n) - 1
    idx0 = a.index[a.initial]
    pairs = [(unit, ()), *elements.items()]
    # Whether u v^omega is rejected depends on u only through the states u
    # reaches from the initial one, so the u are grouped by that row.
    by_row: dict[int, list[int]] = {}
    for i, (u, _) in enumerate(pairs):
        by_row.setdefault(u[idx0] & full, []).append(i)
    for v, vw in elements.items():
        _check_cancel(cancel)
        if not _profile_fixes(v, v, n):  # v is not idempotent
            continue
        # States with a final-touching v-loop; u v^omega is accepted iff v
        # leads from a state u reaches into one of them.
        loops = sum(1 << s for s in range(n) if v[s] >> n + s & 1)
        rejected = (ids for r, ids in by_row.items() if not _image(r, v) & loops)
        for i in sorted(itertools.chain.from_iterable(rejected)):
            u, uw = pairs[i]
            if _profile_fixes(u, v, n):
                witness = LassoWord(uw, vw)
                _certify(not _lasso_member(a, witness), a, witness, _ACCEPTED)
                return witness
    return None


def _universality_probe(a: Automaton, tables: tuple, cancel: Cancel = None) -> LassoWord | None:
    """The first lasso within :data:`_PROBE_BOUND` that ``a`` rejects, or None.

    ``tables`` is ``a``'s :func:`_profile_tables`.  Lassos come stem by
    stem, each stem's cycles in :func:`all_words` order.
    Each stem's successor set is one support step from its prefix's.  Each
    cycle v gets the set of states from which v^omega is accepted, and
    u v^omega is rejected exactly when post(u) misses that set.  Only the
    least rotation r of a primitive cycle gets a profile and a closure, by
    :func:`_loop_starts`; since (xy)^omega = x (yx)^omega, the set of v = xy
    with r = yx is the preimage under x of r's, and a power w^k has w's.
    """
    n = len(a.states)
    gens, acts, unit = tables
    masks = {sym: tuple(r & (1 << n) - 1 for r in p) for sym, p in gens.items()}
    stems = _walk_stems(
        a.alphabet,
        _PROBE_BOUND,
        1 << a.index[a.initial],
        lambda m, sym: _image(m, masks[sym]),
        cancel,
    )
    profiles = {(): unit}

    def profile(w: tuple[str, ...]) -> tuple[int, ...]:
        if w not in profiles:
            profiles[w] = tuple(_image(r, acts[w[-1]]) for r in profile(w[:-1]))
        return profiles[w]

    accepted_from: dict[tuple[str, ...], int] = {}

    def accepted(v: tuple[str, ...]) -> int:
        if v not in accepted_from:
            k = len(v)
            root = next(v[:d] for d in range(1, k + 1) if k % d == 0 and v[:d] * (k // d) == v)
            i = min(range(k), key=lambda j: v[j:] + v[:j])
            if root != v:
                accepted_from[v] = accepted(root)
            elif i:
                x = accepted(v[i:] + v[:i])
                for sym in reversed(v[:i]):
                    x = sum(1 << q for q, m in enumerate(masks[sym]) if m & x)
                accepted_from[v] = x
            else:
                accepted_from[v] = _loop_starts(profile(v), n)
        return accepted_from[v]

    cycles = list(all_words(a.alphabet, 1, _PROBE_BOUND))
    for u, current in stems.items():
        for v in cycles:
            _check_cancel(cancel)
            if not current & accepted(v):
                return LassoWord(u, v)
    return None


def _loop_starts(p: tuple[int, ...], n: int) -> int:
    """The states q from which v^omega is accepted, for v of profile ``p``.

    On the graph of v's reach rows, with an edge marked when its run can
    touch a final state, q qualifies iff it reaches a cycle through a
    marked edge: a run of v^omega that touches a final once per turn of
    that cycle.  A marked edge lies on a cycle iff its ends share a
    component, so one pass over the components decides every q.
    """
    full = (1 << n) - 1
    adjacency = {s: _members(r & full) for s, r in enumerate(p) if r & full}

    def loop(comp: list[int]) -> bool:
        mask = sum(1 << s for s in comp)
        return any(p[s] >> n & mask for s in comp)

    return sum(1 << q for q, hit in reaching(range(n), adjacency, loop).items() if hit)


# ---------------------------------------------------------------------------
# HPBA decisions (delegate through the two-copy NBA)


def hpba_probable_empty(h: Automaton) -> LassoWord | None:
    """None when L_>0(h) is empty, else a witness with exact acceptance > 0."""
    w = nba_emptiness(hpba_to_nba(h))
    if w is not None:
        _certify(lasso_acceptance(h, w) > 0, h, w, "witness {} has zero acceptance")
    return w


def hpba_probable_universal(h: Automaton, **kw) -> LassoWord | None:
    """None when L_>0(h) is universal, else a lasso with exact acceptance 0."""
    w = nba_universality(hpba_to_nba(h), **kw)
    if w is not None:
        _certify(lasso_acceptance(h, w) == 0, h, w, "counterexample {} has positive acceptance")
    return w


# ---------------------------------------------------------------------------
# FPM subset/monoid procedures


def transition_monoid(
    aut: Automaton,
    cap: int | None = None,
    cancel: Cancel = None,
    progress: Progress = None,
) -> dict[tuple[int, ...], tuple[str, ...]]:
    """Boolean transition monoid: each element's rows to its shortest word.

    An element is the support matrix of a nonempty word, one successor
    bitmask per state by declaration index.  This is :func:`_monoid` read
    in full, the shape the profile monoid also has: elements come
    breadth-first from the single-letter supports, so discovery order is
    (word length, symbol order) and the stored word is the smallest
    realizing one.  Each product costs one dictionary lookup per row, and
    one :func:`_image` for a row the first time it meets a letter.
    Exceeding the cap, single-letter supports included, raises
    :class:`ResourceLimitError`; completeness never silently degrades.
    """
    require_valid(aut)
    gen = _symbol_masks(aut)
    cap = _cap(cap, MONOID_CAP_ENV, 10**6)
    elements = dict(_monoid(gen, gen, aut.alphabet, cap, cancel, "transition monoid"))
    if progress is not None:
        progress(f"transition monoid has {len(elements)} elements")
    return elements


def verify_subset_witness(m: Automaton, w: SubsetWitness) -> bool:
    """Exact re-check of the subset witness invariants.  A set holding the
    reject state fails: the reject is absorbing, so it stays inside the set
    while the run's acceptance is 0.

    Both invariants are support questions, answered by :func:`post`'s set
    walk, which shares no code with the search's bitmask kernel: ``u`` leads
    from the initial state into the set (delta_u(qs, C) > 0), and ``v``
    leads from each state of the set only into the set (delta_v(q, C) = 1).
    """
    if m.role != "fpm":
        raise AutomatonError("verify_subset_witness needs an fpm")
    if not w.states or not w.u or not w.v or m.reject in w.states:
        return False
    require_valid(m)
    reached = post(m, m.initial, w.u)
    for q in w.states:
        if q not in m.index:
            raise AutomatonError(f"unknown state {q!r}")
    if not reached & w.states:
        return False
    return all(post(m, q, w.v) <= w.states for q in w.states)


def fpm_positive_empty(
    m: Automaton,
    monoid_cap: int | None = None,
    cancel: Cancel = None,
    progress: Progress = None,
) -> SubsetWitness | None:
    """None when L_>0(m) is empty, else a subset witness (C, u, v).

    Decided on supports, by the safe-step graph: a nonempty set T of live
    states steps safely on a symbol a when post(T, a) misses the reject.
    Its nodes are the sets that safe steps reach from the singletons {q} of
    the live states some nonempty word reaches, and L_>0(m) is nonempty iff
    the graph has a cycle.  A cycle T -> ... -> T on a word v keeps all of
    v^omega's mass from T inside T, and T holds mass after some stem.  With
    no cycle, every safe walk is shorter than the graph, so from every live
    state some leak happens within 2^|Q| symbols with probability at least
    a fixed bound, and almost every run is rejected.

    An empty answer is returned only after :func:`_certify_numbering`
    re-checks a topological numbering of the graph.  A nonempty answer
    recovers the witness of the exhaustive procedure: the first transition
    monoid element in discovery order that, from some start state (taken
    by its shortest reaching word), keeps its closure free of the reject.
    The monoid is enumerated only up to that element.  The graph has at
    most min(2^|Q|, |Q|*(|monoid| + 1)) nodes, since each is a seed or a
    row of a monoid element, so it is capped at |Q|*(cap + 1) nodes by the
    monoid cap, which also bounds the elements read before the witness.
    """
    if m.role != "fpm":
        raise AutomatonError("fpm_positive_empty needs an fpm")
    require_valid(m)
    cap = _cap(monoid_cap, MONOID_CAP_ENV, 10**6)
    assert m.reject is not None
    idx = m.index
    masks = _symbol_masks(m)
    reject_bit = 1 << idx[m.reject]
    reach = dict(_discover(_first_steps(m, m.initial), m.successors, m.alphabet))
    candidates = [q for q in reach if q != m.reject]
    candidates.sort(key=lambda q: (_word_key(m, reach[q]), idx[q]))
    seeds = [1 << idx[q] for q in candidates]

    def safe(t: int, a: str) -> tuple[int, ...]:
        s = _image(t, masks[a])
        return () if s & reject_bit else (s,)

    nodes = [t for t, _ in _discover(((t, ()) for t in seeds), safe, m.alphabet,
                                     len(m.states) * (cap + 1), cancel, "safe-step subset graph")]
    if progress is not None:
        progress(f"safe-step subset graph has {len(nodes)} nodes")
    adjacency = {t: [s for a in m.alphabet for s in safe(t, a)] for t in nodes}
    components = tarjan_sccs(nodes, adjacency)
    if not any(len(c) > 1 or c[0] in adjacency[c[0]] for c in components):
        # acyclic, so every component is one node, sinks first
        number = {t: i for i, (t,) in enumerate(components)}
        _certify_numbering(m, seeds, number)
        return None
    for rows, vword in _monoid(masks, masks, m.alphabet, cap, cancel, "transition monoid"):
        closure = _closure(rows)
        for q in candidates:
            kept = closure[idx[q]]
            if kept & reject_bit:  # the closure leaks into the reject
                continue
            states = frozenset(m.states[j] for j in _members(kept))
            witness = SubsetWitness(states, reach[q], vword)
            _certify(verify_subset_witness(m, witness), m, LassoWord(witness.u, witness.v),
                     "subset witness {} on states {} failed re-check",
                     " ".join(s for s in m.states if s in states))
            return witness
    _certify(False, m, None, "the safe-step graph of {} has a cycle, but no transition "
             "monoid element keeps a reachable state's closure live")


def _certify_numbering(m: Automaton, seeds: Iterable[int], number: dict[int, int]) -> None:
    """Re-check the certificate of an empty :func:`fpm_positive_empty` answer.

    ``number`` numbers state sets (bitmasks by declaration index).  Every
    seed singleton must be numbered, and every safe step from a numbered
    set must land on a numbered set with a strictly smaller number, so no
    safe walk from a seed is longer than the numbering: no cycle of safe
    steps is reachable.  The steps are computed afresh, one :func:`_image`
    per numbered set and symbol; the first failure names the monitor and
    the seed or step.
    """
    masks = _symbol_masks(m)
    reject_bit = 1 << m.index[m.reject]

    def name(t: int) -> str:
        return "{" + " ".join(q for j, q in enumerate(m.states) if t >> j & 1) + "}"

    for t in seeds:
        _certify(t in number, m, None, "emptiness certificate of {} leaves {} unnumbered",
                 name(t))
    for t, i in number.items():
        for a in m.alphabet:
            s = _image(t, masks[a])
            _certify(bool(s & reject_bit) or number.get(s, i) < i, m, None,
                     "emptiness certificate of {} fails at safe step {} -{}-> {}",
                     name(t), a, name(s))


def _safe_start_mask(rows: tuple[int, ...], reject_index: int) -> int:
    """States from which repeating the macro-step surely hits only the reject.

    On the support graph of one macro-step matrix, absorption is almost sure
    into bottom SCCs; a start state is "doomed" iff every bottom SCC it can
    reach is the reject singleton.  State j lies in a bottom SCC iff every
    state it reaches reaches it back; its component is then its row of the
    :func:`_closure`.  Returns the bitmask of doomed states.
    """
    closure = _closure(rows)
    n = len(closure)
    bad = 0  # states of bottom SCCs other than the reject singleton
    for j, c in enumerate(closure):
        if c != 1 << reject_index and all(
            closure[k] >> j & 1 for k in range(n) if c >> k & 1
        ):
            bad |= 1 << j
    return sum(1 << q for q, c in enumerate(closure) if not c & bad)


def _belief_supports(m: Automaton, masks: dict[str, tuple[int, ...]], cap: int,
                     cancel: Cancel) -> dict[int, tuple[str, ...]]:
    """The supports the subset automaton reaches from {q0}, each with its
    shortest, then smallest, stem.

    {q0} comes first with the empty stem, then the supports of nonempty
    words in shortlex order of their stems: the order in which the
    transition monoid first lists them as initial rows.  Only the latter
    count against ``cap``, each the initial row of a distinct monoid
    element, and more of them raise the monoid's own cap error.
    """
    start = 1 << m.index[m.initial]
    supports = {start: ()}
    for s, stem in _discover(((_image(start, masks[a]), (a,)) for a in m.alphabet),
                             lambda s, a: (_image(s, masks[a]),), m.alphabet, cap,
                             cancel, "transition monoid"):
        supports.setdefault(s, stem)
    return supports


def _almost_sure_supports(m: Automaton, masks: dict[str, tuple[int, ...]],
                          supports: Iterable[int], cancel: Cancel) -> set[int]:
    """The supports, among ``supports``, from which some word reaches the
    reject almost surely: the greatest set W in which every state of each
    support reaches the reject through allowed symbols, a symbol being
    allowed at B when post(B, a) lies in W.

    ``supports`` must be closed under post.  Each round computes, as a least
    fixpoint propagated back from the reject, the states of each support
    that reach it, and drops the supports where some state does not.
    """
    reject_bit = 1 << m.index[m.reject]
    preds: dict[int, list[tuple[int, int]]] = {s: [] for s in supports}
    for s in list(preds):
        for k, a in enumerate(m.alphabet):
            preds[_image(s, masks[a])].append((s, k))
    # pre[k][t]: the states that step to state t on the k-th symbol
    pre = [tuple(sum(1 << q for q, r in enumerate(masks[a]) if r >> t & 1)
                 for t in range(len(m.states))) for a in m.alphabet]
    win = set(preds)
    while True:
        reach = {s: s & reject_bit for s in win}
        work = deque(s for s in win if reach[s])
        while work:
            _check_cancel(cancel)
            t = work.popleft()
            # each state of s steps into t, from which it reaches the
            # reject, so s was kept whenever t was: preds[t] lies in win
            for s, k in preds[t]:
                r = reach[s] | s & _image(reach[t], pre[k])
                if r != reach[s]:
                    reach[s] = r
                    work.append(s)
        kept = {s for s in win if reach[s] == s}
        if kept == win:
            return win
        win = kept


def fpm_positive_universal(
    m: Automaton,
    monoid_cap: int | None = None,
    cancel: Cancel = None,
    progress: Progress = None,
) -> LassoWord | None:
    """None when L_>0(m) is universal, else a lasso rejected almost surely.

    L_>0(m) is not universal iff some word reaches the reject almost
    surely.  A word is a strategy that sees nothing, so the set of states
    it has reached, its belief support, follows from the word alone.
    Decided on the supports the subset automaton reaches from {q0}, by the
    almost-sure reachability fixpoint of blind POMDPs (Chatterjee, Doyen &
    Henzinger, MFCS 2010; Baier, Bertrand & Größer, FoSSaCS 2008): W
    starts as every support; a symbol a is allowed at B when post(B, a)
    lies in W; B stays when every state of B reaches the reject through
    allowed symbols, the support moving along; repeat until W stops
    shrinking.  The answer is "not universal" iff {q0} lies in W.

    Sound: drawing the allowed symbols at random keeps the support in W,
    and from each state of each support the reject is reached within
    |Q|*|W| symbols with probability bounded below, so it is reached
    almost surely; then almost every drawn word is rejected almost surely
    (Fubini), so some word is.  Complete: the supports from which some word
    wins almost surely are closed under that word's symbols, and each of
    their states reaches the reject along it, so they lie in W.  The search
    builds at most min(2^|Q|, |monoid| + 1) supports: each one that a
    nonempty word reaches is the initial row of a distinct monoid element.
    Only those count against the monoid cap, and a universal answer builds
    no monoid element.

    A non-universal answer recovers the witness of the exhaustive scan:
    the first support, in shortlex order of its shortest stem, doomed by a
    transition monoid element, with the first such element in discovery
    order as the cycle.  Supports outside W are doomed by none and are
    skipped; the monoid is read lazily, once across supports, with one
    :func:`_safe_start_mask` per element read.
    """
    if m.role != "fpm":
        raise AutomatonError("fpm_positive_universal needs an fpm")
    require_valid(m)
    cap = _cap(monoid_cap, MONOID_CAP_ENV, 10**6)
    assert m.reject is not None
    masks = _symbol_masks(m)
    reject_index = m.index[m.reject]
    start = 1 << m.index[m.initial]
    supports = _belief_supports(m, masks, cap, cancel)
    win = _almost_sure_supports(m, masks, supports, cancel)
    if progress is not None:
        progress(f"belief support fixpoint keeps {len(win)} of {len(supports)} supports")
    if start not in win:
        return None
    read: list[tuple[int, tuple[str, ...]]] = []  # (doomed mask, word) per element

    def doom_masks() -> Iterator[tuple[int, tuple[str, ...]]]:
        for rows, vword in _monoid(masks, masks, m.alphabet, cap, cancel, "transition monoid"):
            read.append((_safe_start_mask(rows, reject_index), vword))
            yield read[-1]

    unread = doom_masks()
    hit = next(((stem, v) for s, stem in supports.items() if s in win
                for d, v in itertools.chain(read, unread) if not s & ~d), None)
    if progress is not None:
        progress(f"witness read {len(read)} transition monoid elements")
    _certify(hit is not None, m, None, "the belief supports of {} reach the reject almost "
             "surely, but no transition monoid element dooms a reachable support")
    w = LassoWord(*hit).normalized()
    _certify(lasso_acceptance(m, w) == 0, m, w,
             "rejected-lasso counterexample {} has positive acceptance")
    return w


# ---------------------------------------------------------------------------
# Almost-sure decisions (dual through the complementation monitor)


def almost_sure_empty(b: Automaton, **kw) -> LassoWord | None:
    """None when L_=1(b) is empty, else a lasso accepted with probability 1.

    L_=1(b) is empty iff the positive semantics of the complementation
    monitor is universal.
    """
    ce = fpm_positive_universal(complement_to_fpm(b), **kw)
    if ce is not None:
        _certify(lasso_acceptance(b, ce) == 1, b, ce, "almost-sure witness {} not accepted surely")
    return ce


def almost_sure_universal(b: Automaton, **kw) -> LassoWord | None:
    """None when L_=1(b) is universal, else a lasso with acceptance < 1.

    L_=1(b) is universal iff the positive semantics of the complementation
    monitor is empty; a subset witness there turns into the rejected lasso.
    """
    sw = fpm_positive_empty(complement_to_fpm(b), **kw)
    if sw is None:
        return None
    w = sw.lasso()
    _certify(lasso_acceptance(b, w) < 1, b, w, "counterexample {} is accepted almost surely")
    return w


# ---------------------------------------------------------------------------
# Bounded asymptotic witness search


def _witness_factors(b: Automaton, w: AsymptoticWitness,
                     x: Fraction) -> list[Fraction] | None:
    """The reach mass z = delta_u(qs, C), then each segment's worst-case
    final-passage return min over C; None at the first that fails z > x or
    return > 1 - 2^-j, before any later row is walked or symbol met, and
    for a start index below 1, whose threshold 1 - 2^-j is not positive.
    z reads one :func:`_passage_row`, after :func:`word_matrix`'s checks,
    and each segment one per state of C, after
    :func:`final_passage_matrix`'s; no matrix is built."""
    if not w.states or not w.u or not w.segments or w.start_index < 1:
        return None
    if not b.is_probabilistic:
        raise AutomatonError("word matrices need a probabilistic automaton")
    require_valid(b)
    b.check_symbols(w.u)
    for q in w.states:
        if q not in b.index:
            raise AutomatonError(f"unknown state {q!r}")
    cols = [b.index[q] for q in w.states]
    row = _passage_row(b, b.initial, w.u, frozenset(b.states))
    z = sum((row[i] for i in cols), Fraction(0))
    if z <= x:
        return None
    factors = [z]
    for j, seg in enumerate(w.segments, w.start_index):
        if not seg:
            return None
        if not isinstance(b.acceptance, BuchiAcceptance):
            raise AutomatonError("final-passage matrices need Buchi acceptance")
        b.check_symbols(seg)
        rows = (_passage_row(b, q, seg, b.acceptance.final) for q in w.states)
        factors.append(min(sum((r[i] for i in cols), Fraction(0)) for r in rows))
        if factors[-1] <= 1 - Fraction(1, 2**j):
            return None
    return factors


def verify_asymptotic_witness(
    b: Automaton, w: AsymptoticWitness, x: Fraction = Fraction(0)
) -> bool:
    """Exact re-check of every matrix inequality behind the witness."""
    return _witness_factors(b, w, x) is not None


def pba_positive_nonempty_bounded(
    b: Automaton,
    max_len: int,
    max_j: int,
    x: Fraction = Fraction(0),
    cancel: Cancel = None,
) -> AsymptoticWitness | None:
    """Bounded search for an asymptotic nonemptiness witness of L_>x(b).

    Scans state sets C (by size, then position), reach words u and segment
    words u_j of length up to ``max_len``, with segment thresholds
    1 - 2^-j for j = 1..max_j.  Returns the witness its closing
    :func:`verify_asymptotic_witness` accepted, or None meaning "no witness
    within these bounds"; emptiness is never asserted (the problem is only
    semi-answerable in this direction).  Each reach word's state masses are
    one integer :func:`_walk` from its prefix's; its final-passage matrix
    comes from :func:`_passage` on the automaton validated once here.
    ``cancel`` is polled per stem, per reach word's matrix and per state set.
    """
    if not (b.is_probabilistic and b.is_buchi):
        raise AutomatonError("bounded witness search needs a probabilistic Buchi automaton")
    require_valid(b)
    if max_len < 1 or max_j < 1:
        raise AutomatonError("bounds must be at least 1")
    if x < 0:
        raise AutomatonError("x must be at least 0")
    reach = _walk_stems(b.alphabet, max_len, ({b.initial: 1}, 1), partial(_walk, b), cancel)
    del reach[()]
    fps = []
    for u in reach:
        _check_cancel(cancel)
        fps.append(_passage(b, u, b.acceptance.final))
    state_list = list(b.states)
    for size in range(1, len(state_list) + 1):
        for combo in itertools.combinations(range(len(state_list)), size):
            _check_cancel(cancel)
            c = frozenset(state_list[i] for i in combo)
            u = next((w for w, (nums, den) in reach.items()
                      if sum(p for q, p in nums.items() if q in c) > x * den), None)
            if u is None:
                continue
            segments = []
            for j in range(1, max_j + 1):
                bound = 1 - Fraction(1, 2**j)
                seg = next((w for w, fp in zip(reach, fps)
                            if all(fp.row_sum(q, c) > bound for q in c)), None)
                if seg is None:
                    break
                segments.append(seg)
            if len(segments) < max_j:
                continue
            witness = AsymptoticWitness(c, u, tuple(segments), 1)
            _certify(verify_asymptotic_witness(b, witness, x), b, witness.lasso(),
                     "asymptotic witness {} failed re-verification")
            return witness
    return None


def acceptance_lower_bound(b: Automaton, w: AsymptoticWitness) -> LassoLowerBound:
    """Certified lower bound on acceptance of the witness's assembled lasso.

    The bound multiplies the exact reach mass z = delta_u(qs, C) with each
    segment's worst-case final-passage return min over C (each exceeds
    1 - 2^-j by the witness invariants).  When the last segment returns with
    probability exactly one, repeating it forever contributes factor one per
    copy and the value bounds the acceptance probability of
    u u_{j0} ... u_J (u_J)^omega; otherwise the value only bounds the
    finite-prefix event and the result is tagged non-asymptotic.
    """
    require_valid(b)
    factors = _witness_factors(b, w, Fraction(0))
    if factors is None:
        raise AutomatonError("invalid asymptotic witness")
    return LassoLowerBound(value=math.prod(factors), asymptotic=factors[-1] == 1,
                           lasso=w.lasso())


# ---------------------------------------------------------------------------
# Containment refutation


def containment_refute(
    b1: Automaton,
    b2: Automaton,
    semantics: str,
    bound: int,
    cancel: Cancel = None,
) -> LassoWord | None:
    """Bounded search for a lasso separating two PBAs under one semantics.

    Containment is undecidable in both semantics, so only refutation is
    offered: the first lasso (stem and cycle up to ``bound``) in L(b1) but
    not L(b2), certified by exact acceptance probabilities, or None for
    "unknown".  Lassos come stem by stem, each stem's cycles in
    :func:`all_words` order.  A lasso's chain depends only on its cycle, so
    each operand solves at most one chain per cycle, from the union of its
    stems' supports, and scores a lasso as its stem masses times those
    per-state values: sum_{1<=c<=bound} |Sigma|^c solves per operand
    instead of one per lasso, for O(|Sigma|^bound * |Q|) stored masses and
    values.  ``b2``'s chain for a cycle is solved only once ``b1``'s value
    calls for it.  Scoring is on integers: each cycle's values are kept as
    numerators over their lcm, so a lasso's value is one integer dot
    product with its stem's numerators, over the product of the two
    denominators, and the tests against 0 and 1 compare integers.  Only a
    hit's two values become fractions, for the certificate: the witness is
    re-checked by each operand's per-lasso solve.
    """
    if semantics not in ("positive", "almost-sure"):
        raise AutomatonError("semantics must be positive or almost-sure")
    if b1.alphabet != b2.alphabet:
        raise AutomatonError("containment needs a shared alphabet")
    if bound < 1:
        raise AutomatonError("bound must be at least 1")
    for aut in (b1, b2):
        if not aut.is_probabilistic:
            raise AutomatonError("lasso acceptance needs a probabilistic automaton")
    for aut in (b1, b2):
        require_valid(aut)
    autos = (b1, b2)

    def step(walks, sym):
        return tuple(_walk(aut, walk, sym) for aut, walk in zip(autos, walks))

    stems = _walk_stems(b1.alphabet, bound, (({b1.initial: 1}, 1), ({b2.initial: 1}, 1)),
                        step, cancel)
    starts = [frozenset().union(*(m[k][0] for m in stems.values())) for k in (0, 1)]
    values: tuple[dict, dict] = ({}, {})

    def score(k: int, walks, v: tuple[str, ...]) -> tuple[int, int]:
        per_state = values[k].get(v)
        if per_state is None:
            exact = _cycle_values(autos[k], starts[k], v)
            vden = math.lcm(*(x.denominator for x in exact.values()))
            per_state = values[k][v] = (
                {q: x.numerator * (vden // x.denominator) for q, x in exact.items()}, vden)
        vnums, vden = per_state
        nums, den = walks[k]
        return sum(p * vnums[q] for q, p in nums.items()), den * vden

    positive = semantics == "positive"
    cycles = list(all_words(b1.alphabet, 1, bound))
    for u, masses in stems.items():
        for v in cycles:
            _check_cancel(cancel)
            n1, d1 = score(0, masses, v)
            if not (n1 > 0 if positive else n1 == d1):
                continue
            n2, d2 = score(1, masses, v)
            if not (n2 == 0 if positive else n2 < d2):
                continue
            w = LassoWord(u, v)
            scanned = (Fraction(n1, d1), Fraction(n2, d2))
            exact = (_lasso_value(b1, w), _lasso_value(b2, w))
            _certify(scanned == exact, b1, w, "containment witness {} scanned as {} and {}, "
                     "but its acceptance probabilities are {} and {}", *scanned, *exact)
            return w
    return None
