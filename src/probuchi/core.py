"""Automaton data model, validation, and hierarchy-rank inference.

One unified :class:`Automaton` type carries every machine the toolkit works
with; a role tag distinguishes probabilistic Buchi automata (``pba``), finite
probabilistic monitors (``fpm``), hierarchical PBAs (``hpba``), probabilistic
Rabin automata (``pra``), nondeterministic Buchi automata (``nba``) and
deterministic Rabin automata (``dra``).  Probabilities are exact
:class:`~fractions.Fraction` values of unbounded precision.

All values are immutable after construction: an automaton's
``transitions``, its cached ``index`` and ``weights`` and a ranking's
``levels`` are read-only mappings (:class:`types.MappingProxyType`), and
every operation in this package is a pure function of its inputs, so
anything here may be shared freely across concurrent tasks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .graphs import sccs_topological

__all__ = [
    "PROBABILISTIC_ROLES",
    "NONDET_ROLES",
    "BUCHI_ROLES",
    "RABIN_ROLES",
    "ROLES",
    "AutomatonError",
    "UnknownSymbolError",
    "InvalidAutomatonError",
    "ConstructionError",
    "ResourceLimitError",
    "BuchiAcceptance",
    "RabinAcceptance",
    "RankFunction",
    "LassoWord",
    "lasso",
    "Automaton",
    "ValidationReport",
    "validate",
    "require_valid",
    "ranking_violations",
    "infer_hierarchy",
    "post",
]

PROBABILISTIC_ROLES = frozenset({"pba", "fpm", "hpba", "pra"})
NONDET_ROLES = frozenset({"nba", "dra"})
BUCHI_ROLES = frozenset({"pba", "fpm", "hpba", "nba"})
RABIN_ROLES = frozenset({"dra", "pra"})
ROLES = PROBABILISTIC_ROLES | NONDET_ROLES


class AutomatonError(Exception):
    """Base class for errors raised by the toolkit."""


_CLIP_WIDTH = 40


def _clip(tok: object) -> str:
    """``tok``'s repr for an error message, a string cut to :data:`_CLIP_WIDTH` characters."""
    long = isinstance(tok, str) and len(tok) > _CLIP_WIDTH
    return repr(tok[:_CLIP_WIDTH]) + "..." if long else repr(tok)


class UnknownSymbolError(AutomatonError):
    """A word contains a symbol outside the automaton's alphabet."""

    def __init__(self, symbol: str, position: int | None = None):
        self.symbol = symbol
        self.position = position
        where = "" if position is None else f" at position {position}"
        super().__init__(f"unknown symbol {_clip(symbol)}{where}")


class InvalidAutomatonError(AutomatonError):
    """An operation received an automaton that fails validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(
            "invalid automaton: " + "; ".join(report.violations)
        )


class ConstructionError(AutomatonError):
    """A construction cannot be applied (role, alphabet or name clash)."""


class ResourceLimitError(AutomatonError):
    """A configurable search cap was exceeded.

    The message always names the exceeded cap and how to raise it, so a
    caller can retry explicitly instead of silently degrading completeness.
    """

    def __init__(self, message: str, cap_name: str, cap_value: int):
        self.cap_name = cap_name
        self.cap_value = cap_value
        super().__init__(message)


@dataclass(frozen=True)
class BuchiAcceptance:
    """Buchi condition: visit some state of ``final`` infinitely often."""

    final: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "final", frozenset(self.final))


@dataclass(frozen=True)
class RabinAcceptance:
    """Rabin condition: some pair (B, G) with B finitely and G infinitely often."""

    pairs: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def __post_init__(self) -> None:
        pairs = tuple(
            (frozenset(b), frozenset(g)) for b, g in self.pairs
        )
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class RankFunction:
    """Level assignment certifying the hierarchical structure of a PBA.

    ``levels`` maps every state to a natural number in ``{0..k}``, through
    a read-only mapping.  The function is compatible when, for every state
    q and symbol a, all positive-probability successors sit at level >=
    level(q) and at most one of them sits exactly at level(q);
    :func:`ranking_violations` checks this.
    """

    levels: Mapping[str, int]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", MappingProxyType(dict(self.levels)))

    def __reduce__(self):
        """Pickle and copy through the constructor; a mappingproxy cannot be pickled."""
        return type(self), (dict(self.levels), self.k)

    def __hash__(self) -> int:
        return hash((frozenset(self.levels.items()), self.k))


def word_separator(symbols: Iterable[str]) -> str:
    """Separator of a written word: "" if every symbol is one character, else ","."""
    return "" if all(len(s) == 1 for s in symbols) else ","


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word ``stem . cycle^omega`` with nonempty cycle."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    def __str__(self) -> str:
        sep = word_separator(self.stem + self.cycle)
        return sep.join(self.stem) + ";" + sep.join(self.cycle)

    def unrolled(self, times: int) -> "LassoWord":
        """Same word with the cycle repeated ``times`` times."""
        if times < 1:
            raise ValueError("times must be >= 1")
        return LassoWord(self.stem, self.cycle * times)

    def shifted(self) -> "LassoWord":
        """Same word with one cycle copy moved into the stem."""
        return LassoWord(self.stem + self.cycle, self.cycle)

    def normalized(self) -> "LassoWord":
        """Canonical representative: primitive cycle, shortest stem.

        Folds stem suffixes that match the cycle end back into a rotation of
        the cycle, and reduces the cycle to its primitive root, without
        changing the denoted infinite word.
        """
        cycle = list(self.cycle)
        for p in range(1, len(cycle)):
            if len(cycle) % p == 0 and cycle == cycle[:p] * (len(cycle) // p):
                cycle = cycle[:p]
                break
        stem = list(self.stem)
        while stem and stem[-1] == cycle[-1]:
            stem.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return LassoWord(tuple(stem), tuple(cycle))


def lasso(stem: Iterable[str] | str, cycle: Iterable[str] | str) -> LassoWord:
    """Build a lasso from strings (split into characters) or symbol iterables."""
    return LassoWord(tuple(stem), tuple(cycle))


ProbRow = tuple[tuple[str, Fraction], ...]
NondetRow = tuple[str, ...]


@dataclass(frozen=True)
class Automaton:
    """Finite automaton on infinite words, probabilistic or nondeterministic.

    ``transitions`` maps ``(state, symbol)`` to a tuple of
    ``(target, probability)`` pairs for probabilistic roles and to a tuple of
    target states for nondeterministic roles.  Rows are normalized at
    construction: entries sorted by target declaration order, exact zeros
    dropped, a probabilistic row's duplicate targets rejected and a
    nondeterministic row's merged.  ``transitions`` is then a read-only
    mapping; derive a variant from ``dict(aut.transitions)`` and
    :func:`dataclasses.replace`.  ``name`` is carried for display only and
    never takes part in equality.

    Semantically defective automata (bad row sums, missing reject state and
    so on) are representable; :func:`validate` reports their violations.
    """

    name: str = field(compare=False)
    role: str
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    acceptance: BuchiAcceptance | RabinAcceptance
    transitions: Mapping[tuple[str, str], ProbRow | NondetRow]
    reject: str | None = None
    ranks: RankFunction | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "states", tuple(self.states))
        order = self.index
        norm: dict[tuple[str, str], ProbRow | NondetRow] = {}
        for key, row in self.transitions.items():
            if self.is_probabilistic:
                entries = []
                seen: set[str] = set()
                for target, p in row:  # type: ignore[misc]
                    if type(p) is not Fraction:
                        p = Fraction(p)
                    if target in seen:
                        raise ValueError(
                            f"duplicate target {target!r} in row {key}"
                        )
                    seen.add(target)
                    if p != 0:
                        entries.append((target, p))
                if len(entries) > 1:
                    entries.sort(key=lambda tp: (order.get(tp[0], len(order)), tp[0]))
                if entries:
                    norm[key] = tuple(entries)
            else:
                targets = sorted(
                    set(row), key=lambda t: (order.get(t, len(order)), t)
                )
                if targets:
                    norm[key] = tuple(targets)
        object.__setattr__(self, "transitions", MappingProxyType(norm))

    @classmethod
    def _trusted(cls, name: str, role: str, alphabet: tuple[str, ...], states: tuple[str, ...],
                 initial: str, acceptance: BuchiAcceptance,
                 transitions: dict[tuple[str, str], NondetRow]) -> "Automaton":
        """The automaton the constructor builds, without its normalizing pass.

        For a nondeterministic role whose rows are already nonempty tuples
        sorted by target declaration order and free of duplicates, the pass
        would change nothing, so the result equals the constructor's.
        ``transitions`` is wrapped read-only as it is.
        """
        out = object.__new__(cls)
        out.__dict__.update(name=name, role=role, alphabet=alphabet, states=states,
                            initial=initial, acceptance=acceptance,
                            transitions=MappingProxyType(transitions), reject=None, ranks=None)
        return out

    def __reduce__(self):
        """Pickle and copy through the constructor; a mappingproxy cannot be pickled."""
        return type(self), (self.name, self.role, self.alphabet, self.states, self.initial,
                           self.acceptance, dict(self.transitions), self.reject, self.ranks)

    def __hash__(self) -> int:
        """Agrees with ``==``: every field but ``name``, the rows as a set."""
        return hash((self.role, self.alphabet, self.states, self.initial, self.acceptance,
                     frozenset(self.transitions.items()), self.reject, self.ranks))

    @property
    def is_probabilistic(self) -> bool:
        return self.role in PROBABILISTIC_ROLES

    @property
    def is_buchi(self) -> bool:
        return isinstance(self.acceptance, BuchiAcceptance)

    @cached_property
    def index(self) -> Mapping[str, int]:
        """State name to declaration position, read-only."""
        return MappingProxyType({q: i for i, q in enumerate(self.states)})

    @cached_property
    def weights(self) -> Mapping[str, tuple[int, Mapping[str, tuple[tuple[str, int], ...]]]]:
        """Per symbol, ``(den, rows)``: the row of every state a run from
        the initial state can reach, as (target, integer weight) pairs over
        ``den``, the lcm of those rows' weight denominators.  Every integer
        walk starts at the initial state, so an unreachable row never
        widens ``den``.  Read-only, each symbol's rows too.  Probabilistic
        roles only."""
        reach, todo = {self.initial}, [self.initial]
        while todo:
            q = todo.pop()
            for a in self.alphabet:
                for t, _ in self.prob_row(q, a):
                    if t not in reach:
                        reach.add(t)
                        todo.append(t)
        table = {}
        for a in self.alphabet:
            rows = {q: self.prob_row(q, a) for q in self.states if q in reach}
            den = math.lcm(*(w.denominator for row in rows.values() for _, w in row))
            table[a] = den, MappingProxyType({
                q: tuple((t, w.numerator * (den // w.denominator)) for t, w in row)
                for q, row in rows.items()})
        return MappingProxyType(table)

    @property
    def final_states(self) -> frozenset[str]:
        if not isinstance(self.acceptance, BuchiAcceptance):
            raise AutomatonError("automaton does not use Buchi acceptance")
        return self.acceptance.final

    @property
    def rabin_pairs(self) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
        if not isinstance(self.acceptance, RabinAcceptance):
            raise AutomatonError("automaton does not use Rabin acceptance")
        return self.acceptance.pairs

    def prob_row(self, q: str, a: str) -> ProbRow:
        row = self.transitions.get((q, a), ())
        return row  # type: ignore[return-value]

    def successors(self, q: str, a: str) -> tuple[str, ...]:
        """Positive-probability or nondeterministic successors of (q, a)."""
        row = self.transitions.get((q, a), ())
        if self.is_probabilistic:
            return tuple(t for t, _ in row)  # type: ignore[misc]
        return tuple(row)  # type: ignore[arg-type]

    def support_adjacency(self) -> dict[str, tuple[str, ...]]:
        """Per-state successor sets over all symbols, declaration-ordered."""
        adj: dict[str, set[str]] = {q: set() for q in self.states}
        for q in self.states:
            for a in self.alphabet:
                adj[q].update(self.successors(q, a))
        order = self.index
        return {
            q: tuple(sorted(adj[q], key=lambda t: order.get(t, len(order))))
            for q in self.states
        }

    def check_symbols(self, word: Iterable[str]) -> None:
        alpha = set(self.alphabet)
        for i, a in enumerate(word):
            if a not in alpha:
                raise UnknownSymbolError(a, i)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: empty violation list means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(aut: Automaton) -> ValidationReport:
    """Check every definitional invariant of the automaton's role.

    Returns a report listing each violated invariant with state/symbol
    coordinates.  Problems are report entries, never exceptions.
    """
    bad: list[str] = []
    states = set(aut.states)
    alphabet = set(aut.alphabet)
    if len(states) != len(aut.states):
        bad.append("duplicate state declarations")
    if len(alphabet) != len(aut.alphabet):
        bad.append("duplicate symbol declarations")
    if not aut.alphabet:
        bad.append("empty alphabet")
    if aut.initial not in states:
        bad.append(f"initial state {aut.initial} not declared")

    for (q, a), row in sorted(
        aut.transitions.items(),
        key=lambda kv: (aut.index.get(kv[0][0], 1 << 30), kv[0][1]),
    ):
        if q not in states:
            bad.append(f"transition from undeclared state {q}")
        if a not in alphabet:
            bad.append(f"transition on undeclared symbol {a} at ({q},{a})")
        targets = (
            [t for t, _ in row] if aut.is_probabilistic else list(row)
        )
        for t in targets:
            if t not in states:
                bad.append(f"undeclared target {t} at ({q},{a})")

    if aut.is_probabilistic:
        for q in aut.states:
            for a in aut.alphabet:
                row = aut.prob_row(q, a)
                if not row:
                    bad.append(f"missing distribution at ({q},{a})")
                    continue
                total = sum(p for _, p in row)
                for t, p in row:
                    if p < 0 or p > 1:
                        bad.append(
                            f"probability {p} out of range at ({q},{a})->{t}"
                        )
                if total != 1:
                    bad.append(f"row sum {total} at ({q},{a})")
    elif aut.role == "dra":
        for q in aut.states:
            for a in aut.alphabet:
                succ = aut.successors(q, a)
                if len(succ) != 1:
                    bad.append(
                        f"{len(succ)} successors at ({q},{a}); "
                        "deterministic automata need exactly one"
                    )

    if aut.role in BUCHI_ROLES:
        if not isinstance(aut.acceptance, BuchiAcceptance):
            bad.append(f"role {aut.role} requires Buchi acceptance")
        else:
            for f in sorted(aut.acceptance.final):
                if f not in states:
                    bad.append(f"undeclared final state {f}")
    else:
        if not isinstance(aut.acceptance, RabinAcceptance):
            bad.append(f"role {aut.role} requires Rabin acceptance")
        else:
            for i, (b, g) in enumerate(aut.acceptance.pairs, start=1):
                for s in sorted(b | g):
                    if s not in states:
                        bad.append(f"undeclared state {s} in pair {i}")

    if aut.role == "fpm":
        if aut.reject is None:
            bad.append("fpm requires a reject state")
        else:
            qr = aut.reject
            if qr not in states:
                bad.append(f"reject state {qr} not declared")
            if qr == aut.initial:
                bad.append("reject equals initial")
            if isinstance(aut.acceptance, BuchiAcceptance):
                if aut.acceptance.final != states - {qr}:
                    bad.append("fpm acceptance must be all states except reject")
            for a in aut.alphabet:
                row = dict(aut.prob_row(qr, a))
                if row.get(qr, Fraction(0)) != 1:
                    bad.append(f"reject not absorbing at ({qr},{a})")
    elif aut.reject is not None:
        bad.append("reject state is only meaningful for the fpm role")

    if aut.role == "hpba":
        if aut.ranks is not None:
            for q in aut.states:
                if q not in aut.ranks.levels:
                    bad.append(f"no rank for state {q}")
            for q in sorted(set(aut.ranks.levels) - states):
                bad.append(f"rank entry for undeclared state {q}")
            for q, a in ranking_violations(aut, aut.ranks):
                bad.append(f"ranking violated at ({q},{a})")
        elif not bad:
            if ranking_violations(aut, _scc_ranking(aut)):
                bad.append("no compatible ranking function exists")
    elif aut.ranks is not None:
        bad.append("ranks are only meaningful for the hpba role")

    return ValidationReport(tuple(bad))


def require_valid(aut: Automaton) -> None:
    """Raise :class:`InvalidAutomatonError` unless ``aut`` validates cleanly."""
    report = validate(aut)
    if not report.ok:
        raise InvalidAutomatonError(report)


def ranking_violations(
    aut: Automaton, ranks: RankFunction
) -> list[tuple[str, str]]:
    """All (state, symbol) pairs where ``ranks`` breaks the level rules.

    The rules: every successor's level is >= the source level, and at most
    one successor shares the source level.
    """
    bad = []
    levels = ranks.levels
    for q in aut.states:
        if q not in levels:
            continue
        lq = levels[q]
        for a in aut.alphabet:
            same = 0
            ok = True
            for t in aut.successors(q, a):
                lt = levels.get(t)
                if lt is None or lt < lq:
                    ok = False
                    break
                if lt == lq:
                    same += 1
            if not ok or same > 1:
                bad.append((q, a))
    return bad


def _scc_ranking(aut: Automaton) -> RankFunction:
    """The canonical ranking: each state's level is its SCC's position.

    The SCCs of the positive-support graph are numbered in topological
    order, ties broken by smallest member state index.  Levels never
    decrease along an edge, so the only rule this ranking can break is "at
    most one same-level successor".  Every compatible ranking is constant
    on SCCs, since every cycle returns, so one exists iff this one is.
    """
    components = sccs_topological(aut.states, aut.support_adjacency(), aut.index)
    level = {q: i for i, comp in enumerate(components) for q in comp}
    return RankFunction({q: level[q] for q in aut.states}, max(len(components) - 1, 0))


def infer_hierarchy(aut: Automaton) -> RankFunction | None:
    """Infer a compatible ranking function, or None when none exists.

    The automaton must be a valid probabilistic automaton.  The result is
    :func:`_scc_ranking`, which reproduces the canonical ranking of the
    three-state binary-value monitor (q0 -> 0, q1 -> 1, reject -> 2).
    """
    if not aut.is_probabilistic:
        raise AutomatonError("hierarchy inference needs a probabilistic automaton")
    require_valid(aut)
    ranks = _scc_ranking(aut)
    return None if ranking_violations(aut, ranks) else ranks


def post(aut: Automaton, q: str, u: Iterable[str]) -> frozenset[str]:
    """Support of the state distribution after reading ``u`` from ``q``.

    For nondeterministic roles this is the usual successor-set closure; the
    empty word yields {q} (identity step).
    """
    if q not in aut.index:
        raise AutomatonError(f"unknown state {_clip(q)}")
    u = tuple(u)
    aut.check_symbols(u)
    current = {q}
    for a in u:
        current = {t for s in current for t in aut.successors(s, a)}
    return frozenset(current)


def all_words(alphabet: tuple[str, ...], min_len: int, max_len: int) -> Iterator[tuple[str, ...]]:
    """Words over ``alphabet`` in (length, symbol-declaration-order) order."""
    for n in range(min_len, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)
