"""Exact rational linear algebra and lasso-word acceptance probabilities.

Acceptance of an ultimately periodic word ``u v^omega`` is computed on the
finite chain over (state, cycle position): the chain is absorbed into its
bottom SCCs almost surely, a bottom SCC is classified accepting or rejecting
from the acceptance condition alone, and the absorption probabilities solve
an exact linear system.  That system is solved once per period of the cycle:
the unknowns at cycle positions 1 to L-1 are eliminated into affine forms in
the m0 <= |Q| unknowns at position 0, which costs O(L*E*m0 + m0^3) for a
chain with E edges instead of the O((|Q|*L)^3) of one dense system
(Baier & Katoen, Principles of Model Checking, section 10.1; Bareiss 1968).
The chain depends only on the cycle, so a scan over many lassos solves it
once per cycle and weighs the per-state values by each stem's masses.
Stems and monitor sessions walk integer numerators through the rows
``Automaton.weights`` compiles once per automaton, with no gcd per step.
Everything is a pure function over immutable inputs; floating point never
appears here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Container, Iterable, Mapping, Sequence

from .core import (
    Automaton,
    AutomatonError,
    BuchiAcceptance,
    LassoWord,
    RabinAcceptance,
    require_valid,
)
from .graphs import lasso_product, reaching

__all__ = [
    "RationalMatrix",
    "word_matrix",
    "final_passage_matrix",
    "lasso_acceptance",
    "binary_value_lasso",
    "solve_linear",
]

_ZERO, _ONE = Fraction(0), Fraction(1)
# a chain node's value by the marks of the bottom components it reaches
_VALUE_OF_MARKS = {1: _ONE, 2: _ZERO, 3: None}


@dataclass(frozen=True)
class RationalMatrix:
    """Dense square matrix of exact rationals indexed by state names.

    Rows are the current state, columns the next state.  Stochastic matrices
    have rows summing to one; sub-stochastic rows appear in final-passage
    blocks.
    """

    states: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "rows", tuple(tuple(Fraction(x) for x in row) for row in self.rows)
        )
        n = len(self.states)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix shape does not match state count")

    def _i(self, q: str) -> int:
        try:
            return self.states.index(q)
        except ValueError:
            raise AutomatonError(f"unknown state {q!r}") from None

    def row_sum(self, q: str, targets: Iterable[str]) -> Fraction:
        idx = [self._i(t) for t in targets]
        r = self.rows[self._i(q)]
        return sum((r[i] for i in idx), Fraction(0))


Walk = tuple[dict[str, int], int]


def _walk(aut: Automaton, walk: Walk, symbol: str) -> Walk:
    """``walk``, state masses as (numerators, denominator), moved by one
    ``symbol``: the denominator is multiplied by ``aut.weights[symbol][0]``
    and no gcd is taken.  The caller checks the symbol."""
    nums, den = walk
    sym_den, rows = aut.weights[symbol]
    out: dict[str, int] = {}
    for q, p in nums.items():
        for t, w in rows[q]:
            out[t] = out.get(t, 0) + p * w
    return out, den * sym_den


def word_matrix(aut: Automaton, u: Iterable[str]) -> RationalMatrix:
    """Product of the per-symbol transition matrices along ``u``.

    The empty word yields the identity matrix.
    """
    if not aut.is_probabilistic:
        raise AutomatonError("word matrices need a probabilistic automaton")
    require_valid(aut)
    u = tuple(u)
    aut.check_symbols(u)
    return _passage(aut, u, frozenset(aut.states))


def final_passage_matrix(aut: Automaton, u: Sequence[str]) -> RationalMatrix:
    """Entrywise probability of traversing ``u`` while touching a final state.

    Entry (q, q') sums the weights of the u-labelled paths from q to q' whose
    state sequence, endpoints included, meets the final set.  Büchi-specific;
    Rabin automata are rejected.
    """
    if not aut.is_probabilistic:
        raise AutomatonError("final-passage matrices need a probabilistic automaton")
    if not isinstance(aut.acceptance, BuchiAcceptance):
        raise AutomatonError("final-passage matrices need Buchi acceptance")
    if not u:
        raise AutomatonError("final-passage matrices need a nonempty word")
    require_valid(aut)
    aut.check_symbols(u)
    return _passage(aut, u, aut.acceptance.final)


def _passage(
    aut: Automaton, u: Sequence[str], marked: Container[str]
) -> RationalMatrix:
    """Weights of the ``u``-labelled paths whose states meet ``marked``.

    Entry (q, q') sums the weights of the paths from q to q', endpoints
    included, that visit a marked state; with every state marked this is
    the word matrix, and the empty word gives the identity.  One sparse
    walk per row, :func:`_passage_row`.  The automaton and the symbols must
    be checked.
    """
    return RationalMatrix(aut.states,
                          tuple(_passage_row(aut, q, u, marked) for q in aut.states))


def _passage_row(
    aut: Automaton, q: str, u: Sequence[str], marked: Container[str]
) -> tuple[Fraction, ...]:
    """Row ``q`` of :func:`_passage`, by declaration index: one sparse walk
    over (state, seen-marked flag), kept apart from :func:`_walk` so the
    certificates re-check the engines independently."""
    flagged: dict[tuple[str, bool], Fraction] = {(q, q in marked): _ONE}
    for a in u:
        nxt: dict[tuple[str, bool], Fraction] = {}
        for (s, f), p in flagged.items():
            for t, w in aut.prob_row(s, a):
                key = (t, f or t in marked)
                nxt[key] = nxt.get(key, _ZERO) + p * w
        flagged = nxt
    row = [_ZERO] * len(aut.states)
    for (s, f), p in flagged.items():
        if f:
            row[aut.index[s]] += p
    return tuple(row)


def solve_linear(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A x = b exactly by fraction-free Gaussian elimination.

    Rows are first scaled to integers, then eliminated Bareiss-style so all
    intermediate values stay integral; the result is exact rationals.
    Raises on singular systems.
    """
    n = len(rhs)
    rows: list[list[int]] = []
    for i in range(n):
        ents = [Fraction(x) for x in matrix[i]] + [Fraction(rhs[i])]
        scale = lcm(*(e.denominator for e in ents)) if ents else 1
        rows.append([int(e * scale) for e in ents])
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("singular linear system")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col]
            for c in range(col, n + 1):
                rows[r][c] = (rows[r][c] * pivot - factor * rows[col][c]) // prev
        prev = pivot
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n])
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return x


@dataclass(frozen=True)
class LassoChain:
    """Finite chain of a probabilistic automaton running u v^omega.

    Nodes are (state, cycle position) pairs restricted to what the initial
    distribution can reach; each node knows its exact successor distribution,
    and nodes inside a bottom SCC carry the acceptance classification of
    that component.
    """

    nodes: tuple[tuple[str, int], ...]
    edges: dict[tuple[str, int], tuple[tuple[tuple[str, int], Fraction], ...]]
    initial: dict[tuple[str, int], Fraction]
    value_of: dict[tuple[str, int], Fraction | None]  # None = needs solving
    bscc_nodes: frozenset[tuple[str, int]]
    accepting_bsccs: int
    rejecting_bsccs: int


def _bscc_accepting(aut: Automaton, comp: list[tuple[str, int]]) -> bool:
    """Does a run that visits exactly the states of ``comp`` infinitely often accept?"""
    comp_states = {q for q, _ in comp}
    if isinstance(aut.acceptance, BuchiAcceptance):
        return bool(comp_states & aut.acceptance.final)
    assert isinstance(aut.acceptance, RabinAcceptance)
    # Inside a bottom SCC every node recurs almost surely, so "B finitely
    # often" forces the component to avoid B entirely.
    for b, g in aut.acceptance.pairs:
        if not (comp_states & b) and (comp_states & g):
            return True
    return False


def build_lasso_chain(aut: Automaton, w: LassoWord) -> LassoChain:
    """Reachable product chain of ``aut`` on ``w`` with BSCCs classified."""
    aut.check_symbols(w.stem + w.cycle)
    nums, den = {aut.initial: 1}, 1
    for a in w.stem:
        nums, den = _walk(aut, (nums, den), a)
    return _chain(aut, {q: Fraction(p, den) for q, p in nums.items()}, w.cycle)


def _chain(
    aut: Automaton, masses: Mapping[str, Fraction], cycle: Sequence[str]
) -> LassoChain:
    """The chain of ``cycle`` started from ``masses`` at cycle position 0.

    Only the cycle shapes the chain; the masses, which a stem put on the
    states, become its initial distribution and their support its start.
    """
    nodes, edges, adjacency = lasso_product(
        sorted(masses, key=aut.index.__getitem__),
        cycle,
        aut.prob_row,
        aut.index,
    )

    # One pass marks each bottom component 1 if accepting, 2 if rejecting,
    # and gives every node the OR of the marks it reaches: a transient node
    # that reaches only accepting (or only rejecting) bottom components
    # already has value 1 (or 0); only mixed nodes, bits 3, need the linear
    # system.  Every node reaches some bottom component, so no node reads 0.
    bottoms: list[tuple[list[tuple[str, int]], bool]] = []

    def mark(comp: list[tuple[str, int]]) -> int:
        members = set(comp)
        if any(t not in members for n in comp for t in adjacency[n]):
            return 0
        accepting = _bscc_accepting(aut, comp)
        bottoms.append((comp, accepting))
        return 1 if accepting else 2

    reach = reaching(nodes, adjacency, mark)
    accepting = sum(acc for _, acc in bottoms)
    return LassoChain(
        nodes=tuple(nodes),
        edges=edges,
        initial={(q, 0): p for q, p in masses.items()},
        value_of={n: _VALUE_OF_MARKS[reach[n]] for n in nodes},
        bscc_nodes=frozenset(n for comp, _ in bottoms for n in comp),
        accepting_bsccs=accepting,
        rejecting_bsccs=len(bottoms) - accepting,
    )


def _cycle_values(
    aut: Automaton, starts: Iterable[str], cycle: Sequence[str]
) -> dict[str, Fraction]:
    """Exact acceptance of ``cycle``^omega from each state of ``starts``.

    The value of a node depends only on the chain it reaches, so one chain
    from all of ``starts`` and one absorption solve give the value of every
    lasso u ``cycle``^omega whose stem support lies in ``starts``: the sum
    over q of mass_u(q) times value(q).  The automaton and the symbols must
    be checked.
    """
    chain = _chain(aut, dict.fromkeys(starts, _ONE), cycle)
    solved = _absorption(chain, len(cycle))
    values = {}
    for node in chain.initial:
        v = chain.value_of[node]
        values[node[0]] = solved[node] if v is None else v
    return values


def lasso_acceptance(aut: Automaton, w: LassoWord) -> Fraction:
    """Exact probability that ``aut`` accepts the word ``w.stem w.cycle^omega``.

    Works for Büchi and Rabin acceptance.  The automaton must validate.
    The absorption system is solved once per period, over the m0 mixed
    nodes at cycle position 0, in O(L*E*m0 + m0^3) exact operations for a
    cycle of length L and a chain with E edges.
    """
    if not aut.is_probabilistic:
        raise AutomatonError("lasso acceptance needs a probabilistic automaton")
    require_valid(aut)
    return _lasso_value(aut, w)


def _lasso_value(aut: Automaton, w: LassoWord) -> Fraction:
    """:func:`lasso_acceptance` once the automaton is checked."""
    chain = build_lasso_chain(aut, w)
    solved = _absorption(chain, len(w.cycle))
    total = Fraction(0)
    for node, mass in chain.initial.items():
        v = chain.value_of[node]
        total += mass * (solved[node] if v is None else v)
    return total


def _absorption(chain: LassoChain, length: int) -> dict[tuple[str, int], Fraction]:
    """Acceptance probabilities of the mixed nodes at cycle position 0.

    Every edge goes from position i to (i + 1) mod ``length``, so one pass
    over the mixed nodes from position ``length`` - 1 down to 1 writes each
    as an affine form (coefficients, constant) in the mixed nodes at
    position 0, folding edges into known nodes into the constant.  The
    position-0 equations are then x = M x + c, where M is the one-period
    return matrix of transient nodes: substochastic with spectral radius
    below 1, since every node is absorbed almost surely, so I - M is
    nonsingular.  The initial mass sits at position 0, so no other value
    is needed.
    """
    value_of, edges = chain.value_of, chain.edges
    mixed = [n for n in chain.nodes if value_of[n] is None]
    heads = [n for n in mixed if not n[1]]
    if not heads:
        return {}
    col = {n: j for j, n in enumerate(heads)}
    forms = {n: ({j: _ONE}, _ZERO) for n, j in col.items()}
    m = len(heads)
    a = [[_ZERO] * m for _ in range(m)]
    b = [_ZERO] * m
    for n in reversed(mixed):  # nodes are sorted by position
        coeffs: dict[int, Fraction] = {}
        const = _ZERO
        for t, p in edges[n]:
            v = value_of[t]
            if v is None:
                t_coeffs, t_const = forms[t]
                for j, c in t_coeffs.items():
                    coeffs[j] = coeffs.get(j, _ZERO) + p * c
                if t_const:
                    const += p * t_const
            elif v:
                const += p
        if n[1]:
            forms[n] = (coeffs, const)
        else:
            i = col[n]
            row = a[i]
            for j, c in coeffs.items():
                row[j] = -c
            row[i] += 1
            b[i] = const
    return dict(zip(heads, solve_linear(a, b)))


def binary_value_lasso(w: LassoWord) -> Fraction:
    """Binary expansion value sum_i bit_i / 2^(i+1) of an ultimately periodic word.

    Closed form over the alphabet {0, 1}; serves as the independent oracle
    for the three-state value-monitor examples.
    """
    for s in w.stem + w.cycle:
        if s not in ("0", "1"):
            raise AutomatonError(f"non-binary symbol {s!r}")
    head = sum(
        (Fraction(int(b), 2 ** (i + 1)) for i, b in enumerate(w.stem)), Fraction(0)
    )
    cyc = sum(
        (Fraction(int(b), 2 ** (i + 1)) for i, b in enumerate(w.cycle)), Fraction(0)
    )
    tail = cyc / (1 - Fraction(1, 2 ** len(w.cycle)))
    return head + tail / (2 ** len(w.stem))
