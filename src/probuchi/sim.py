"""Monte Carlo estimation of lasso acceptance and streaming monitor sessions.

Sampling uses a splittable 64-bit generator: every sample derives its own
seed from the root seed and the sample index, so a fixed root seed gives the
same estimate regardless of how samples would be sharded across workers.
Random choices against exact rational distributions are made by the
Knuth-Yao walk on integers (Saad et al., "The Fast Loaded Dice Roller",
AISTATS 2020): each distribution's cumulative weights are computed once per
estimate as integer numerators over their least common denominator, and the
dyadic interval [lo/d, (lo+1)/d) of the draw is refined one bit at a time and
compared against them by cross-multiplication, so the estimator carries no
floating-point bias and needs no rational arithmetic per decision.

Monitor sessions keep the exact state distribution as integer numerators
over one running denominator.  Each symbol's rows are compiled once per
session over the lcm of that symbol's weight denominators; every
``_REDUCE_PERIOD`` symbols the common gcd is divided out, so the
denominator stays within a bounded factor of the reduced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Iterable, Iterator

from .core import Automaton, AutomatonError, LassoWord, require_valid
from .markov import build_lasso_chain

__all__ = ["McEstimate", "mc_lasso_estimate", "MonitorSession", "monitor_stream", "MonitorError"]

_MASK = (1 << 64) - 1
# Symbols a monitor session feeds between two divisions of its numerators
# and denominator by their common gcd.  Reducing on every symbol costs more
# gcds than it saves; never reducing lets the denominator grow by the
# symbol's lcm on every step even when the masses do not change.
_REDUCE_PERIOD = 16


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def sample_seed(root: int, index: int) -> int:
    """Per-sample seed derived from the root seed; order-independent."""
    return _mix64((root & _MASK) ^ _mix64(index + 1))


class _BitSource:
    """Bits of a splitmix64 stream, each 64-bit word lowest bit first."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._word = 0
        self._left = 0

    def bit(self) -> int:
        if self._left == 0:
            self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
            self._word = _mix64(self._state)
            self._left = 64
        self._left -= 1
        b = self._word & 1
        self._word >>= 1
        return b


def _cumulative(weights: Iterable[Fraction]) -> tuple[int, list[int]]:
    """``(den, cum)``: the running sums of ``weights`` as integer numerators
    over the least common denominator ``den`` of the weights.

    The weights must form a distribution: a draw past a total below one
    would refine forever, so any other total raises :class:`AutomatonError`.
    """
    weights = list(weights)
    den = lcm(*(w.denominator for w in weights))
    cum, acc = [], 0
    for w in weights:
        acc += w.numerator * (den // w.denominator)
        cum.append(acc)
    if acc != den:
        raise AutomatonError(f"weights sum to {Fraction(acc, den)}, not 1")
    return den, cum


def _pick(den: int, cum: list[int], bits: _BitSource) -> int:
    """Index drawn exactly from the distribution with cumulative weights
    ``cum[k] / den``, as built by :func:`_cumulative`.

    Refines a uniform [0,1) draw, the dyadic interval [lo/d, (lo+1)/d), one
    bit at a time until it lies inside one cumulative segment; terminates
    with probability one and uses an expected constant number of bits per
    decision.  The first segment ending above lo/d never moves left as the
    interval narrows, so the scan resumes where it stopped.
    """
    lo, d, k = 0, 1, 0
    while True:
        while lo * den >= cum[k] * d:
            k += 1
        if (lo + 1) * den <= cum[k] * d:
            return k
        lo = 2 * lo + bits.bit()
        d *= 2


@dataclass(frozen=True)
class McEstimate:
    """Empirical acceptance estimate with its standard error."""

    mean: float
    stderr: float
    samples: int
    seed: int


def mc_lasso_estimate(
    aut: Automaton, w: LassoWord, n: int, seed: int
) -> McEstimate:
    """Unbiased Monte Carlo estimate of the lasso acceptance probability.

    Each sample walks the stem, then the finite (state, cycle position)
    chain until it enters a bottom SCC, whose acceptance classification
    decides the sample.  Identical seeds give identical estimates.
    """
    if n < 1:
        raise AutomatonError("sample count must be at least 1")
    require_valid(aut)
    if not aut.is_probabilistic:
        raise AutomatonError("simulation needs a probabilistic automaton")
    chain = build_lasso_chain(aut, w)
    in_bscc = {node: chain.value_of[node] for node in chain.bscc_nodes}
    init_nodes = [nd for nd in chain.nodes if nd in chain.initial]
    init_den, init_cum = _cumulative(chain.initial[nd] for nd in init_nodes)
    moves = {
        node: (tuple(t for t, _ in row), *_cumulative(p for _, p in row))
        for node, row in chain.edges.items()
        if node not in in_bscc
    }
    hits = 0
    for i in range(n):
        bits = _BitSource(sample_seed(seed, i))
        node = init_nodes[_pick(init_den, init_cum, bits)]
        while node not in in_bscc:
            targets, den, cum = moves[node]
            node = targets[_pick(den, cum, bits)]
        if in_bscc[node] == 1:
            hits += 1
    mean = hits / n
    stderr = sqrt(mean * (1.0 - mean) / n)
    return McEstimate(mean=mean, stderr=stderr, samples=n, seed=seed)


class MonitorError(AutomatonError):
    """Unknown symbol mid-stream; carries the failing position."""

    def __init__(self, symbol: str, position: int):
        self.symbol = symbol
        self.position = position
        super().__init__(f"unknown symbol {symbol!r} at stream position {position}")


class MonitorSession:
    """Stateful streaming run of a monitor over a symbol stream.

    Keeps the exact state distribution; :meth:`feed` consumes one symbol and
    returns the current reject mass, which is monotone non-decreasing.  A
    feed that fails (unknown symbol) leaves the session state untouched.
    Sessions are single-owner: feeding one session concurrently is not
    supported, distinct sessions are independent.
    """

    def __init__(self, m: Automaton):
        if m.role != "fpm":
            raise AutomatonError("monitoring needs an fpm")
        require_valid(m)
        self._m = m
        self._alphabet = frozenset(m.alphabet)
        self._rows = {a: _integer_rows(m, a) for a in m.alphabet}
        # State masses are self._nums[q] / self._den, in the insertion order
        # of markov._step.
        self._nums: dict[str, int] = {m.initial: 1}
        self._den = 1
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    @property
    def _state(self) -> dict[str, Fraction]:
        den = self._den
        return {q: Fraction(p, den) for q, p in self._nums.items()}

    @property
    def reject_probability(self) -> Fraction:
        assert self._m.reject is not None
        return Fraction(self._nums.get(self._m.reject, 0), self._den)

    def feed(self, symbol: str) -> Fraction:
        if symbol not in self._alphabet:
            raise MonitorError(symbol, self._position)
        sym_den, rows = self._rows[symbol]
        nums: dict[str, int] = {}
        for q, p in self._nums.items():
            for t, w in rows[q]:
                nums[t] = nums.get(t, 0) + p * w
        den = self._den * sym_den
        self._position += 1
        if self._position % _REDUCE_PERIOD == 0:
            g = gcd(den, *nums.values())
            if g > 1:
                den //= g
                nums = {q: p // g for q, p in nums.items()}
        self._nums, self._den = nums, den
        return self.reject_probability


def _integer_rows(
    m: Automaton, symbol: str
) -> tuple[int, dict[str, tuple[tuple[str, int], ...]]]:
    """``(den, rows)``: every state's row under ``symbol`` as (target,
    integer weight) pairs over ``den``, the lcm of the denominators of all
    of those rows' weights."""
    den = lcm(*(w.denominator for q in m.states for _, w in m.prob_row(q, symbol)))
    rows = {
        q: tuple((t, w.numerator * (den // w.denominator)) for t, w in m.prob_row(q, symbol))
        for q in m.states
    }
    return den, rows


def monitor_stream(m: Automaton, stream: Iterable[str]) -> Iterator[Fraction]:
    """Exact rejection probabilities along a symbol stream.

    Emits 0 before any input, then the reject mass after each symbol.
    """
    session = MonitorSession(m)
    yield Fraction(0)
    for symbol in stream:
        yield session.feed(symbol)
