"""Monte Carlo estimation of lasso acceptance and streaming monitor sessions.

Sampling uses a splittable 64-bit generator: every sample derives its own
seed from the root seed and the sample index, so a fixed root seed gives the
same estimate regardless of how samples would be sharded across workers.
Random choices against exact rational distributions are made by lazy binary
interval refinement, so the estimator carries no floating-point bias.
Monitor sessions keep the exact rational state distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Iterator

from .core import Automaton, AutomatonError, LassoWord, require_valid
from .markov import _step, build_lasso_chain

__all__ = ["McEstimate", "mc_lasso_estimate", "MonitorSession", "monitor_stream", "MonitorError"]

_MASK = (1 << 64) - 1


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


def _pick(weights: list[Fraction], bits: _BitSource) -> int:
    """Index distributed exactly as the (sub)distribution ``weights``.

    Refines a uniform [0,1) draw bit by bit until it lies inside one
    cumulative segment; terminates with probability one and uses an expected
    constant number of bits per decision.
    """
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
    init_nodes = sorted(chain.initial, key=lambda nd: chain.nodes.index(nd))
    init_weights = [chain.initial[nd] for nd in init_nodes]
    hits = 0
    for i in range(n):
        bits = _BitSource(sample_seed(seed, i))
        node = init_nodes[_pick(init_weights, bits)]
        while node not in in_bscc:
            targets = chain.edges[node]
            node = targets[_pick([p for _, p in targets], bits)][0]
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
        self._state: dict[str, Fraction] = {m.initial: Fraction(1)}
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    @property
    def reject_probability(self) -> Fraction:
        assert self._m.reject is not None
        return self._state.get(self._m.reject, Fraction(0))

    def feed(self, symbol: str) -> Fraction:
        if symbol not in set(self._m.alphabet):
            raise MonitorError(symbol, self._position)
        self._state = _step(self._m, self._state, symbol)
        self._position += 1
        return self.reject_probability


def monitor_stream(m: Automaton, stream: Iterable[str]) -> Iterator[Fraction]:
    """Exact rejection probabilities along a symbol stream.

    Emits 0 before any input, then the reject mass after each symbol.
    """
    session = MonitorSession(m)
    yield Fraction(0)
    for symbol in stream:
        yield session.feed(symbol)
