"""Monte Carlo estimation of lasso acceptance and streaming monitor sessions.

Sampling uses a splittable 64-bit generator: every sample derives its own
seed from the root seed, read modulo 2^64, and the sample index, so a fixed
root seed gives the same estimate regardless of how samples would be
sharded across workers.  Random choices against exact rational
distributions are made by the Knuth-Yao walk on integers (Saad et al., "The
Fast Loaded Dice Roller", AISTATS 2020): each distribution's cumulative
weights are computed once per estimate as integer numerators over their
least common denominator, and the dyadic interval [lo/d, (lo+1)/d) of the
draw is refined one bit at a time and compared against them on integers,
so the estimator carries no floating-point bias and needs no rational
arithmetic per decision.

An estimate runs as one loop over the chain compiled to integer node ids,
with the generator and the walk inlined, so a sample costs time per random
choice, not per chain step: a node with one successor draws no bit, and the
sampler jumps over each stretch of such nodes at once.  The jumped steps
still count against :data:`MC_STEP_LIMIT`.  Seeds and first words are
batched: for each block of :data:`_BLOCK` samples, the same splitmix64
arithmetic that seeds each sample and draws its first 64-bit word runs
lane-wise on one Python integer with a 128-bit lane per sample (SIMD within
a register, Fisher & Dietz, LCPC 1998), so a 64-bit product never carries
into the next lane.  The loop reads the blocks lazily and draws any later
word itself, so every bit drawn is the one the per-sample generator draws.

Monitor sessions keep the exact state distribution as integer numerators
over one running denominator, stepped by ``markov._walk`` over the rows
``Automaton.weights`` compiles once per automaton, and keep the running
denominator split into its power of two and its odd part.  A fed symbol
costs one lookup of its split, which is also the unknown-symbol check, one
``_walk`` step and the reject mass, reduced inline: the power of two it
shares with the denominator is read off its numerator's low bits, with no
mask at all when the numerator is odd, so only the odd part, 1 for a
monitor whose weights have power-of-two denominators, ever meets a gcd.
The mass is built from its coprime parts without the ``Fraction``
constructor's gcd: through ``Fraction._from_coprime_ints`` on Python 3.12
and later, by setting the two slots it sets on 3.10 and 3.11.
:attr:`MonitorSession.reject_probability` returns the mass of the last
feed, so reading it does no arithmetic.  Every ``_REDUCE_PERIOD`` symbols
the whole state is divided by its content, so the denominator stays within
a bounded factor of the reduced one.  With power-of-two denominators a
symbol costs time linear in the width of the numerators, so an N-symbol
stream costs O(N^2), not the O(N^3) of a gcd per symbol; any other monitor
pays one gcd per symbol on the odd part, as a plain ``Fraction`` would.
:func:`monitor_text` writes the same masses as decimal lines from a
``decimal.Decimal`` twin of a session's integers, so that a line whose
mass is about as wide as the session's denominator costs time linear in
its width.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact
from decimal import InvalidOperation, Overflow, Rounded, localcontext
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, lcm, sqrt
from typing import Iterable, Iterator

from .core import Automaton, AutomatonError, LassoWord, ResourceLimitError, _clip, require_valid
from .markov import _walk, build_lasso_chain

__all__ = ["McEstimate", "mc_lasso_estimate", "MonitorSession", "monitor_stream", "monitor_text",
           "MonitorError"]

_MASK = (1 << 64) - 1
_WORD_END = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
# Samples whose seeds and first words are computed together, one 128-bit
# lane each in one integer.  Memory stays O(_BLOCK) for any sample count.
_BLOCK = 1024
# int.from_bytes and int.to_bytes read and write the lanes little-endian,
# while an array's words lie in memory in the host's byte order.
_SWAP = sys.byteorder == "big"
# Chain steps one Monte Carlo sample may take before it enters a bottom SCC.
# The benchmark's longest sample takes about 2,200; a transient node whose
# exit has a tiny probability would otherwise hold the sampler for ever.
MC_STEP_LIMIT = 1_000_000
# Symbols a monitor session feeds between two divisions of its numerators
# and denominator by their content.  Reducing on every symbol measured
# slower on the benchmark's streams; never reducing lets the denominator
# grow by the symbol's lcm on every step even when the masses do not change.
_REDUCE_PERIOD = 16
# Integer arithmetic on decimals that never rounds: a result that would need
# rounding raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow])

# Builds Fraction(n, d) for coprime n and d > 0 without the constructor's
# gcd or argument checks.
if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later
    _coprime_fraction = Fraction._from_coprime_ints
else:  # 3.10 and 3.11: set the two slots, as _from_coprime_ints does
    def _coprime_fraction(n: int, d: int, _new=object.__new__) -> Fraction:
        f = _new(Fraction)
        f._numerator = n
        f._denominator = d
        return f


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

    Each sample draws its start node from the distribution the stem puts on
    the finite (state, cycle position) chain, then walks the chain until it
    enters a bottom SCC, whose acceptance classification decides the
    sample.  Identical seeds give identical estimates; ``seed`` is read
    modulo 2^64.  A sample still outside every bottom SCC after
    :data:`MC_STEP_LIMIT` steps raises :class:`ResourceLimitError`.
    """
    if n < 1:
        raise AutomatonError("sample count must be at least 1")
    if not aut.is_probabilistic:
        raise AutomatonError("simulation needs a probabilistic automaton")
    require_valid(aut)
    chain = build_lasso_chain(aut, w)
    # The chain compiled to integer ids in chain.nodes order: rows[v] is
    # None for a bottom node and (targets, den, cum) for any other.
    ids = {node: v for v, node in enumerate(chain.nodes)}
    init_nodes = [ids[nd] for nd in chain.nodes if nd in chain.initial]
    init_den, init_cum = _cumulative(chain.initial[chain.nodes[v]] for v in init_nodes)
    rows: list = [None] * len(ids)
    for node, row in chain.edges.items():
        if node not in chain.bscc_nodes:
            rows[ids[node]] = ([ids[t] for t, _ in row], *_cumulative(p for _, p in row))
    accepts = [node in chain.bscc_nodes and chain.value_of[node] == 1 for node in chain.nodes]
    # A node with one target draws no bit.  Each one jumps to the end of its
    # single-target stretch, charging the stretch's length; a single-target
    # cycle would be a bottom SCC, so every stretch ends.
    end, skip = list(range(len(ids))), [0] * len(ids)
    for first in range(len(ids)):
        path, v = [], first
        while rows[v] is not None and len(rows[v][0]) == 1 and not skip[v]:
            path.append(v)
            v = rows[v][0][0]
        e, s = end[v], skip[v]
        for u in reversed(path):
            s += 1
            end[u], skip[u] = e, s
    # A pick lands on a stretch end and costs its move plus the jump; the
    # start costs only the jump.  No walk lands on a single-target node.
    moves = [
        None if row is None or len(row[0]) == 1
        else ([end[t] for t in row[0]], [1 + skip[t] for t in row[0]], row[1], row[2])
        for row in rows
    ]
    start = ([end[v] for v in init_nodes], [skip[v] for v in init_nodes], init_den, init_cum)
    limit = MC_STEP_LIMIT
    hits = 0
    for state, word in _first_words(seed & _MASK, n):
        word |= _WORD_END
        targets, costs, den, cum = start
        steps = 0
        while True:
            # The Knuth-Yao walk on [lo/d, (lo+1)/d), kept as the gap
            # g = cum[k] * d - lo * den between the end of the first segment
            # above lo/d and the interval's start: the interval lies inside
            # segment k once g >= den.  Each bit halves the interval, so the
            # gap doubles, less den for a one bit; a gap of 0 or below moves
            # on to the next segment, never back.  Every weight is positive,
            # so the gap starts above 0.  Bits come from 64-bit words lowest
            # bit first, a set bit 64 marking the end of the word.
            k, g, d = 0, cum[0], 1
            while g < den:
                if word == 1:
                    state = (state + _GAMMA) & _MASK
                    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
                    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
                    word = z ^ (z >> 31) | _WORD_END
                g += g - (word & 1) * den
                word >>= 1
                d += d
                while g <= 0:
                    k += 1
                    g += (cum[k] - cum[k - 1]) * d
            node = targets[k]
            steps += costs[k]
            if steps > limit:
                raise ResourceLimitError(
                    f"a Monte Carlo sample exceeds {limit} chain steps "
                    f"without reaching a bottom SCC; the limit is fixed",
                    cap_name="step_cap",
                    cap_value=limit,
                )
            move = moves[node]
            if move is None:
                break
            targets, costs, den, cum = move
        if accepts[node]:
            hits += 1
    mean = hits / n
    stderr = sqrt(mean * (1.0 - mean) / n)
    return McEstimate(mean=mean, stderr=stderr, samples=n, seed=seed)


def _first_words(root: int, n: int) -> Iterator[tuple[int, int]]:
    """``(state, word)`` for samples 0 .. n-1 of root seed ``root`` < 2^64:
    sample i's splitmix64 state after its first step and the 64-bit word
    that step draws, where the sample's seed is mix64(root ^ mix64(i + 1)).

    Blocks of :data:`_BLOCK` samples are computed as they are read.
    """
    return chain.from_iterable(map(partial(_first_words_block, root, n), range(0, n, _BLOCK)))


def _first_words_block(root: int, n: int, first: int) -> Iterator[tuple[int, int]]:
    """:func:`_first_words` for samples ``first`` up to the block's end."""
    count = min(_BLOCK, n - first)
    # Lane j holds sample first + j's value in its low 64 bits.  Every lane
    # is below 2^64 before a product by a 64-bit constant, so the product
    # stays inside its 128 bits, and ``m`` restores each lane mod 2^64.
    ones = _lanes(array("Q", [1, 0]) * count)
    m = ones * _MASK
    index = array("Q", bytes(16 * count))
    index[0::2] = array("Q", range(first + 1, first + count + 1))
    z = _mix_lanes(_lanes(index), m) ^ ones * root
    state = _mix_lanes(z, m) + ones * _GAMMA & m
    # Each lane comes back as two words: the state, then its first word.
    words = iter(_words(state | _mix_lanes(state, m) << 64, 2 * count))
    return zip(words, words)


def _mix_lanes(z: int, m: int) -> int:
    """splitmix64's mix64 on every 128-bit lane of ``z``, given lanes below
    2^64 and ``m`` holding 2^64 - 1 in every lane."""
    z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
    z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
    return (z ^ (z >> 31)) & m


def _lanes(words: array, swap: bool = _SWAP) -> int:
    """The integer whose 64-bit digit j is ``words[j]``.  ``swap`` says the
    array stores its words big-endian, as on a big-endian host; they are
    then byte-swapped in place first."""
    if swap:
        words.byteswap()
    return int.from_bytes(words, "little")


def _words(x: int, count: int, swap: bool = _SWAP) -> array:
    """The ``count`` 64-bit digits of ``0 <= x < 2^(64 count)``, lowest
    first, in an array that stores its words big-endian when ``swap``."""
    words = array("Q")
    words.frombytes(x.to_bytes(8 * count, "little"))
    if swap:
        words.byteswap()
    return words


class MonitorError(AutomatonError):
    """Unknown symbol mid-stream; carries the failing position."""

    def __init__(self, symbol: str, position: int):
        self.symbol = symbol
        self.position = position
        super().__init__(f"unknown symbol {_clip(symbol)} at stream position {position}")


class MonitorSession:
    """Stateful streaming run of a monitor over a symbol stream.

    Keeps the exact state distribution; :meth:`feed` consumes one symbol and
    returns the current reject mass, which is monotone non-decreasing;
    :attr:`reject_probability` is the last one returned, 0 before any.  A
    feed that fails (unknown symbol) leaves the session state untouched.
    Sessions are single-owner: feeding one session concurrently is not
    supported, distinct sessions are independent.
    """

    def __init__(self, m: Automaton):
        if m.role != "fpm":
            raise AutomatonError("monitoring needs an fpm")
        require_valid(m)
        self._m = m
        # Each symbol's weight denominator as (power of two, odd part).
        self._split = {a: (_twos(d), d >> _twos(d)) for a, (d, _) in m.weights.items()}
        # State masses are self._nums[q] / (self._odd << self._twos), in the
        # insertion order of markov._walk, with self._odd odd.
        self._nums: dict[str, int] = {m.initial: 1}
        self._twos = 0
        self._odd = 1
        self._position = 0
        self._reject = m.reject
        self._mass = Fraction(0)

    @property
    def reject_probability(self) -> Fraction:
        """The reject mass after the last successful feed; 0 before any."""
        return self._mass

    def feed(self, symbol: str) -> Fraction:
        split = self._split.get(symbol)
        if split is None:
            raise MonitorError(symbol, self._position)
        self._nums = _walk(self._m, (self._nums, 1), symbol)[0]
        self._twos += split[0]
        self._odd *= split[1]
        self._position += 1
        if self._position % _REDUCE_PERIOD == 0:
            self._reduce()
        # gcd(den, num) is 2**k times gcd(odd part, num): an odd num shares
        # no power of two, an even one shares its low zero bits below the
        # denominator's, and math.gcd sees only the odd part, when it is
        # not 1.
        num, twos, odd = self._nums.get(self._reject, 0), self._twos, self._odd
        k = 0
        if not num & 1:
            low = num & ((1 << twos) - 1)
            k = _twos(low) if low else twos
        if odd > 1:
            g = gcd(odd, num)
            num, odd = num // g, odd // g
        self._mass = mass = _coprime_fraction(num >> k, odd << (twos - k))
        return mass

    def _reduce(self) -> None:
        """Divide the numerators and the denominator by their content,
        found as for the reject mass in :meth:`feed`."""
        nums = self._nums.values()
        k = self._twos
        for p in nums:
            low = p & ((1 << k) - 1)
            if low:
                k = _twos(low)
        g = gcd(self._odd, *nums) if self._odd > 1 else 1
        if k or g > 1:
            self._nums = {q: (p >> k) // g for q, p in self._nums.items()}
            self._twos -= k
            self._odd //= g


def _twos(n: int) -> int:
    """The exponent of 2 in ``n > 0``, read off its low bits."""
    return (n & -n).bit_length() - 1


def monitor_stream(m: Automaton, stream: Iterable[str]) -> Iterator[Fraction]:
    """Exact rejection probabilities along a symbol stream.

    Emits 0 before any input, then the reject mass after each symbol.
    """
    session = MonitorSession(m)
    yield Fraction(0)
    for symbol in stream:
        yield session.feed(symbol)


def monitor_text(m: Automaton, stream: Iterable[str]) -> Iterator[str]:
    """``str(p)`` for each ``p`` of :func:`monitor_stream`, of any length.

    A session's integers are binary, and CPython writes one in decimal in
    time quadratic in its width at the widths a stream reaches, so printing
    the masses of an N-symbol stream that way costs O(N^3).  Here a twin of
    the session's numerators and denominator is kept as exact
    ``decimal.Decimal`` integers, stepped by the same ``markov._walk``, and
    each line is written from it.  The binary session supplies the two
    divisors the twin needs: the content its numerators and denominator
    are divided by whenever the session reduces, and the factor the reject
    mass loses to its gcd.  When that factor fits in a word, as on a leak
    monitor, whose masses are in lowest terms, a line costs time linear in
    its width.  A wider factor means a mass narrower than the twin by more
    than a word; that mass is converted itself, at about the cost of
    ``str``.  The contents are wide only after the denominator has grown by
    as much, so they cost no more in all than the session's own steps.
    """
    session = MonitorSession(m)
    yield "0"
    nums: dict[str, Decimal] = {m.initial: Decimal(1)}
    den = Decimal(1)
    for symbol in stream:
        twos, odd = session._twos, session._odd
        mass = session.feed(symbol)
        sym_twos, sym_odd = session._split[symbol]
        twos, odd = twos + sym_twos, odd * sym_odd
        with localcontext(_EXACT):
            nums, den = _walk(m, (nums, den), symbol)
            if twos != session._twos or odd != session._odd:  # the session reduced
                content = Decimal((odd // session._odd) << (twos - session._twos))
                nums = {q: p // content for q, p in nums.items()}
                den //= content
            f = (session._odd << session._twos) // mass.denominator
            if mass.denominator == 1:  # 0 or 1
                line = str(mass.numerator)
            elif f == 1:
                line = f"{nums[m.reject]}/{den}"
            elif f < _WORD_END:
                line = f"{nums[m.reject] // f}/{den // f}"
            else:  # the mass is narrower than the twin by more than a word
                line = f"{Decimal(mass.numerator)}/{Decimal(mass.denominator)}"
        yield line
