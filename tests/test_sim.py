"""Monte Carlo estimation and streaming monitor sessions."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from probuchi import (
    Automaton,
    complement_to_fpm,
    gen_m_id,
    gen_m_id_squared,
    lasso,
    lasso_acceptance,
)
from probuchi import sim
from probuchi.core import AutomatonError, ResourceLimitError, UnknownSymbolError
from probuchi.sim import (
    _REDUCE_PERIOD,
    MonitorError,
    MonitorSession,
    _coprime_fraction,
    _cumulative,
    mc_lasso_estimate,
    monitor_stream,
    monitor_text,
)

from probuchi.textio import parse

from conftest import random_fpm, random_lasso

F = Fraction


def test_mc_matches_exact_value():
    m = gen_m_id()
    est = mc_lasso_estimate(m, lasso("", "10"), 10_000, seed=7)
    assert abs(est.mean - 2 / 3) <= 3 * est.stderr
    assert est.samples == 10_000 and est.seed == 7


def test_mc_exact_zero_and_one():
    m = gen_m_id()
    assert mc_lasso_estimate(m, lasso("", "0"), 500, seed=1).mean == 0.0
    assert mc_lasso_estimate(m, lasso("", "1"), 500, seed=1).mean == 1.0


def test_mc_deterministic_chain_is_exact():
    from probuchi import Automaton, BuchiAcceptance

    det = Automaton(
        name="det",
        role="pba",
        alphabet=("a", "b"),
        states=("p", "q"),
        initial="p",
        acceptance=BuchiAcceptance(frozenset({"q"})),
        transitions={
            ("p", "a"): (("q", F(1)),),
            ("p", "b"): (("p", F(1)),),
            ("q", "a"): (("q", F(1)),),
            ("q", "b"): (("p", F(1)),),
        },
    )
    for cycle in ("a", "b", "ab"):
        w = lasso("", cycle)
        est = mc_lasso_estimate(det, w, 64, seed=3)
        assert est.mean == float(lasso_acceptance(det, w))
        assert est.stderr == 0.0


def test_mc_reproducible_and_seed_sensitive():
    m = gen_m_id_squared()
    a = mc_lasso_estimate(m, lasso("", "10"), 2_000, seed=11)
    b = mc_lasso_estimate(m, lasso("", "10"), 2_000, seed=11)
    c = mc_lasso_estimate(m, lasso("", "10"), 2_000, seed=12)
    assert a == b
    assert (a.mean, a.seed) != (c.mean, c.seed)


def test_mc_reads_the_seed_modulo_2_64():
    m, w = gen_m_id(), lasso("0", "10")
    for seed, same in ((-1, 2**64 - 1), (0, 2**64), (7, 7 - 3 * 2**64)):
        a, b = mc_lasso_estimate(m, w, 3000, seed), mc_lasso_estimate(m, w, 3000, same)
        assert (a.mean, a.stderr, a.samples) == (b.mean, b.stderr, b.samples)
        assert (a.seed, b.seed) == (seed, same)
    means = {mc_lasso_estimate(m, w, 3000, seed).mean for seed in (-1, 0, 7)}
    assert len(means) == 3


def test_mc_seeds_agree_within_six_stderr():
    m = gen_m_id()
    w = lasso("", "10")
    estimates = [mc_lasso_estimate(m, w, 10_000, seed=s) for s in (1, 2, 3)]
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            tol = 6 * max(estimates[i].stderr, estimates[j].stderr)
            assert abs(estimates[i].mean - estimates[j].mean) <= tol


@pytest.mark.parametrize("weights", [[F(1, 2)], [F(3, 4), F(1, 2)], []])
def test_cumulative_weights_must_sum_to_one(weights):
    # A draw past a total below one would refine forever; one above one
    # would leave the last segment unreachable.
    with pytest.raises(AutomatonError, match="not 1"):
        _cumulative(weights)


def test_monitor_stream_example():
    m = complement_to_fpm(gen_m_id())
    vals = list(monitor_stream(m, ["0", "0"]))
    assert vals == [F(0), F(1, 2), F(5, 8)]


def test_monitor_empty_stream():
    m = complement_to_fpm(gen_m_id())
    assert list(monitor_stream(m, [])) == [F(0)]


def test_monitor_leak_free_stays_zero():
    from probuchi import Automaton, BuchiAcceptance

    leak_free = Automaton(
        name="lf",
        role="fpm",
        alphabet=("a", "b"),
        states=("s", "t", "rej"),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s", "t"})),
        transitions={
            ("s", "a"): (("s", F(1, 2)), ("t", F(1, 2))),
            ("s", "b"): (("t", F(1)),),
            ("t", "a"): (("s", F(1)),),
            ("t", "b"): (("t", F(1, 2)), ("s", F(1, 2))),
            ("rej", "a"): (("rej", F(1)),),
            ("rej", "b"): (("rej", F(1)),),
        },
        reject="rej",
    )
    rng = random.Random(6)
    session = MonitorSession(leak_free)
    for _ in range(10):
        assert session.feed(rng.choice("ab")) == 0


def test_monitor_monotone_and_bounded():
    rng = random.Random(44)
    for _ in range(20):
        m = random_fpm(rng, rng.randint(2, 4))
        session = MonitorSession(m)
        last = F(0)
        for _ in range(12):
            cur = session.feed(rng.choice(m.alphabet))
            assert last <= cur <= 1
            last = cur


def test_mc_reports_unknown_stem_symbol_position():
    with pytest.raises(UnknownSymbolError) as err:
        mc_lasso_estimate(gen_m_id(), lasso("1x", "0"), 10, 1)
    assert err.value.position == 1


def test_monitor_unknown_symbol_keeps_state():
    m = complement_to_fpm(gen_m_id())
    session = MonitorSession(m)
    session.feed("0")
    before = session.reject_probability
    with pytest.raises(MonitorError) as err:
        session.feed("x")
    assert err.value.position == 1
    assert session.reject_probability == before
    assert session.feed("0") == F(5, 8)


def test_monitor_converges_to_rejection_probability():
    rng = random.Random(314159)
    tested = 0
    for _ in range(12):
        m = random_fpm(rng, 4)
        w = random_lasso(rng, m.alphabet, 2)
        target = 1 - lasso_acceptance(m, w)
        session = MonitorSession(m)
        for s in w.stem:
            session.feed(s)
        for _ in range(64):
            for s in w.cycle:
                session.feed(s)
        if abs(session.reject_probability - target) <= F(1, 2**20):
            tested += 1
    assert tested >= 10


@pytest.mark.parametrize("n, d", [
    (0, 1), (1, 1), (5, 8), (1023**40, 1024**40), (2**200 + 1, 3**130),
    (7, 3 * 1_000_003), (1, 2**61 - 1), (3, 2 * (2**61 - 1)),
])
def test_coprime_fraction_matches_public_constructor(n, d):
    # The reject masses skip the constructor's gcd; they must be the very
    # Fraction it would build, hash included (2**61 - 1 is the hash modulus).
    assert gcd(n, d) == 1
    r, f = _coprime_fraction(n, d), Fraction(n, d)
    assert type(r) is Fraction
    assert (r.numerator, r.denominator, hash(r)) == (f.numerator, f.denominator, hash(f))
    assert r == f


def test_coprime_fraction_matches_public_constructor_on_random_pairs():
    rng = random.Random(2718)
    for _ in range(300):
        n, d = rng.getrandbits(rng.randint(1, 300)), rng.getrandbits(rng.randint(1, 300)) + 1
        g = gcd(n, d)
        r, f = _coprime_fraction(n // g, d // g), Fraction(n, d)
        assert (r.numerator, r.denominator, hash(r)) == (f.numerator, f.denominator, hash(f))


def test_monitor_long_leak_stream():
    # 1023/1024 of the live mass survives each a: after n symbols the reject
    # mass is 1 - (1023/1024)^n, already in lowest terms over 1024^n.
    from probuchi import Automaton, BuchiAcceptance

    keep = F(1023, 1024)
    leak = Automaton(
        name="leak",
        role="fpm",
        alphabet=("a", "b"),
        states=("q0", "ok", "rej"),
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q0", "ok"})),
        transitions={
            ("q0", "a"): (("q0", keep), ("rej", 1 - keep)),
            ("q0", "b"): (("ok", F(1)),),
            ("ok", "a"): (("ok", F(1)),),
            ("ok", "b"): (("ok", F(1)),),
            ("rej", "a"): (("rej", F(1)),),
            ("rej", "b"): (("rej", F(1)),),
        },
        reject="rej",
    )
    session = MonitorSession(leak)
    sampled = {1, 2, 15, 16, 17, 500, 1024, 2047, 3000}
    for n in range(1, 3001):
        r = session.feed("a")
        if n in sampled:
            assert r == 1 - keep**n
            assert (r.numerator, r.denominator) == (1024**n - 1023**n, 1024**n)
    with pytest.raises(MonitorError) as err:
        session.feed("z")
    assert err.value.position == 3000


def slow_exit_monitor(den: int) -> str:
    """A monitor that leaves its one live state for the reject with
    probability 1/den per symbol."""
    return (
        "type: fpm\nalphabet: a\nstates: q r\ninit: q\nfinal: q\nreject: r\n"
        f"q -a-> q : {den - 1}/{den}\nq -a-> r : 1/{den}\nr -a-> r : 1\n"
    )


def test_mc_sample_past_the_step_limit_raises(monkeypatch):
    monkeypatch.setattr(sim, "MC_STEP_LIMIT", 500)
    # an exit of 1/2 per step: every sample is absorbed well within the limit
    est = mc_lasso_estimate(parse(slow_exit_monitor(2)), lasso("", "a"), 200, seed=3)
    assert est.mean == 0.0
    # an exit of 10^-30 per step: the first sample runs into the limit
    with pytest.raises(ResourceLimitError) as err:
        mc_lasso_estimate(parse(slow_exit_monitor(10**30)), lasso("", "a"), 5, seed=3)
    assert err.value.cap_name == "step_cap" and err.value.cap_value == 500
    assert "500 chain steps" in str(err.value) and "fixed" in str(err.value)


# Row weights over 3, 5 and their products, alone or next to halves, so a
# session's denominator has an odd part and often a power of two too.
ODD_PALETTE = [
    (F(1, 3), F(2, 3)),
    (F(2, 5), F(3, 5)),
    (F(1, 3), F(1, 3), F(1, 3)),
    (F(2, 5), F(2, 5), F(1, 5)),
    (F(1, 2), F(1, 3), F(1, 6)),
    (F(1, 3), F(1, 3), F(1, 6), F(1, 6)),
    (F(2, 5), F(1, 10), F(1, 4), F(1, 4)),
]


def _text_case(rng, odd: bool):
    """A ``random_fpm`` over a b, its rows reweighted from ODD_PALETTE if
    ``odd``, plus s, which keeps every state, and z, which sends every state
    to the reject; and a stream for it that crosses the session's periodic
    reduction up to six times."""
    m = random_fpm(rng, rng.randint(2, 5))
    rows = dict(m.transitions)
    if odd:
        for key, row in rows.items():
            fits = [w for w in ODD_PALETTE if len(w) == len(row)]
            if key[0] != m.reject and fits:
                rows[key] = tuple(zip((t for t, _ in row), rng.choice(fits)))
    for q in m.states:
        rows[(q, "s")] = ((q, F(1)),)
        rows[(q, "z")] = ((m.reject, F(1)),)
    m = Automaton(name="text_case", role="fpm", alphabet=("a", "b", "s", "z"),
                  states=m.states, initial=m.initial, acceptance=m.acceptance,
                  transitions=rows, reject=m.reject)
    n = rng.choice([0, 1, _REDUCE_PERIOD - 1, _REDUCE_PERIOD, _REDUCE_PERIOD + 1,
                    rng.randint(0, 6 * _REDUCE_PERIOD)])
    word = ["s"] * rng.randint(0, 3) + rng.choices("absz", [8, 8, 2, 1], k=n)
    return m, word[:n]


def _twin_divisors(m, word):
    """Per fed symbol, the two divisors the decimal twin of a session takes
    from it, and the mass: the content the state is divided by (1 when the
    session does not reduce), and the factor the mass loses to its gcd."""
    session = MonitorSession(m)
    out = []
    for a in word:
        sym_twos, sym_odd = session._split[a]
        twos, odd = session._twos + sym_twos, session._odd * sym_odd
        mass = session.feed(a)
        content = (odd // session._odd) << (twos - session._twos)
        out.append((content, (session._odd << session._twos) // mass.denominator, mass))
    return out


def test_monitor_text_is_str_of_monitor_stream():
    rng = random.Random(35)
    zeros = ones = contents = factors = odd_factors = 0
    for case in range(400):
        m, word = _text_case(rng, odd=case % 2 == 1)
        lines = list(monitor_text(m, word))
        assert lines == [str(p) for p in monitor_stream(m, word)], (m, word)
        zeros += lines[1:].count("0")
        ones += lines.count("1")
        divisors = _twin_divisors(m, word)
        contents += sum(c > 1 for c, _, _ in divisors)
        # Factors of masses other than 0 and 1, which print no division.
        fs = [f for _, f, p in divisors if p.denominator > 1 and f > 1]
        factors += len(fs)
        odd_factors += sum(f % 2 == 1 for f in fs)
    # Vacuity guard: masses of 0 and 1, reductions that divide the twin, and
    # masses whose gcd with the denominator is neither 1 nor all of it, with
    # odd gcds among them.
    assert zeros >= 100 and ones >= 100, (zeros, ones)
    assert contents >= 100 and factors >= 100 and odd_factors >= 100, (
        contents, factors, odd_factors)


def test_monitor_text_of_a_narrow_mass_over_a_wide_denominator():
    # After c the reject mass stays 1/2, while each a halves q's mass, so
    # the denominator grows a bit per symbol and the mass's gcd factor with
    # it: a line must not pay for dividing the twin by that factor.
    m = parse("type: fpm\nalphabet: a c\nstates: q s rej\ninit: q\nfinal: q s\nreject: rej\n"
              "q -a-> q : 1/2\nq -a-> s : 1/2\ns -a-> s : 1\n"
              "q -c-> q : 1/2\nq -c-> rej : 1/2\ns -c-> s : 1/2\ns -c-> rej : 1/2\n"
              "rej -a-> rej : 1\nrej -c-> rej : 1\n")
    word = ["c"] + ["a"] * 300
    lines = list(monitor_text(m, word))
    assert lines == ["0"] + ["1/2"] * 301
    assert [f.bit_length() for _, f, _ in _twin_divisors(m, word)] == list(range(1, 302))


def test_monitor_text_of_an_empty_stream_and_a_bad_symbol():
    m = complement_to_fpm(gen_m_id())
    assert list(monitor_text(m, [])) == ["0"]
    assert list(monitor_text(m, ["0", "0"])) == ["0", "1/2", "5/8"]
    lines = monitor_text(m, ["0", "x"])
    assert next(lines) == "0" and next(lines) == "1/2"
    with pytest.raises(MonitorError) as err:
        next(lines)
    assert err.value.position == 1


def test_monitor_text_of_the_long_leak_stream_at_the_default_digit_limit():
    # The reject mass after n symbols a is 1 - (1023/1024)^n, past 4,300
    # digits from symbol 1,429 on; the lines come out at the default
    # int-to-str limit, which stays set.
    keep = F(1023, 1024)
    leak = parse("type: fpm\nalphabet: a b\nstates: q r\ninit: q\nfinal: q\nreject: r\n"
                 "q -a-> q : 1023/1024\nq -a-> r : 1/1024\nq -b-> q : 1\n"
                 "r -a-> r : 1\nr -b-> r : 1\n")
    word = ["a"] * 1500
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    lines = list(monitor_text(leak, word))
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        assert lines == [str(p) for p in monitor_stream(leak, word)]
        assert lines[-1] == f"{1024**1500 - 1023**1500}/{1024**1500}"
        assert len(lines[-1].split("/")[0]) > 4300
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert 1 - F(*map(int, lines[1].split("/"))) == keep
    # Vacuity guard: here the twin never divides, so its lines are the
    # twin's own integers.
    assert {(c, f) for c, f, _ in _twin_divisors(leak, word)} == {(1, 1)}
