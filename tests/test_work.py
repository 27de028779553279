"""Work pins: the size of each search, read through its ``progress``
messages or by counting kernel calls, at several input sizes.

The counts are exact.  A search that falls back to enumerating every
element of a monoid (n! of them on the permutation inputs below) or that
reads past what its answer needs changes them, and fails here long before
it shows up as time.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from probuchi import Automaton, BuchiAcceptance, core, decide, fpm_product, gen_m_id, gen_p3, markov, sim
from probuchi.cli import run
from probuchi.decide import (
    fpm_positive_empty,
    fpm_positive_universal,
    nba_complement,
    nba_emptiness,
    nba_universality,
)
from probuchi.textio import serialize

from test_monitor_emptiness import perm_monitor


def perm_nba(n: int) -> Automaton:
    """a rotates p0 .. p{n-1} and b swaps p0 and p1, final at p0; p0 may
    also jump to the accepting sink u on either letter, so every word is
    accepted."""
    st = [f"p{i}" for i in range(n)]
    rows = {}
    for i, q in enumerate(st):
        rows[(q, "a")] = (st[(i + 1) % n],)
        rows[(q, "b")] = (st[1 - i] if i < 2 else q,)
    for a in ("a", "b"):
        rows[("u", a)] = ("u",)
        rows[("p0", a)] += ("u",)
    return Automaton(
        name="perm_nba", role="nba", alphabet=("a", "b"), states=(*st, "u"), initial="p0",
        acceptance=BuchiAcceptance(frozenset({"p0", "u"})), transitions=rows,
    )


def prefix_nba(k: int) -> Automaton:
    """Accepts every word but a^k b^omega: leaving that word leads to the
    accepting sink u.  For k > 3 no lasso of the universality probe's
    bound is rejected, so the answer comes from the profile monoid."""
    st = [f"s{i}" for i in range(k + 1)]
    rows = {("u", "a"): ("u",), ("u", "b"): ("u",), (st[k], "a"): ("u",), (st[k], "b"): ("t",),
            ("t", "a"): ("u",), ("t", "b"): ("t",)}
    for i in range(k):
        rows[(st[i], "a")] = (st[i + 1],)
        rows[(st[i], "b")] = ("u",)
    return Automaton(
        name="prefix_nba", role="nba", alphabet=("a", "b"), states=(*st, "t", "u"),
        initial="s0", acceptance=BuchiAcceptance(frozenset({"u"})), transitions=rows,
    )


def tail_nba(k: int) -> Automaton:
    """f is initial and final, with f -a-> f and f -b-> t1 -a-> ... -a-> tk."""
    st = [f"t{i}" for i in range(1, k + 1)]
    rows = {("f", "a"): ("f",), ("f", "b"): (st[0],)}
    rows.update(((q, "a"), (t,)) for q, t in zip(st, st[1:]))
    return Automaton(
        name="tail_nba", role="nba", alphabet=("a", "b"), states=("f", *st), initial="f",
        acceptance=BuchiAcceptance(frozenset({"f"})), transitions=rows,
    )


def messages(query, aut) -> tuple[object, list[str]]:
    said: list[str] = []
    return query(aut, progress=said.append), said


@pytest.mark.parametrize("n, elements", [(3, 16), (4, 50), (5, 178), (6, 842), (7, 5290)])
def test_profile_monoid_of_the_universal_permutation_nba(n, elements):
    answer, said = messages(nba_universality, perm_nba(n))
    assert answer is None
    assert said == [f"profile monoid has {elements} elements"]


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("leak", [False, True])
def test_safe_step_graph_of_the_permutation_monitor(n, leak):
    answer, said = messages(fpm_positive_empty, perm_monitor(n, leak))
    assert (answer is None) == leak
    assert said == [f"safe-step subset graph has {n} nodes"]


@pytest.mark.parametrize("n", range(3, 9))
def test_belief_supports_of_the_permutation_monitor(n):
    answer, said = messages(fpm_positive_universal, perm_monitor(n, False))
    assert answer is None
    assert said == [f"belief support fixpoint keeps 0 of {n} supports"]
    answer, said = messages(fpm_positive_universal, perm_monitor(n, True))
    assert answer is not None
    assert said == [f"belief support fixpoint keeps {n + 1} of {n + 1} supports",
                    "witness read 1 transition monoid elements"]


@pytest.mark.parametrize("aut, universal", [
    (perm_nba(3), True), (perm_nba(5), True), (prefix_nba(4), False), (prefix_nba(6), False),
])
def test_universality_builds_the_symbol_masks_once(monkeypatch, aut, universal):
    calls = []

    def spy(a, _fn=decide._symbol_masks):
        calls.append(a)
        return _fn(a)

    monkeypatch.setattr(decide, "_symbol_masks", spy)
    answer, said = messages(nba_universality, aut)
    assert (answer is None) == universal
    assert said[0].startswith("profile monoid has")  # past the probe
    assert calls == [aut]


@pytest.mark.parametrize("k", [5, 20, 50])
def test_emptiness_stops_each_cycle_search_at_its_final(monkeypatch, k):
    # k + 1 stems from the initial state, then f itself, the first of its
    # first steps: the tail behind f -b-> is not searched again.
    reads = []

    def spy(*args, _fn=decide._discover):
        for item in _fn(*args):
            reads.append(item[0])
            yield item

    monkeypatch.setattr(decide, "_discover", spy)
    w = nba_emptiness(tail_nba(k))
    assert (w.stem, w.cycle) == ((), ("a",))
    assert len(reads) == k + 2


@pytest.mark.parametrize("aut, macro_states, blocks, expansions, choices", [
    (prefix_nba(2), 33, 17, 28, 124), (prefix_nba(4), 73, 49, 66, 426),
    (prefix_nba(6), 129, 97, 120, 1016), (perm_nba(3), 56, 1, 36, 184),
    (perm_nba(4), 146, 1, 94, 830), (perm_nba(5), 302, 1, 195, 2645),
])
def test_complement_explores_and_quotients(monkeypatch, aut, macro_states, blocks,
                                           expansions, choices):
    # The rank-based exploration's macro-states, the blocks its quotient
    # keeps, and the bound sets expanded with the choices they give; perm_nba
    # is universal, so its complement is the one-block empty NBA.
    tables, sizes = [], []

    def quotient(name, alphabet, table, finals, initial, _fn=decide._quotient):
        tables.append(len(table))
        return _fn(name, alphabet, table, finals, initial)

    def rank_choices(*args, _fn=decide._rank_choices):
        out = _fn(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(decide, "_quotient", quotient)
    monkeypatch.setattr(decide, "_rank_choices", rank_choices)
    out = nba_complement(aut)
    assert tables == [macro_states] and len(out.states) == blocks
    assert (len(sizes), sum(sizes)) == (expansions, choices)


@pytest.mark.parametrize("aut, max_len, answer, search_rows, check_rows, validations", [
    (gen_m_id(), 1, 0, 6, 8, 5), (gen_m_id(), 2, 0, 18, 8, 5), (gen_m_id(), 3, 0, 42, 8, 5),
    (gen_p3(Fraction(1, 3)), 1, 2, 12, 0, 1), (gen_p3(Fraction(1, 3)), 2, 2, 48, 0, 1),
    (gen_p3(Fraction(1, 3)), 3, 0, 156, 8, 5),
])
def test_witness_walks_rows_and_validates(tmp_path, capsys, monkeypatch, aut, max_len, answer,
                                          search_rows, check_rows, validations):
    # The search builds one final-passage matrix per reach word, a row per
    # state each; its closing re-check and the lower bound walk 1 + |C| rows
    # each through decide's own binding; the search, its re-check, the bound
    # and its check, and the certificate validate once each.
    counts = {"search": 0, "check": 0, "validate": 0}

    def counting(key, fn):
        def spy(*args):
            counts[key] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(markov, "_passage_row", counting("search", markov._passage_row))
    monkeypatch.setattr(decide, "_passage_row", counting("check", decide._passage_row))
    monkeypatch.setattr(core, "validate", counting("validate", core.validate))
    path = tmp_path / "aut.pba"
    path.write_text(serialize(aut))
    assert run(["witness", str(path), "--max-len", str(max_len), "--max-j", "3"]) == answer
    capsys.readouterr()
    assert counts == {"search": search_rows, "check": check_rows, "validate": validations}


def leak_monitor(keep: Fraction) -> Automaton:
    """q keeps ``keep`` of its mass on a and leaks the rest to the reject r:
    over 2/3 the masses are 2^n and 3^n - 2^n over 3^n, which no reduction
    shortens."""
    return Automaton(
        name="leak", role="fpm", alphabet=("a",), states=("q", "r"), initial="q",
        acceptance=BuchiAcceptance(frozenset({"q"})),
        transitions={("q", "a"): (("q", keep), ("r", 1 - keep)), ("r", "a"): (("r", Fraction(1)),)},
        reject="r",
    )


@pytest.mark.parametrize("aut, symbols, n, gcds", [
    (gen_m_id(), "01", 3000, 0),
    (fpm_product(gen_m_id(), gen_m_id()), "01", 3000, 0),
    (leak_monitor(Fraction(1023, 1024)), "a", 3000, 0),
    (leak_monitor(Fraction(2, 3)), "a", 320, 320 + 320 // 16),
])
def test_monitor_streams_take_gcds_only_on_odd_denominators(monkeypatch, aut, symbols, n, gcds):
    # A monitor whose weights have power-of-two denominators never meets a
    # gcd; one over 3 takes one per symbol for its reject mass and one per
    # periodic reduction.  Reading the last mass back takes none.
    calls = []

    def spy(*args, _fn=sim.gcd):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(sim, "gcd", spy)
    session = sim.MonitorSession(aut)
    rng = random.Random(5)
    for a in [rng.choice(symbols) for _ in range(n)]:
        assert session.feed(a) is session.reject_probability
    assert len(calls) == gcds
