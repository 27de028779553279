"""Data model, validation, hierarchy inference, and post supports."""

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest

from probuchi import (
    Automaton,
    BuchiAcceptance,
    LassoWord,
    RabinAcceptance,
    RankFunction,
    UnknownSymbolError,
    dra_to_hpba,
    gen_m_id,
    gen_succinct,
    infer_hierarchy,
    lasso,
    lasso_acceptance,
    post,
    validate,
)
from probuchi.core import ranking_violations

from conftest import brute_force_ranking_exists, random_fpm, random_pba

F = Fraction


def test_generator_is_valid():
    assert validate(gen_m_id()).ok


def test_bad_row_sum_reported_with_coordinates():
    m = gen_m_id()
    trans = dict(m.transitions)
    trans[("q0", "1")] = (("q0", F(3, 4)), ("q1", F(1, 2)))
    broken = replace(m, transitions=trans)
    report = validate(broken)
    assert any("row sum 5/4 at (q0,1)" in v for v in report.violations)


def test_reject_equals_initial_reported():
    m = gen_m_id()
    broken = replace(m, initial="qr")
    assert any("reject equals initial" in v for v in validate(broken).violations)


def test_missing_distribution_reported():
    m = gen_m_id()
    trans = dict(m.transitions)
    del trans[("q1", "0")]
    report = validate(replace(m, transitions=trans))
    assert any("missing distribution at (q1,0)" in v for v in report.violations)


def test_undeclared_target_reported():
    m = gen_m_id()
    trans = dict(m.transitions)
    trans[("q1", "0")] = (("ghost", F(1)),)
    report = validate(replace(m, transitions=trans))
    assert any("undeclared target ghost at (q1,0)" in v for v in report.violations)


def test_infer_hierarchy_m_id():
    rk = infer_hierarchy(gen_m_id())
    assert rk is not None
    assert rk.levels == {"q0": 0, "q1": 1, "qr": 2}
    assert rk.k == 2


def test_infer_hierarchy_refuses_mixing_automaton():
    # both states in one SCC with two same-SCC successors
    trans = {
        ("q0", "a"): (("q0", F(1, 2)), ("q1", F(1, 2))),
        ("q1", "a"): (("q0", F(1, 2)), ("q1", F(1, 2))),
    }
    aut = Automaton(
        name="mix",
        role="pba",
        alphabet=("a",),
        states=("q0", "q1"),
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q0"})),
        transitions=trans,
    )
    assert infer_hierarchy(aut) is None
    assert not brute_force_ranking_exists(aut)


def test_deterministic_automaton_admits_flat_ranking():
    trans = {
        ("q0", "a"): (("q1", F(1)),),
        ("q1", "a"): (("q0", F(1)),),
    }
    aut = Automaton(
        name="det",
        role="pba",
        alphabet=("a",),
        states=("q0", "q1"),
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q0"})),
        transitions=trans,
    )
    rk = infer_hierarchy(aut)
    assert rk is not None
    assert not ranking_violations(aut, rk)
    from probuchi import RankFunction

    assert not ranking_violations(aut, RankFunction({"q0": 0, "q1": 0}, 0))


def test_inferred_ranking_always_compatible_and_matches_brute_force():
    rng = random.Random(20240)
    for _ in range(120):
        aut = random_pba(rng, rng.randint(1, 5))
        rk = infer_hierarchy(aut)
        assert (rk is not None) == brute_force_ranking_exists(aut)
        if rk is not None:
            assert not ranking_violations(aut, rk)


def test_post_examples():
    m = gen_m_id()
    assert post(m, "q0", "1") == {"q0", "q1"}
    assert post(m, "qr", "101") == {"qr"}
    assert post(m, "q0", "11") == {"q0", "q1"}


def test_post_concatenation_property():
    rng = random.Random(7)
    for _ in range(40):
        aut = random_fpm(rng, rng.randint(2, 4))
        u = tuple(rng.choice(aut.alphabet) for _ in range(rng.randint(1, 3)))
        w = tuple(rng.choice(aut.alphabet) for _ in range(rng.randint(1, 3)))
        lhs = post(aut, "q0", u + w)
        rhs = frozenset().union(*(post(aut, q, w) for q in post(aut, "q0", u)))
        assert lhs == rhs


def test_post_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        post(gen_m_id(), "q0", "2")


def test_lasso_helpers():
    w = lasso("1", "0")
    assert w.stem == ("1",) and w.cycle == ("0",)
    with pytest.raises(ValueError):
        LassoWord((), ())
    assert lasso("10", "10").normalized() == lasso("", "10")
    assert lasso("1", "1").normalized() == lasso("", "1")
    assert lasso("", "0101").normalized() == lasso("", "01")
    assert str(lasso("", "10")) == ";10"


def test_transitions_and_levels_are_read_only():
    m = gen_m_id()
    assert lasso_acceptance(m, lasso("11", "0")) == F(3, 4)
    with pytest.raises(TypeError):
        m.transitions[("q0", "1")] = (("q0", F(1, 4)), ("q1", F(3, 4)))
    rk = infer_hierarchy(m)
    with pytest.raises(TypeError):
        rk.levels["q0"] = 5
    assert lasso_acceptance(m, lasso("11", "0")) == F(3, 4)
    # a variant is derived from a copy of the rows, never by mutation
    trans = dict(m.transitions)
    trans[("q0", "1")] = (("q0", F(1, 4)), ("q1", F(3, 4)))
    assert lasso_acceptance(replace(m, transitions=trans), lasso("11", "0")) == F(15, 16)


def test_equal_automata_and_rankings_hash_equally():
    # Both classes are frozen and compare by value, the automaton's name
    # aside, so they hash by value: the rows and levels as sets.
    nba = Automaton(
        name="x", role="nba", alphabet=("a", "b"), states=("p", "q"), initial="p",
        acceptance=BuchiAcceptance(frozenset({"q"})),
        transitions={("q", "a"): ("q", "p"), ("p", "b"): ("q",), ("p", "a"): ("p",)},
    )
    trusted = Automaton._trusted(
        "y", "nba", ("a", "b"), ("p", "q"), "p", BuchiAcceptance(frozenset({"q"})),
        {("p", "a"): ("p",), ("p", "b"): ("q",), ("q", "a"): ("p", "q")},
    )
    assert trusted == nba and hash(trusted) == hash(nba)
    h = gen_succinct(2)
    rk = infer_hierarchy(h)
    twin_rk = RankFunction(dict(reversed(rk.levels.items())), rk.k)
    assert twin_rk == rk and hash(twin_rk) == hash(rk)
    ranked = replace(h, ranks=rk)
    twin = replace(ranked, name="twin", transitions=dict(reversed(ranked.transitions.items())),
                   ranks=twin_rk)
    assert twin == ranked != h and hash(twin) == hash(ranked)
    assert hash(gen_m_id()) == hash(gen_m_id())
    table = {nba: "nba", h: "plain", ranked: "ranked"}
    assert [table[a] for a in (trusted, replace(h), twin)] == ["nba", "plain", "ranked"]


@pytest.mark.parametrize("copy_of", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy])
def test_cached_index_and_weights_are_read_only(copy_of):
    m = gen_m_id()
    assert lasso_acceptance(m, lasso("11", "0")) == F(3, 4)
    den, rows = m.weights["1"]
    with pytest.raises(TypeError):
        rows["q0"] = (("q1", den),)
    with pytest.raises(TypeError):
        m.weights["1"] = (den, {"q0": (("q1", den),)})
    with pytest.raises(TypeError):
        m.index["q1"] = 0
    assert lasso_acceptance(m, lasso("11", "0")) == F(3, 4)
    # both caches filled, the automaton still copies through its constructor
    assert "index" in vars(m) and "weights" in vars(m)
    twin = copy_of(m)
    assert twin == m and lasso_acceptance(twin, lasso("11", "0")) == F(3, 4)
    assert isinstance(twin.index, MappingProxyType) and twin.index == m.index
    assert isinstance(twin.weights, MappingProxyType)
    assert all(isinstance(r, MappingProxyType) for _, r in twin.weights.values())


@pytest.mark.parametrize("copy_of", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy])
def test_pickle_and_deepcopy_round_trip(copy_of):
    m = gen_m_id()
    assert lasso_acceptance(m, lasso("11", "0")) == F(3, 4)
    assert "weights" in vars(m)
    h = dra_to_hpba(Automaton(
        name="inf_a", role="dra", alphabet=("a", "b"), states=("p", "q"), initial="p",
        acceptance=RabinAcceptance(((frozenset(), frozenset({"q"})),)),
        transitions={("p", "a"): ("q",), ("p", "b"): ("p",),
                     ("q", "a"): ("q",), ("q", "b"): ("p",)},
    ))
    assert h.ranks is not None
    for aut, w in ((m, lasso("11", "0")), (h, lasso("b", "ab"))):
        twin = copy_of(aut)
        assert twin == aut and twin.ranks == aut.ranks
        assert isinstance(twin.transitions, MappingProxyType)
        assert lasso_acceptance(twin, w) == lasso_acceptance(aut, w)
