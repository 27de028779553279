"""Constructions: complementation monitor, products, unions, DRA/HPBA/NBA."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from probuchi import (
    BuchiAcceptance,
    ConstructionError,
    almost_sure_intersection,
    almost_sure_union,
    complement_to_fpm,
    dra_to_hpba,
    fpm_product,
    gen_m_id,
    gen_m_id_squared,
    gen_m_id_swapped,
    gen_succinct,
    generate_example,
    hpba_to_nba,
    infer_hierarchy,
    lasso,
    lasso_acceptance,
    rabin_decomposition,
    reject_pba,
    rename_states,
    safety_closure,
    validate,
)
from probuchi import construct, core
from probuchi.core import Automaton, RankFunction, _scc_ranking, ranking_violations
from probuchi.decide import nba_lasso_member

from conftest import (
    all_lassos,
    dra_accepts,
    deadline_language_accepts,
    random_dra,
    random_fpm,
    random_hpba,
    random_lasso,
    random_pba,
    random_pra,
)

F = Fraction


def one_state_all_final(alphabet=("0", "1")) -> Automaton:
    return Automaton(
        name="allw",
        role="pba",
        alphabet=alphabet,
        states=("s",),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s"})),
        transitions={("s", a): (("s", F(1)),) for a in alphabet},
    )


def test_complement_examples():
    b = gen_m_id()
    m = complement_to_fpm(b)
    assert validate(m).ok
    assert len(m.states) == len(b.states) + 1
    row = dict(m.prob_row("q0", "1"))
    assert row == {"q0": F(1, 4), "q1": F(1, 4), "qr#rej": F(1, 2)}
    assert lasso_acceptance(b, lasso("", "1")) == 1
    assert lasso_acceptance(m, lasso("", "1")) == 0
    assert lasso_acceptance(b, lasso("", "0")) < 1
    assert lasso_acceptance(m, lasso("", "0")) == F(1, 3)


def test_complement_duality_random():
    rng = random.Random(42)
    for _ in range(60):
        b = random_pba(rng, rng.randint(1, 4))
        m = complement_to_fpm(b)
        assert validate(m).ok
        for _ in range(3):
            w = random_lasso(rng, b.alphabet, 3)
            assert (lasso_acceptance(b, w) == 1) == (lasso_acceptance(m, w) == 0)


def test_reject_pba():
    m = complement_to_fpm(gen_m_id())
    r = reject_pba(m)
    assert r.states == m.states
    assert lasso_acceptance(r, lasso("", "1")) == 1
    rng = random.Random(8)
    for _ in range(50):
        f = random_fpm(rng, rng.randint(2, 4))
        rp = reject_pba(f)
        w = random_lasso(rng, f.alphabet, 3)
        assert (lasso_acceptance(f, w) > 0) == (lasso_acceptance(rp, w) < 1)


def test_fpm_product_examples():
    m = gen_m_id()
    sq = fpm_product(m, m)
    assert validate(sq).ok
    assert lasso_acceptance(sq, lasso("", "10")) == F(4, 9)
    assert len(sq.states) == (len(m.states) - 1) * (len(m.states) - 1) + 1
    assert gen_m_id_squared() == sq


def test_fpm_product_with_leak_free_factor():
    m = gen_m_id()
    leak_free = Automaton(
        name="free",
        role="fpm",
        alphabet=("0", "1"),
        states=("s", "dead"),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s"})),
        transitions={
            ("s", "0"): (("s", F(1)),),
            ("s", "1"): (("s", F(1)),),
            ("dead", "0"): (("dead", F(1)),),
            ("dead", "1"): (("dead", F(1)),),
        },
        reject="dead",
    )
    prod = fpm_product(m, leak_free)
    for w in (lasso("", "10"), lasso("1", "01"), lasso("", "0")):
        assert lasso_acceptance(prod, w) == lasso_acceptance(m, w)


def test_fpm_product_multiplicative_random():
    rng = random.Random(99)
    for _ in range(40):
        m1 = random_fpm(rng, rng.randint(2, 4))
        m2 = random_fpm(rng, rng.randint(2, 4))
        prod = fpm_product(m1, m2)
        assert validate(prod).ok
        w = random_lasso(rng, m1.alphabet, 3)
        assert lasso_acceptance(prod, w) == lasso_acceptance(
            m1, w
        ) * lasso_acceptance(m2, w)


def test_union_examples():
    b = gen_m_id()
    u = almost_sure_union(b, rename_states(b, suffix="'"))
    assert validate(u).ok
    for w in all_lassos(("0", "1"), 2, 2):
        assert (lasso_acceptance(u, w) == 1) == (lasso_acceptance(b, w) == 1)
    top = one_state_all_final()
    u2 = almost_sure_union(b, top)
    for w in all_lassos(("0", "1"), 2, 2):
        assert lasso_acceptance(u2, w) == 1
    u3 = almost_sure_union(gen_m_id(), gen_m_id_swapped())
    assert lasso_acceptance(u3, lasso("", "1")) == 1
    assert lasso_acceptance(u3, lasso("", "0")) == 1
    assert lasso_acceptance(u3, lasso("", "10")) < 1


def test_intersection_examples():
    b = gen_m_id()
    i1 = almost_sure_intersection(b, rename_states(b, suffix="'"))
    assert validate(i1).ok
    assert len(i1.states) == 2 * len(b.states) + 1
    for w in all_lassos(("0", "1"), 2, 2):
        assert (lasso_acceptance(i1, w) == 1) == (lasso_acceptance(b, w) == 1)
    i2 = almost_sure_intersection(
        gen_m_id(), rename_states(gen_m_id_swapped(), suffix="'")
    )
    for w in all_lassos(("0", "1"), 3, 3):
        assert lasso_acceptance(i2, w) < 1
    i3 = almost_sure_intersection(b, one_state_all_final())
    for w in all_lassos(("0", "1"), 2, 2):
        assert (lasso_acceptance(i3, w) == 1) == (lasso_acceptance(b, w) == 1)


def test_intersection_name_collision_is_error():
    b = gen_m_id()
    with pytest.raises(ConstructionError):
        almost_sure_intersection(b, b)


def test_de_morgan_union_intersection_random():
    rng = random.Random(4242)
    for _ in range(15):
        b1 = random_pba(rng, rng.randint(1, 3))
        b2 = rename_states(random_pba(rng, rng.randint(1, 3)), suffix="'")
        u = almost_sure_union(b1, b2)
        i = almost_sure_intersection(b1, b2)
        for _ in range(4):
            w = random_lasso(rng, b1.alphabet, 3)
            in1 = lasso_acceptance(b1, w) == 1
            in2 = lasso_acceptance(b2, w) == 1
            assert (lasso_acceptance(u, w) == 1) == (in1 or in2)
            assert (lasso_acceptance(i, w) == 1) == (in1 and in2)


def infinitely_many_a_dra() -> Automaton:
    from probuchi import RabinAcceptance

    return Automaton(
        name="inf_a",
        role="dra",
        alphabet=("a", "b"),
        states=("qb", "qa"),
        initial="qb",
        acceptance=RabinAcceptance(((frozenset(), frozenset({"qa"})),)),
        transitions={
            ("qa", "a"): ("qa",),
            ("qa", "b"): ("qb",),
            ("qb", "a"): ("qa",),
            ("qb", "b"): ("qb",),
        },
    )


def test_dra_to_hpba_example():
    d = infinitely_many_a_dra()
    assert validate(d).ok
    h = dra_to_hpba(d)
    assert validate(h).ok
    assert lasso_acceptance(h, lasso("", "ab")) > 0
    assert lasso_acceptance(h, lasso("", "b")) == 0
    # paper ranking: fresh initial at 0, copy i at i, reject at k+1
    assert h.ranks is not None and h.ranks.k == len(d.rabin_pairs) + 1
    assert not ranking_violations(h, h.ranks)
    assert infer_hierarchy(h) is not None
    # uniform fan-out 1/k into the pair copies
    row = dict(h.prob_row(h.initial, "a"))
    assert all(p == F(1, len(d.rabin_pairs)) for p in row.values())


def test_dra_to_hpba_agrees_with_run_evaluation():
    rng = random.Random(31)
    for _ in range(12):
        d = random_dra(rng, rng.randint(1, 3), rng.randint(1, 2))
        h = dra_to_hpba(d)
        assert validate(h).ok
        for _ in range(10):
            w = random_lasso(rng, d.alphabet, 3)
            assert dra_accepts(d, w) == (lasso_acceptance(h, w) > 0)


def test_hpba_to_nba_examples():
    m = gen_m_id()
    nba = hpba_to_nba(m)
    assert validate(nba).ok
    assert len(nba.states) == 2 * len(m.states)
    assert not nba_lasso_member(nba, lasso("", "0"))
    assert nba_lasso_member(nba, lasso("0", "01"))


def test_hpba_to_nba_succinct_exhaustive():
    s1 = gen_succinct(1)
    n1 = hpba_to_nba(s1)
    for w in all_lassos(("a", "b", "c"), 4, 4):
        assert nba_lasso_member(n1, w) == (lasso_acceptance(s1, w) > 0)


def test_hpba_to_nba_rejects_non_hierarchical():
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
    with pytest.raises(ConstructionError) as err:
        hpba_to_nba(aut)
    assert "(q0,a)" in str(err.value) or "(q1,a)" in str(err.value)


def test_dra_roundtrip_through_nba():
    rng = random.Random(63)
    for _ in range(8):
        d = random_dra(rng, rng.randint(1, 3), rng.randint(1, 2))
        nba = hpba_to_nba(dra_to_hpba(d))
        for w in all_lassos(d.alphabet, 4, 4):
            assert nba_lasso_member(nba, w) == dra_accepts(d, w)


def test_safety_closure_examples():
    m = gen_m_id()
    cl = safety_closure(m)
    assert validate(cl).ok
    assert set(cl.states) == {"q0", "q1"}
    for w in all_lassos(("0", "1"), 2, 3):
        assert nba_lasso_member(cl, w)
        if lasso_acceptance(m, w) > 0:
            assert nba_lasso_member(cl, w)


def test_safety_closure_empty_when_finals_unreachable():
    trans = {
        ("q0", "a"): (("q0", F(1)),),
        ("q1", "a"): (("q1", F(1)),),
    }
    aut = Automaton(
        name="dead",
        role="pba",
        alphabet=("a",),
        states=("q0", "q1"),
        initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q1"})),
        transitions=trans,
    )
    cl = safety_closure(aut)
    assert not nba_lasso_member(cl, lasso("", "a"))


def test_safety_closure_contains_positive_language():
    from conftest import random_hpba

    rng = random.Random(90)
    for _ in range(10):
        h = random_hpba(rng, rng.randint(2, 4))
        cl = safety_closure(h)
        for w in all_lassos(h.alphabet, 2, 2):
            if lasso_acceptance(h, w) > 0:
                assert nba_lasso_member(cl, w)


def test_succinct_examples_and_oracle():
    s1 = gen_succinct(1)
    assert validate(s1).ok
    assert lasso_acceptance(s1, lasso("", "ac")) == 1
    assert lasso_acceptance(s1, lasso("", "ab")) < 1
    for n in (1, 2):
        s = gen_succinct(n)
        for w in all_lassos(("a", "b", "c"), 2, 3):
            assert (lasso_acceptance(s, w) == 1) == deadline_language_accepts(n, w)


def test_rabin_decomposition_family_shape():
    rng = random.Random(17)
    r1 = random_pra(rng, 3, 1)
    fam1 = rabin_decomposition(r1)
    assert len(fam1) == 1
    (idx, j), pos, neg = fam1[0]
    assert idx == frozenset({1}) and j == 1
    assert pos.final_states == r1.rabin_pairs[0][1]
    assert neg.final_states == r1.rabin_pairs[0][0]
    r3 = random_pra(rng, 2, 3)
    assert len(rabin_decomposition(r3)) == 3 * 2 ** (3 - 1)


def test_rabin_decomposition_identity_random():
    # A splitting member forces positive Rabin acceptance on any input.
    # The converse needs acceptance probability exactly one: with mixed
    # probabilities, mass absorbed into a dead component keeps every
    # positive member below one.  So the biconditional is asserted exactly
    # on the zero-one-valued lassos, which is where it is a theorem.
    from conftest import random_deterministic_pra

    rng = random.Random(23)
    for k in range(10):
        r = (random_deterministic_pra if k % 2 else random_pra)(rng, rng.randint(2, 4), 2)
        fam = rabin_decomposition(r)
        for w in all_lassos(r.alphabet, 2, 2):
            mu = lasso_acceptance(r, w)
            rhs = any(
                lasso_acceptance(pos, w) == 1 and lasso_acceptance(neg, w) < 1
                for _, pos, neg in fam
            )
            if rhs:
                assert mu > 0
            if mu in (0, 1):
                assert (mu > 0) == rhs


def test_rabin_decomposition_cap():
    from probuchi import ResourceLimitError

    rng = random.Random(3)
    r = random_pra(rng, 2, 7)
    with pytest.raises(ResourceLimitError):
        rabin_decomposition(r)


def test_generate_example_dispatch():
    assert generate_example("m_id") == gen_m_id()
    assert generate_example("succinct", "2") == gen_succinct(2)
    with pytest.raises(Exception):
        generate_example("succinct", "0")
    with pytest.raises(Exception):
        generate_example("nope")


def test_every_construction_output_validates():
    rng = random.Random(55)
    b = random_pba(rng, 3)
    outputs = [
        complement_to_fpm(b),
        reject_pba(complement_to_fpm(b)),
        fpm_product(random_fpm(rng, 3), random_fpm(rng, 3)),
        almost_sure_union(b, rename_states(b, suffix="'")),
        almost_sure_intersection(b, rename_states(b, suffix="'")),
        dra_to_hpba(random_dra(rng, 3, 2)),
        hpba_to_nba(gen_succinct(2)),
        safety_closure(gen_m_id()),
    ]
    for out in outputs:
        assert validate(out).ok, (out.name, validate(out).violations)


def test_hpba_to_nba_names_the_first_same_component_pair():
    mix = Automaton(
        name="mix", role="pba", alphabet=("a",), states=("q0", "q1"), initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q0"})),
        transitions={("q0", "a"): (("q0", F(1, 2)), ("q1", F(1, 2))),
                     ("q1", "a"): (("q0", F(1, 2)), ("q1", F(1, 2)))},
    )
    with pytest.raises(ConstructionError) as err:
        hpba_to_nba(mix)
    assert str(err.value) == "input is not hierarchical: two same-component successors at (q0,a)"


def test_fpm_product_refuses_pairs_that_render_to_one_name():
    def monitor(states, rows):
        return Automaton(
            name="m", role="fpm", alphabet=("x",), states=states, initial=states[0],
            acceptance=BuchiAcceptance(frozenset(states[:2])), reject="r",
            transitions={(q, "x"): row for q, row in rows.items()},
        )
    one = F(1)
    m1 = monitor(("a,b", "a", "r"), {"a,b": (("a,b", F(1, 2)), ("r", F(1, 2))),
                                     "a": (("a", one),), "r": (("r", one),)})
    m2 = monitor(("c", "b,c", "r"), {"c": (("b,c", F(1, 2)), ("r", F(1, 2))),
                                     "b,c": (("b,c", one),), "r": (("r", one),)})
    assert validate(m1).ok and validate(m2).ok
    with pytest.raises(ConstructionError, match=r"same name '\(a,b,c\)'"):
        fpm_product(m1, m2)


def test_hpba_to_nba_ranks_an_hpba_once(monkeypatch):
    """Validation ranks an hpba, by its attached ranking or the SCC one, so
    hpba_to_nba does not rank it again; a pba or fpm is ranked only there."""
    calls = []

    def spy(aut, ranks):
        calls.append(aut.name)
        return ranking_violations(aut, ranks)

    monkeypatch.setattr(core, "ranking_violations", spy)
    monkeypatch.setattr(construct, "ranking_violations", spy)
    ranked = dra_to_hpba(infinitely_many_a_dra())
    for h in (gen_succinct(2), ranked, gen_m_id(), complement_to_fpm(gen_m_id())):
        calls.clear()
        hpba_to_nba(h)
        assert len(calls) == 1, (h.name, h.role)
    assert ranked.ranks is not None and gen_succinct(2).ranks is None


def test_hpba_to_nba_still_ranks_a_non_hierarchical_fpm():
    mix = Automaton(
        name="mix", role="fpm", alphabet=("a",), states=("q0", "q1", "r"), initial="q0",
        acceptance=BuchiAcceptance(frozenset({"q0", "q1"})), reject="r",
        transitions={("q0", "a"): (("q0", F(1, 4)), ("q1", F(1, 4)), ("r", F(1, 2))),
                     ("q1", "a"): (("q0", F(1, 2)), ("q1", F(1, 2))),
                     ("r", "a"): (("r", F(1)),)},
    )
    assert validate(mix).ok
    with pytest.raises(ConstructionError) as err:
        hpba_to_nba(mix)
    assert str(err.value) == "input is not hierarchical: two same-component successors at (q0,a)"


def test_a_valid_hpba_passes_the_scc_ranking():
    """The property hpba_to_nba relies on: whichever ranking validation
    checked, attached or canonical, the SCC ranking has no violations."""
    rng = random.Random(23)
    attached = 0
    for _ in range(300):
        h = random_hpba(rng, rng.randint(1, 5), rng.choice([("a",), ("a", "b")]))
        levels = {q: rng.randint(0, 2) for q in h.states}
        scc = _scc_ranking(h).levels
        merged = {q: scc[q] // 2 for q in h.states}  # a coarser ranking
        candidates = [h] + [
            replace(h, ranks=RankFunction(lv, max(lv.values()))) for lv in (levels, merged)
        ]
        for c in candidates:
            if validate(c).ok:
                attached += c.ranks is not None
                assert not ranking_violations(c, _scc_ranking(c))
    assert attached >= 100
