"""Decision procedures and their certificates."""

import json
import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probuchi import (
    Automaton,
    AutomatonError,
    BuchiAcceptance,
    InvalidAutomatonError,
    ResourceLimitError,
    complement_to_fpm,
    final_passage_matrix,
    gen_m_id,
    gen_succinct,
    hpba_to_nba,
    lasso,
    lasso_acceptance,
    word_matrix,
)
from probuchi.decide import (
    AsymptoticWitness,
    CertificationError,
    SearchCancelled,
    SubsetWitness,
    acceptance_lower_bound,
    almost_sure_empty,
    almost_sure_universal,
    containment_refute,
    fpm_positive_empty,
    fpm_positive_universal,
    hpba_probable_empty,
    hpba_probable_universal,
    nba_complement,
    nba_emptiness,
    nba_lasso_member,
    nba_universality,
    pba_positive_nonempty_bounded,
    transition_monoid,
    verify_asymptotic_witness,
    verify_subset_witness,
)

from conftest import (
    all_lassos,
    dra_accepts,
    random_dra,
    random_fpm,
    random_lasso,
    random_nba,
    random_pba,
)

F = Fraction


def nba(name, alphabet, states, initial, finals, edges) -> Automaton:
    trans: dict = {}
    for q, a, t in edges:
        trans.setdefault((q, a), []).append(t)
    return Automaton(
        name=name,
        role="nba",
        alphabet=alphabet,
        states=states,
        initial=initial,
        acceptance=BuchiAcceptance(frozenset(finals)),
        transitions={k: tuple(v) for k, v in trans.items()},
    )


def all_final_complete(alphabet=("a",)) -> Automaton:
    return nba(
        "af", alphabet, ("s",), "s", ("s",), [("s", a, "s") for a in alphabet]
    )


def contains_a_one() -> Automaton:
    return nba(
        "has1",
        ("0", "1"),
        ("p", "q"),
        "p",
        ("q",),
        [("p", "0", "p"), ("p", "1", "p"), ("p", "1", "q"),
         ("q", "0", "q"), ("q", "1", "q")],
    )


def inf_many_a() -> Automaton:
    return nba(
        "infa",
        ("a", "b"),
        ("p", "q"),
        "p",
        ("q",),
        [("p", "a", "q"), ("p", "b", "p"), ("q", "a", "q"), ("q", "b", "p")],
    )


def test_nba_lasso_member_examples():
    n = hpba_to_nba(gen_m_id())
    assert nba_lasso_member(n, lasso("", "1"))
    assert not nba_lasso_member(n, lasso("", "0"))
    af = all_final_complete(("a", "b"))
    for w in all_lassos(("a", "b"), 2, 2):
        assert nba_lasso_member(af, w)


def test_nba_emptiness_examples():
    unreachable = nba(
        "dead", ("a",), ("p", "q"), "p", ("q",), [("p", "a", "p"), ("q", "a", "q")]
    )
    assert nba_emptiness(unreachable) is None
    w = nba_emptiness(hpba_to_nba(gen_m_id()))
    # smallest (total length, stem, cycle) witness under declaration order
    assert w == lasso("1", "0")
    assert nba_emptiness(all_final_complete()) == lasso("", "a")


def test_nba_complement_examples():
    comp = nba_complement(all_final_complete())
    assert nba_emptiness(comp) is None
    c = nba_complement(contains_a_one())
    assert nba_lasso_member(c, lasso("", "0"))
    assert not nba_lasso_member(c, lasso("", "1"))
    for w in all_lassos(("0", "1"), 2, 2):
        assert nba_lasso_member(c, w) != nba_lasso_member(contains_a_one(), w)


def test_nba_complement_cap():
    rng = random.Random(0)
    big = random_nba(rng, 12)
    with pytest.raises(ResourceLimitError) as err:
        nba_complement(big)
    assert "PROBUCHI_COMPLEMENT_CAP" in str(err.value)


def test_nba_complement_exclusive_on_random_instances():
    rng = random.Random(314)
    lassos = list(all_lassos(("a", "b"), 3, 3))
    for _ in range(25):
        a = random_nba(rng, 3)
        c = nba_complement(a)
        for w in lassos[:80]:
            assert nba_lasso_member(a, w) != nba_lasso_member(c, w)


def test_nba_double_complement_where_feasible():
    # A second rank-based pass is only tractable when the reduced first
    # complement is small; the identity is checked on every instance that
    # qualifies and enough instances must qualify for the test to count.
    rng = random.Random(2718)
    lassos = list(all_lassos(("a", "b"), 3, 3))
    tested = 0
    for _ in range(30):
        a = random_nba(rng, 3)
        c = nba_complement(a)
        if len(c.states) > 5:
            continue
        cc = nba_complement(c, cap=12)
        for w in lassos[:70]:
            assert nba_lasso_member(a, w) == nba_lasso_member(cc, w)
        tested += 1
    assert tested >= 8


def test_nba_universality_examples():
    assert nba_universality(all_final_complete(("a", "b"))) is None
    ce = nba_universality(inf_many_a())
    assert ce == lasso("", "b")
    ce2 = nba_universality(hpba_to_nba(gen_m_id()))
    assert ce2 == lasso("", "0")


def test_nba_universality_agrees_with_rank_based_complement():
    # two complete engines, independent methods: the linked-pair decision
    # must match emptiness of the rank-based complement, including the
    # degenerate all-final and no-final acceptance sets
    rng = random.Random(2024)
    for i in range(30):
        a = random_nba(rng, 3)
        if i % 5 == 0:
            finals = frozenset() if i % 2 else frozenset(a.states)
            a = Automaton(
                name=a.name, role="nba", alphabet=a.alphabet, states=a.states,
                initial=a.initial, acceptance=BuchiAcceptance(finals),
                transitions=dict(a.transitions),
            )
        by_profiles = nba_universality(a)
        by_complement = nba_emptiness(nba_complement(a))
        assert (by_profiles is None) == (by_complement is None)
        if by_complement is not None:
            assert not nba_lasso_member(a, by_complement)


def test_fpm_positive_universal_agrees_with_lasso_sweep():
    rng = random.Random(3030)
    lassos = list(all_lassos(("a", "b"), 3, 3))
    for _ in range(30):
        m = random_fpm(rng, rng.randint(2, 4))
        ce = fpm_positive_universal(m)
        if ce is None:
            for w in lassos:
                assert lasso_acceptance(m, w) > 0
        else:
            assert lasso_acceptance(m, ce) == 0


def test_nba_universality_agrees_with_exhaustive_search():
    rng = random.Random(13)
    lassos = list(all_lassos(("a", "b"), 3, 3))
    for _ in range(30):
        a = random_nba(rng, 3)
        ce = nba_universality(a)
        short = next((w for w in lassos if not nba_lasso_member(a, w)), None)
        if short is not None:
            assert ce is not None
            assert not nba_lasso_member(a, ce)
        if ce is None:
            assert short is None


def test_hpba_decisions():
    m = gen_m_id()
    assert hpba_probable_empty(m) == lasso("1", "0")
    assert hpba_probable_universal(m) == lasso("", "0")
    dead = Automaton(
        name="dead",
        role="pba",
        alphabet=("a",),
        states=("p", "q"),
        initial="p",
        acceptance=BuchiAcceptance(frozenset({"q"})),
        transitions={("p", "a"): (("p", F(1)),), ("q", "a"): (("q", F(1)),)},
    )
    assert hpba_probable_empty(dead) is None
    s1 = gen_succinct(1)
    assert hpba_probable_empty(s1) is not None
    ce = hpba_probable_universal(s1)
    assert ce is not None and lasso_acceptance(s1, ce) == 0


def test_fpm_positive_empty_examples():
    # everything leaks straight to the reject: empty
    dead = Automaton(
        name="drain",
        role="fpm",
        alphabet=("a",),
        states=("s", "rej"),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s"})),
        transitions={
            ("s", "a"): (("rej", F(1)),),
            ("rej", "a"): (("rej", F(1)),),
        },
        reject="rej",
    )
    assert fpm_positive_empty(dead) is None
    m = complement_to_fpm(gen_m_id())
    sw = fpm_positive_empty(m)
    assert sw is not None
    assert sw.states == frozenset({"qr"})
    assert sw.u == ("0",) and sw.v == ("0",)
    assert verify_subset_witness(m, sw)
    lf = random_fpm(random.Random(1), 3)
    # make it leak-free by rerouting reject mass to q0
    trans = {}
    for (q, a), row in lf.transitions.items():
        entries = {}
        for t, p in row:
            key = "q0" if t == "rej" and q != "rej" else t
            entries[key] = entries.get(key, F(0)) + p
        trans[(q, a)] = tuple(entries.items())
    leak_free = Automaton(
        name="lf", role="fpm", alphabet=lf.alphabet, states=lf.states,
        initial="q0", acceptance=lf.acceptance, transitions=trans, reject="rej",
    )
    sw2 = fpm_positive_empty(leak_free)
    assert sw2 is not None and verify_subset_witness(leak_free, sw2)


@pytest.mark.parametrize("states, u, v, ok", [
    ({"q1"}, ("1",), ("1",), True),
    (set(), ("1",), ("1",), False),  # no states
    ({"q1"}, (), ("1",), False),  # no stem
    ({"q1"}, ("1",), (), False),  # no cycle
    ({"q1"}, ("0",), ("1",), False),  # the stem puts no mass on the set
    ({"q0"}, ("1",), ("0",), False),  # the cycle leaks out of the set
    ({"qr"}, ("0",), ("0",), False),  # the set holds the absorbing reject
])
def test_verify_subset_witness_checks_each_invariant(states, u, v, ok):
    assert verify_subset_witness(gen_m_id(), SubsetWitness(frozenset(states), u, v)) is ok


def test_fpm_positive_universal_examples():
    m = complement_to_fpm(gen_m_id())
    ce = fpm_positive_universal(m)
    assert ce == lasso("", "1")
    assert lasso_acceptance(m, ce) == 0
    half = Automaton(
        name="half",
        role="fpm",
        alphabet=("a", "b"),
        states=("s", "rej"),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s"})),
        transitions={
            ("s", "a"): (("s", F(1, 2)), ("rej", F(1, 2))),
            ("s", "b"): (("s", F(1, 2)), ("rej", F(1, 2))),
            ("rej", "a"): (("rej", F(1)),),
            ("rej", "b"): (("rej", F(1)),),
        },
        reject="rej",
    )
    ce2 = fpm_positive_universal(half)
    assert ce2 is not None and lasso_acceptance(half, ce2) == 0


def test_fpm_positive_empty_agrees_with_bounded_brute_force():
    rng = random.Random(1001)
    for _ in range(100):
        m = random_fpm(rng, rng.randint(2, 4))
        sw = fpm_positive_empty(m)
        # brute force: exhaustive short lassos; a surviving one forces the
        # procedure to answer nonempty, and an empty answer forbids all
        brute = None
        for w in all_lassos(m.alphabet, 4, 4):
            if lasso_acceptance(m, w) > 0:
                brute = w
                break
        if brute is not None:
            assert sw is not None, f"missed witness {brute}"
        if sw is None:
            assert brute is None


def test_fpm_positive_universal_leak_free():
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
    assert fpm_positive_universal(leak_free) is None


def test_almost_sure_decisions():
    m = gen_m_id()
    assert almost_sure_empty(m) == lasso("", "1")
    assert almost_sure_universal(m) == lasso("", "0")
    no_finals = Automaton(
        name="nf",
        role="pba",
        alphabet=("a",),
        states=("s",),
        initial="s",
        acceptance=BuchiAcceptance(frozenset()),
        transitions={("s", "a"): (("s", F(1)),)},
    )
    assert almost_sure_empty(no_finals) is None
    top = Automaton(
        name="top",
        role="pba",
        alphabet=("a",),
        states=("s",),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s"})),
        transitions={("s", "a"): (("s", F(1)),)},
    )
    assert almost_sure_universal(top) is None


def test_almost_sure_empty_falsification():
    rng = random.Random(505)
    for _ in range(25):
        b = random_pba(rng, rng.randint(1, 3))
        witness = almost_sure_empty(b)
        if witness is None:
            for _ in range(60):
                w = random_lasso(rng, b.alphabet, 4)
                assert lasso_acceptance(b, w) < 1
        else:
            assert lasso_acceptance(b, witness) == 1


def test_duality_between_procedures():
    rng = random.Random(606)
    for _ in range(20):
        b = random_pba(rng, rng.randint(1, 3))
        assert (almost_sure_universal(b) is None) == (
            fpm_positive_empty(complement_to_fpm(b)) is None
        )


def test_bounded_asymptotic_search():
    m = gen_m_id()
    w = pba_positive_nonempty_bounded(m, 1, 3)
    assert w is not None
    assert w.states == frozenset({"q1"}) and w.u == ("1",)
    assert verify_asymptotic_witness(m, w)
    dead = Automaton(
        name="dead",
        role="pba",
        alphabet=("a",),
        states=("p", "q"),
        initial="p",
        acceptance=BuchiAcceptance(frozenset({"q"})),
        transitions={("p", "a"): (("p", F(1)),), ("q", "a"): (("q", F(1)),)},
    )
    assert pba_positive_nonempty_bounded(dead, 3, 3) is None
    s1 = gen_succinct(1)
    w1 = pba_positive_nonempty_bounded(s1, 4, 3)
    assert w1 is not None and verify_asymptotic_witness(s1, w1)


def test_bounded_asymptotic_search_rejects_negative_x():
    # A stem of mass 0 exceeds a negative x, so the search would return a
    # witness that the lower bound's re-check at x = 0 refuses.
    with pytest.raises(AutomatonError, match="x must be at least 0"):
        pba_positive_nonempty_bounded(gen_m_id(), 1, 1, F(-1))
    assert pba_positive_nonempty_bounded(gen_m_id(), 1, 1, F(0)) is not None


def test_bounded_asymptotic_search_validates_once_per_search(monkeypatch):
    from probuchi import core

    # One validation for the search itself, whatever the number of reach
    # words; the rest belong to the closing re-check's public calls.
    calls = []
    validate = core.validate
    monkeypatch.setattr(core, "validate", lambda aut: calls.append(aut) or validate(aut))
    assert pba_positive_nonempty_bounded(gen_m_id(), 3, 3) is not None
    assert len(calls) <= 5


def test_acceptance_lower_bound_example():
    m = gen_m_id()
    w = pba_positive_nonempty_bounded(m, 1, 3)
    lb = acceptance_lower_bound(m, w)
    assert lb.value == F(1, 2)
    assert lb.asymptotic
    assert lasso_acceptance(m, lb.lasso) >= lb.value


def test_acceptance_lower_bound_random_witnesses():
    rng = random.Random(808)
    checked = 0
    for _ in range(40):
        b = random_pba(rng, rng.randint(2, 3))
        w = pba_positive_nonempty_bounded(b, 2, 3)
        if w is None:
            continue
        lb = acceptance_lower_bound(b, w)
        if lb.asymptotic:
            assert lb.value <= lasso_acceptance(b, lb.lasso)
            checked += 1
    assert checked >= 5


def test_witness_cli_prints_the_public_lower_bound(tmp_path, capsys):
    # probuchi witness prints acceptance_lower_bound of the search's own
    # witness, also above x, and answers unknown exactly when it finds none.
    from probuchi.cli import run
    from probuchi.textio import format_lasso, serialize

    rng = random.Random(808)
    path = tmp_path / "b.pba"
    found = 0
    for i in range(60):
        b = random_pba(rng, rng.randint(2, 3))
        x = (F(0), F(1, 4), F(1, 2))[i % 3]
        path.write_text(serialize(b))
        code = run(["witness", str(path), "--max-len", "2", "--max-j", "3", "--x", str(x)])
        doc = json.loads(capsys.readouterr().out)
        w = pba_positive_nonempty_bounded(b, 2, 3, x)
        if w is None:
            assert (code, doc["answer"]) == (2, "unknown")
            continue
        lb = acceptance_lower_bound(b, w)
        assert (code, doc["answer"]) == (0, "nonempty")
        assert doc["lower_bound"] == str(lb.value)
        assert doc["asymptotic"] == lb.asymptotic
        assert doc["assembled_lasso"] == format_lasso(lb.lasso, b.alphabet)
        found += 1
    assert found >= 20


def test_witness_search_polls_cancel_before_each_matrix(monkeypatch):
    # gen_m_id has 126 reach words up to length 6: 126 polls walk the stems,
    # and the next one comes before the first final-passage matrix.
    from probuchi import decide

    built, polls = [], []
    real = decide._passage
    monkeypatch.setattr(decide, "_passage", lambda *a: built.append(a) or real(*a))
    with pytest.raises(SearchCancelled):
        pba_positive_nonempty_bounded(gen_m_id(), 6, 3,
                                      cancel=lambda: polls.append(1) or len(polls) >= 127)
    assert (len(polls), len(built)) == (127, 0)


def test_acceptance_lower_bound_rejects_bad_witness():
    from probuchi.decide import AsymptoticWitness
    from probuchi import AutomatonError

    m = gen_m_id()
    bad = AsymptoticWitness(frozenset({"qr"}), ("1",), (("1",),), 1)
    with pytest.raises(AutomatonError):
        acceptance_lower_bound(m, bad)


@pytest.mark.parametrize("start_index", [-1, 0])
def test_asymptotic_witness_needs_a_start_index_of_at_least_one(start_index):
    m = gen_m_id()
    w = AsymptoticWitness(frozenset({"q1"}), ("1",), (("0",),), start_index=1)
    assert verify_asymptotic_witness(m, w)
    bad = replace(w, start_index=start_index)
    assert not verify_asymptotic_witness(m, bad)
    with pytest.raises(AutomatonError, match="^invalid asymptotic witness$"):
        acceptance_lower_bound(m, bad)


def test_containment_refute():
    m = gen_m_id()
    assert containment_refute(m, m, "almost-sure", 2) is None
    top = Automaton(
        name="top",
        role="pba",
        alphabet=("0", "1"),
        states=("s",),
        initial="s",
        acceptance=BuchiAcceptance(frozenset({"s"})),
        transitions={("s", a): (("s", F(1)),) for a in ("0", "1")},
    )
    w = containment_refute(top, m, "almost-sure", 2)
    assert w == lasso("", "0")
    assert containment_refute(m, top, "almost-sure", 2) is None
    assert containment_refute(m, top, "positive", 2) is None


def test_transition_monoid_cap_and_cancel():
    m = complement_to_fpm(gen_m_id())
    with pytest.raises(ResourceLimitError) as err:
        transition_monoid(m, cap=2)
    assert "PROBUCHI_MONOID_CAP" in str(err.value)
    with pytest.raises(SearchCancelled):
        fpm_positive_universal(m, cancel=lambda: True)


def test_monoid_cap_counts_one_letter_elements(tmp_path, capsys):
    from probuchi.cli import run
    from probuchi.decide import _monoid, _profile_tables
    from probuchi.textio import serialize

    # a is the identity and b sends p to q: two elements of one letter each
    one = F(1)
    rows = {"a": ("p", "q", "r"), "b": ("q", "q", "r")}
    m = Automaton(
        name="two_letters",
        role="fpm",
        alphabet=("a", "b"),
        states=("p", "q", "r"),
        initial="p",
        acceptance=BuchiAcceptance(frozenset({"p", "q"})),
        transitions={
            (q, sym): ((t, one),) for sym, ts in rows.items() for q, t in zip("pqr", ts)
        },
        reject="r",
    )
    assert len(transition_monoid(m)) == 2
    with pytest.raises(ResourceLimitError) as err:
        transition_monoid(m, cap=1)
    assert err.value.cap_name == "PROBUCHI_MONOID_CAP" and err.value.cap_value == 1
    nba = hpba_to_nba(gen_m_id())
    gens, acts, _ = _profile_tables(nba)
    with pytest.raises(ResourceLimitError):
        dict(_monoid(gens, acts, nba.alphabet, 1, None, "profile monoid"))
    path = tmp_path / "two_letters.fpm"
    path.write_text(serialize(m))
    assert run(["universal", str(path), "--monoid-cap", "1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "resource-limit" and doc["cap"] == "PROBUCHI_MONOID_CAP"


def test_progress_callback_reports():
    messages = []
    m = complement_to_fpm(gen_m_id())
    fpm_positive_universal(m, progress=messages.append)
    assert any("monoid" in msg for msg in messages)


def test_containment_refute_rejects_bounds_below_one():
    from probuchi import AutomatonError

    m = gen_m_id()
    for bound in (0, -2):
        with pytest.raises(AutomatonError, match="bound must be at least 1"):
            containment_refute(m, m, "positive", bound)


def test_containment_refute_validates_each_operand_once(monkeypatch):
    from probuchi import core

    calls = []
    validate = core.validate
    monkeypatch.setattr(core, "validate", lambda aut: calls.append(aut) or validate(aut))
    m = gen_m_id()
    assert containment_refute(m, m, "positive", 2) is None
    assert len(calls) == 2


def test_containment_refute_rechecks_its_witness(monkeypatch):
    from probuchi import decide

    # Per-cycle values that claim b1 accepts and b2 rejects every lasso:
    # the scan stops at the first lasso, and the per-lasso re-check must
    # find that its acceptance probabilities say otherwise.
    b1, b2 = gen_m_id(), gen_m_id()
    monkeypatch.setattr(
        decide, "_cycle_values",
        lambda aut, starts, cycle: dict.fromkeys(starts, F(int(aut is b1))),
    )
    with pytest.raises(CertificationError, match="containment witness ;0"):
        containment_refute(b1, b2, "positive", 2)


def test_nba_universality_rechecks_its_probe(monkeypatch):
    from probuchi import decide

    # With no state reaching an accepting loop, the probe calls the first
    # lasso rejected; inf_many_a accepts it, and the re-check must say so.
    monkeypatch.setattr(decide, "reaching", lambda nodes, adjacency, mark: defaultdict(int))
    with pytest.raises(CertificationError, match="counterexample ;a is accepted"):
        nba_universality(inf_many_a())


def test_containment_refute_needs_probabilistic_operands():
    from probuchi import AutomatonError

    m = gen_m_id()
    nba = random_nba(random.Random(3), 2, m.alphabet)
    for b1, b2 in ((m, nba), (nba, m)):
        with pytest.raises(AutomatonError, match="needs a probabilistic automaton"):
            containment_refute(b1, b2, "positive", 2)


def _mixed_width_nba():
    """NBA over (ab, a, b) whose emptiness witness is the lasso ;a,b."""
    return Automaton(
        name="mixed",
        role="nba",
        alphabet=("ab", "a", "b"),
        states=("p", "q"),
        initial="p",
        acceptance=BuchiAcceptance(frozenset({"p"})),
        transitions={("p", "a"): ("q",), ("q", "b"): ("p",)},
    )


_AB = lasso("", ("a", "b"))


class _Subset:
    @staticmethod
    def lasso():
        return _AB


@pytest.mark.parametrize(
    "call, patches",
    [
        (nba_emptiness, {"nba_lasso_member": lambda a, w: False}),
        (hpba_probable_empty, {"hpba_to_nba": lambda h: h,
                               "nba_emptiness": lambda a: _AB,
                               "lasso_acceptance": lambda h, w: Fraction(0)}),
        (hpba_probable_universal, {"hpba_to_nba": lambda h: h,
                                   "nba_universality": lambda a: _AB,
                                   "lasso_acceptance": lambda h, w: Fraction(1, 2)}),
        (almost_sure_empty, {"complement_to_fpm": lambda b: b,
                             "fpm_positive_universal": lambda m: _AB,
                             "lasso_acceptance": lambda b, w: Fraction(0)}),
        (almost_sure_universal, {"complement_to_fpm": lambda b: b,
                                 "fpm_positive_empty": lambda m: _Subset(),
                                 "lasso_acceptance": lambda b, w: Fraction(1)}),
    ],
)
def test_certification_errors_print_lassos_over_the_alphabet(
    call, patches, monkeypatch
):
    from probuchi import decide
    from probuchi.decide import CertificationError

    for name, fake in patches.items():
        monkeypatch.setattr(decide, name, fake)
    with pytest.raises(CertificationError) as err:
        call(_mixed_width_nba())
    assert ";a,b" in str(err.value)


def test_dra_lasso_membership_example():
    d = random_dra(random.Random(1), 4, 2)
    w = lasso("", "a")
    assert nba_lasso_member(d, w) == dra_accepts(d, w)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dra_lasso_membership_matches_direct_run(seed):
    rng = random.Random(seed)
    alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
    d = random_dra(rng, rng.randint(1, 6), rng.randint(1, 3), alphabet)
    for _ in range(8):
        w = random_lasso(rng, alphabet, 5)
        assert nba_lasso_member(d, w) == dra_accepts(d, w)


def all_but_one_lasso() -> Automaton:
    """Every word except (aaab)^omega: no lasso within the probe bound is rejected."""
    edges = [("p0", "a", "p1"), ("p1", "a", "p2"), ("p2", "a", "p3"), ("p3", "b", "p0"),
             ("p0", "b", "f"), ("p1", "b", "f"), ("p2", "b", "f"), ("p3", "a", "f"),
             ("f", "a", "f"), ("f", "b", "f")]
    return nba("not_aaab", ("a", "b"), ("p0", "p1", "p2", "p3", "f"), "p0", ("f",), edges)


@pytest.mark.parametrize(
    "make, counterexample",
    [(inf_many_a, lasso("", "b")), (all_but_one_lasso, lasso("aaab", "aaab"))],
)
def test_nba_universality_validates_once(make, counterexample, monkeypatch):
    from probuchi import core

    calls = []
    validate = core.validate
    monkeypatch.setattr(core, "validate", lambda aut: calls.append(aut) or validate(aut))
    a = make()
    assert nba_universality(a) == counterexample
    assert len(calls) == 1


@pytest.mark.parametrize(
    "limit, value, cap_name, message",
    [
        ("COMPLEMENT_STATE_LIMIT", 3, "state_cap",
         "complement exploration exceeds 3 states; the limit is fixed"),
        ("COMPLEMENT_BRANCH_LIMIT", 1, "branch_cap",
         "rank branching exceeds 1 at one transition; the limit is fixed "
         "(input likely too large for the rank-based method)"),
    ],
    ids=["states", "branching"],
)
def test_nba_complement_fixed_limits(limit, value, cap_name, message, monkeypatch):
    from probuchi import decide

    monkeypatch.setattr(decide, limit, value)
    with pytest.raises(ResourceLimitError) as err:
        nba_complement(contains_a_one())
    assert err.value.cap_name == cap_name and err.value.cap_value == value
    assert str(err.value) == message


def _ghost_target_monitor() -> Automaton:
    m = gen_m_id()
    return replace(
        m, transitions={**m.transitions, ("q1", "0"): (("ghost", Fraction(1)),)}
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda m: transition_monoid(m),
        lambda m: word_matrix(m, ("0",)),
        lambda m: final_passage_matrix(m, ("0",)),
        lambda m: verify_subset_witness(
            m, SubsetWitness(frozenset({"q1"}), ("0",), ("0",))
        ),
        lambda m: verify_asymptotic_witness(
            m, AsymptoticWitness(frozenset({"q1"}), ("0",), (("0",),))
        ),
        lambda m: fpm_positive_empty(m),
        lambda m: fpm_positive_universal(m),
    ],
    ids=["transition_monoid", "word_matrix", "final_passage_matrix",
         "verify_subset_witness", "verify_asymptotic_witness",
         "fpm_positive_empty", "fpm_positive_universal"],
)
def test_invalid_automata_raise_invalid_automaton_error(call):
    with pytest.raises(InvalidAutomatonError, match="ghost"):
        call(_ghost_target_monitor())


# Monitor over (a) whose states alpha and beta swap on every a.
SWAP_MONITOR = """type: fpm
alphabet: a
states: alpha beta rej
init: alpha
final: alpha beta
reject: rej
alpha -a-> beta : 1
beta -a-> alpha : 1
rej -a-> rej : 1
"""


def _swap_monitor() -> Automaton:
    from probuchi.textio import parse

    return parse(SWAP_MONITOR)


@pytest.mark.parametrize(
    "call, patches, message",
    [
        (lambda: fpm_positive_empty(_swap_monitor()),
         {"verify_subset_witness": lambda m, w: False},
         "subset witness a;a on states alpha beta failed re-check"),
        (lambda: fpm_positive_universal(gen_m_id()),
         {"lasso_acceptance": lambda m, w: F(1, 2)},
         "rejected-lasso counterexample ;0 has positive acceptance"),
        (lambda: pba_positive_nonempty_bounded(gen_m_id(), 1, 3),
         {"verify_asymptotic_witness": lambda b, w, x: False},
         "asymptotic witness 100;0 failed re-verification"),
    ],
    ids=["fpm_positive_empty", "fpm_positive_universal", "bounded-search"],
)
def test_failed_rechecks_name_the_witness_lasso(call, patches, message, monkeypatch):
    from probuchi import decide

    for name, fake in patches.items():
        monkeypatch.setattr(decide, name, fake)
    with pytest.raises(CertificationError) as err:
        call()
    assert str(err.value) == message


def test_asymptotic_witness_lasso_is_the_lower_bounds_lasso():
    m = gen_m_id()
    w = pba_positive_nonempty_bounded(m, 1, 3)
    assert w.lasso() == lasso("100", "0") == acceptance_lower_bound(m, w).lasso


def test_subset_witness_error_does_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    import probuchi

    script = (
        "from probuchi import decide, textio\n"
        "decide.verify_subset_witness = lambda m, w: False\n"
        "try:\n"
        f"    decide.fpm_positive_empty(textio.parse({SWAP_MONITOR!r}))\n"
        "except decide.CertificationError as err:\n"
        "    print(err)\n"
    )
    src = os.path.dirname(os.path.dirname(probuchi.__file__))
    outputs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONPATH": src,
                                        "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1] == "subset witness a;a on states alpha beta failed re-check\n"
