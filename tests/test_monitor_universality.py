"""Monitor positive universality on belief supports: the almost-sure
fixpoint against an exhaustive monoid oracle, the witness scan, and
universal answers that build no monoid element."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from probuchi import (
    Automaton,
    BuchiAcceptance,
    LassoWord,
    ResourceLimitError,
    complement_to_fpm,
)
from probuchi.decide import (
    CertificationError,
    SearchCancelled,
    _almost_sure_supports,
    _belief_supports,
    _symbol_masks,
    almost_sure_empty,
    fpm_positive_universal,
)

from conftest import PALETTE, random_fpm, random_pba
from test_kernel import (
    ref_fpm_positive_universal,
    ref_image,
    ref_safe_start_mask,
    ref_transition_monoid,
)
from test_monitor_emptiness import perm_monitor

F = Fraction


def half_sink_pba() -> Automaton:
    """Every word reaches an accepting sink with probability 1/2 and a
    rejecting one otherwise, so no word is accepted almost surely."""
    return Automaton(
        name="half_sink", role="pba", alphabet=("a", "b"), states=("s", "acc", "rej"),
        initial="s", acceptance=BuchiAcceptance(frozenset({"acc"})),
        transitions={
            **{("s", a): (("acc", F(1, 2)), ("rej", F(1, 2))) for a in "ab"},
            **{(q, a): ((q, F(1)),) for q in ("acc", "rej") for a in "ab"},
        },
    )


def test_universal_answers_build_no_monoid_element(monkeypatch):
    from probuchi import decide

    def no_monoid(*args, **kw):
        raise AssertionError("a universal answer built the transition monoid")

    monkeypatch.setattr(decide, "_monoid", no_monoid)
    monkeypatch.setattr(decide, "transition_monoid", no_monoid)
    for n in (3, 5, 7):
        assert fpm_positive_universal(perm_monitor(n, False)) is None
    assert almost_sure_empty(half_sink_pba()) is None
    with pytest.raises(AssertionError, match="built the transition monoid"):
        fpm_positive_universal(perm_monitor(3, True))


def test_symmetric_group_monitors_answer_under_a_small_cap():
    # 9! = 362,880 monoid elements, far over the cap; the answer needs only
    # the 9 or 10 supports and, for the leak, the first monoid element
    assert fpm_positive_universal(perm_monitor(9, False), monoid_cap=100) is None
    assert str(fpm_positive_universal(perm_monitor(9, True), monoid_cap=100)) == ";a"


def one_shot(rng: random.Random, m: Automaton) -> Automaton:
    """``m`` behind a fresh initial state i that only a enters, with a sending
    every other live state to a live trap t: a word wins only with a single
    a in front, so a repeated cycle from {i} falls into the trap."""
    live = [q for q in m.states if q != m.reject]
    trans = {k: row for k, row in m.transitions.items() if k[1] != "a"}
    ws = rng.choice([w for w in PALETTE if len(w) <= len(live)])
    trans[("i", "a")] = tuple(zip(rng.sample(live, len(ws)), ws))
    for q in ("i", "t") + m.states:
        for a in m.alphabet:
            trans.setdefault((q, a), ((m.reject if q == m.reject else "t", F(1)),))
    return replace(m, states=("i",) + m.states + ("t",), initial="i", transitions=trans,
                   acceptance=BuchiAcceptance(m.acceptance.final | {"i", "t"}))


def _monitors():
    """Random monitors, complement monitors of random PBAs, and random
    monitors behind a one-shot stem."""
    rng = random.Random(2201)
    for i in range(600):
        alphabet = rng.choice([("a", "b"), ("a", "b", "c")])
        if i % 3 == 0:
            yield random_fpm(rng, rng.randint(2, 7), alphabet)
        elif i % 3 == 1:
            yield complement_to_fpm(random_pba(rng, rng.randint(1, 4), alphabet))
        else:
            yield one_shot(rng, random_fpm(rng, rng.randint(2, 6), alphabet))


def ref_almost_sure_supports(m, supports):
    """The supports from which some reachable support is doomed by a
    transition monoid element: some lasso is rejected almost surely."""
    gen = _symbol_masks(m)
    reject = m.index[m.reject]
    doomed = [ref_safe_start_mask(rows, reject) for _, rows in ref_transition_monoid(m)]
    hit = {s for s in supports if any(not s & ~d for d in doomed)}
    win = set()
    for s in supports:
        seen, todo = {s}, [s]
        while todo:
            t = todo.pop()
            for a in m.alphabet:
                u = ref_image(t, gen[a])
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        if seen & hit:
            win.add(s)
    return win, hit


def test_the_fixpoint_matches_the_monoid_oracle():
    universal = refuted = skipped = 0
    for m in _monitors():
        masks = _symbol_masks(m)
        supports = _belief_supports(m, masks, 10**6, None)
        win = _almost_sure_supports(m, masks, supports, None)
        want, hit = ref_almost_sure_supports(m, supports)
        assert win == want
        w = fpm_positive_universal(m)
        ref = ref_fpm_positive_universal(m)
        assert w == (None if ref is None else ref[0])
        if w is None:
            universal += 1
        else:
            refuted += 1
            # the witness scan skipped a support of W that no element dooms
            first = next(s for s in supports if s in win)
            skipped += first not in hit
    # vacuity guard: both answers common, and the witness scan often passes
    # a support of W that no single element dooms (the one-shot stems)
    assert universal >= 50 and refuted >= 50 and skipped >= 50, (universal, refuted, skipped)


def test_a_fixpoint_win_without_a_dooming_element_is_refused(monkeypatch):
    from probuchi import decide

    monkeypatch.setattr(decide, "_safe_start_mask", lambda rows, reject: 0)
    with pytest.raises(CertificationError) as err:
        fpm_positive_universal(perm_monitor(3, True))
    assert str(err.value) == (
        "the belief supports of 'perm3' reach the reject almost surely, but no "
        "transition monoid element dooms a reachable support"
    )


def test_the_support_search_honours_cap_cancel_and_progress():
    m = perm_monitor(5, False)  # supports {q0} .. {q4}, all reached by nonempty words
    with pytest.raises(ResourceLimitError) as err:
        fpm_positive_universal(m, monoid_cap=4)
    assert str(err.value) == ("transition monoid exceeds 4 elements; "
                              "raise it via --monoid-cap or PROBUCHI_MONOID_CAP")
    assert fpm_positive_universal(m, monoid_cap=5) is None
    with pytest.raises(SearchCancelled):
        fpm_positive_universal(m, cancel=lambda: True)
    messages = []
    assert fpm_positive_universal(m, progress=messages.append) is None
    # with the leak, {q0} and the five {qi, rej} all lose almost surely
    assert fpm_positive_universal(perm_monitor(5, True), progress=messages.append) \
        == LassoWord((), ("a",))
    assert messages == ["belief support fixpoint keeps 0 of 5 supports",
                        "belief support fixpoint keeps 6 of 6 supports",
                        "witness read 1 transition monoid elements"]
