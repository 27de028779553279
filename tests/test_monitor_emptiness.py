"""Monitor positive emptiness on the safe-step graph, against the exhaustive
monoid scan it replaced, plus the lazy monoid enumerator and the emptiness
certificate."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from probuchi import (
    Automaton,
    BuchiAcceptance,
    ResourceLimitError,
    complement_to_fpm,
    gen_m_id,
)
from probuchi.cli import run
from probuchi.decide import (
    CertificationError,
    SearchCancelled,
    SubsetWitness,
    _certify_numbering,
    _monoid,
    _symbol_masks,
    _word_key,
    fpm_positive_empty,
    transition_monoid,
)
from probuchi.textio import serialize

from conftest import random_fpm, random_pba
from test_kernel import ref_image, ref_lex_reach_words

F = Fraction


def ref_fpm_positive_empty(m: Automaton) -> SubsetWitness | None:
    """The exhaustive procedure: the whole transition monoid, then the first
    element in discovery order that keeps the closure of a reachable live
    state (taken by its shortest reaching word) off the reject."""
    monoid = transition_monoid(m)
    idx = m.index
    reach = ref_lex_reach_words(m, m.initial, at_least_one=True)
    candidates = sorted((q for q in reach if q != m.reject),
                        key=lambda q: (_word_key(m, reach[q]), idx[q]))
    reject_bit = 1 << idx[m.reject]
    for rows, vword in monoid.items():
        for q in candidates:
            closure = frontier = 1 << idx[q]
            while frontier:
                step = ref_image(frontier, rows)
                if step & reject_bit:
                    break
                frontier = step & ~closure
                closure |= frontier
            if not frontier:
                states = frozenset(q for j, q in enumerate(m.states) if closure >> j & 1)
                return SubsetWitness(states, reach[q], vword)
    return None


def monitor(name, live, rows, leaks=()) -> Automaton:
    """A monitor over live states plus ``rej``.  ``rows[a]`` lists each live
    state's targets on a, uniformly weighted; the pairs (q, a) in ``leaks``
    also send half of q's mass to ``rej``."""
    trans = {}
    for a, targets in rows.items():
        for q, ts in zip(live, targets):
            ts = tuple(ts) + (("rej",) if (q, a) in leaks else ())
            trans[(q, a)] = tuple((t, F(1, len(ts))) for t in ts)
        trans[("rej", a)] = (("rej", F(1)),)
    return Automaton(
        name=name, role="fpm", alphabet=tuple(rows), states=tuple(live) + ("rej",),
        initial=live[0], acceptance=BuchiAcceptance(frozenset(live)),
        transitions=trans, reject="rej",
    )


def perm_monitor(n: int, leak: bool) -> Automaton:
    """a rotates n live states and b swaps the first two, so the monoid is
    the symmetric group, n! elements; with ``leak`` every live row leaks."""
    live = [f"q{i}" for i in range(n)]
    rows = {"a": [[live[(i + 1) % n]] for i in range(n)],
            "b": [[live[1]], [live[0]]] + [[q] for q in live[2:]]}
    return monitor(f"perm{n}", live, rows, {(q, a) for q in live for a in rows} if leak else ())


def spreading_monitor() -> Automaton:
    """a rotates four live states and b spreads q0 over q0 and q1, so safe
    steps reach all 15 nonempty sets of live states."""
    live = ["q0", "q1", "q2", "q3"]
    rows = {"a": [["q1"], ["q2"], ["q3"], ["q0"]],
            "b": [["q0", "q1"], ["q1"], ["q2"], ["q3"]]}
    return monitor("spread", live, rows)


# s and t leak on a, t also on b, and b moves s to t: two safe-step nodes,
# one safe step {s} -b-> {t}, and no cycle.
CHAIN = monitor("chain", ["s", "t"], {"a": [["s"], ["t"]], "b": [["t"], ["t"]]},
                {("s", "a"), ("t", "a"), ("t", "b")})


def _random_monitors():
    """(family, monitor): random monitors, then complement monitors of PBAs."""
    rng = random.Random(2101)
    for _ in range(400):
        k = rng.randint(1, 3)
        yield "random", random_fpm(rng, rng.randint(2, 10), ("a", "b", "c")[:k])
    for _ in range(150):
        yield "complement", complement_to_fpm(random_pba(rng, rng.randint(1, 5)))


def test_matches_the_exhaustive_scan_on_answer_and_witness():
    answers = dict.fromkeys(itertools.product(("random", "complement"), (True, False)), 0)
    past_first = 0
    for family, m in _random_monitors():
        want = ref_fpm_positive_empty(m)
        assert fpm_positive_empty(m) == want
        # the graph's bound, |Q|*(cap + 1) nodes, admits every monitor whose
        # full monoid fits the cap
        monoid = transition_monoid(m)
        assert fpm_positive_empty(m, monoid_cap=len(monoid)) == want
        answers[family, want is None] += 1
        past_first += want is not None and want.v != next(iter(monoid.values()))
    # vacuity guard: each family gives both answers, and many witness
    # cycles come after the first monoid element, so the witness scan
    # must read past the first element's closure
    assert min(answers.values()) >= 20, answers
    assert past_first >= 30, past_first


@pytest.mark.parametrize("n", [3, 4, 5])
def test_permutation_monitors_match_the_exhaustive_scan(n):
    for leak in (False, True):
        m = perm_monitor(n, leak)
        assert fpm_positive_empty(m) == ref_fpm_positive_empty(m)
    assert fpm_positive_empty(perm_monitor(n, True)) is None


def test_lazy_monoid_yields_transition_monoids_items_in_order():
    monitors = [m for _, m in itertools.islice(_random_monitors(), 100)]
    for m in [perm_monitor(4, True), spreading_monitor(), *monitors]:
        masks = _symbol_masks(m)
        lazy = _monoid(masks, masks, m.alphabet, 10**6, None, "transition monoid")
        assert list(lazy) == list(transition_monoid(m).items())


@pytest.mark.parametrize("cap, handed_out", [(1, 0), (2, 1)])
def test_lazy_monoid_raises_where_the_full_one_does(cap, handed_out):
    m = complement_to_fpm(gen_m_id())
    masks = _symbol_masks(m)
    got = []
    with pytest.raises(ResourceLimitError) as lazy:
        for item in _monoid(masks, masks, m.alphabet, cap, None, "transition monoid"):
            got.append(item)
    with pytest.raises(ResourceLimitError) as full:
        transition_monoid(m, cap=cap)
    assert str(lazy.value) == str(full.value)
    assert (lazy.value.cap_name, lazy.value.cap_value) == ("PROBUCHI_MONOID_CAP", cap)
    assert got == list(transition_monoid(m).items())[:handed_out]


def test_an_answer_needs_only_its_own_search_under_the_cap():
    # the whole monoid (120 permutations) exceeds the cap, but an empty
    # answer needs only the subset graph, and a nonempty one only the
    # monoid elements up to its witness, here the first
    for m in (perm_monitor(5, True), perm_monitor(5, False)):
        with pytest.raises(ResourceLimitError):
            transition_monoid(m, cap=10)
        assert fpm_positive_empty(m, monoid_cap=10) == ref_fpm_positive_empty(m)
    assert fpm_positive_empty(perm_monitor(5, False), monoid_cap=10) is not None


def test_the_subset_graph_is_capped_by_the_monoid_cap():
    m = spreading_monitor()  # 15 safe-step nodes over 5 states
    with pytest.raises(ResourceLimitError) as err:
        fpm_positive_empty(m, monoid_cap=1)
    assert str(err.value) == ("safe-step subset graph exceeds 10 elements; "
                              "raise it via --monoid-cap or PROBUCHI_MONOID_CAP")
    assert err.value.cap_name == "PROBUCHI_MONOID_CAP"
    # at cap 2 the graph (15 <= 5 * 3 nodes) fits, and the witness is the
    # first monoid element, though the full monoid exceeds the cap
    with pytest.raises(ResourceLimitError):
        transition_monoid(m, cap=2)
    assert fpm_positive_empty(m, monoid_cap=2) == ref_fpm_positive_empty(m)


def test_the_subset_graph_honours_cancel_and_reports_progress():
    with pytest.raises(SearchCancelled):
        fpm_positive_empty(CHAIN, cancel=lambda: True)
    messages = []
    assert fpm_positive_empty(CHAIN, progress=messages.append) is None
    assert messages == ["safe-step subset graph has 2 nodes"]


def test_cli_answers_empty_when_only_the_full_monoid_exceeds_the_cap(tmp_path, capsys):
    path = tmp_path / "perm.fpm"
    path.write_text(serialize(perm_monitor(5, True)))
    assert run(["empty", str(path), "--monoid-cap", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "empty"


# -- the emptiness certificate

S, T = 0b001, 0b010  # {s} and {t} of CHAIN


def test_the_certificate_accepts_a_topological_numbering():
    _certify_numbering(CHAIN, [S, T], {T: 0, S: 1})


@pytest.mark.parametrize("seeds, number, message", [
    ([S, T], {T: 1, S: 0}, "fails at safe step {s} -b-> {t}"),  # not descending
    ([S, T], {T: 0, S: 0}, "fails at safe step {s} -b-> {t}"),  # not strictly
    ([S], {S: 1}, "fails at safe step {s} -b-> {t}"),  # lands off the numbering
    ([S, T], {T: 0}, "leaves {s} unnumbered"),  # a seed is missing
])
def test_a_corrupted_numbering_is_refused(seeds, number, message):
    with pytest.raises(CertificationError) as err:
        _certify_numbering(CHAIN, seeds, number)
    assert str(err.value) == f"emptiness certificate of 'chain' {message}"


def test_an_empty_answer_returns_only_after_its_certificate(monkeypatch):
    from probuchi import decide

    monkeypatch.setattr(decide, "tarjan_sccs", lambda nodes, adj: [[S], [T]])
    with pytest.raises(CertificationError) as err:
        fpm_positive_empty(CHAIN)
    assert str(err.value) == "emptiness certificate of 'chain' fails at safe step {s} -b-> {t}"


def test_a_cycle_without_a_monoid_witness_is_refused(monkeypatch):
    from probuchi import decide

    monkeypatch.setattr(decide, "tarjan_sccs", lambda nodes, adj: [[S, T]])
    with pytest.raises(CertificationError) as err:
        fpm_positive_empty(CHAIN)
    assert str(err.value) == (
        "the safe-step graph of 'chain' has a cycle, but no transition monoid "
        "element keeps a reachable state's closure live"
    )
