"""Acceptance suite: one test per criterion, exact tolerances, pass lines.

Every tolerance is exact rational equality unless a criterion states a
statistical margin.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the one-line verdict per criterion.
"""

import random
from fractions import Fraction

from probuchi import (
    complement_to_fpm,
    fpm_product,
    gen_m_id,
    gen_m_id_squared,
    gen_succinct,
    hpba_to_nba,
    infer_hierarchy,
    lasso,
    lasso_acceptance,
    rabin_decomposition,
    validate,
)
from probuchi.core import Automaton, BuchiAcceptance, LassoWord, all_words
from probuchi.core import ranking_violations, _scc_ranking
from probuchi.cli import run
from probuchi.decide import (
    acceptance_lower_bound,
    almost_sure_empty,
    almost_sure_universal,
    hpba_probable_empty,
    hpba_probable_universal,
    nba_lasso_member,
    pba_positive_nonempty_bounded,
    verify_asymptotic_witness,
)
from probuchi.sim import mc_lasso_estimate
from probuchi.textio import serialize

from conftest import (
    all_lassos,
    brute_force_ranking_exists,
    dra_accepts,
    random_deterministic_pra,
    random_fpm,
    random_hpba,
    random_lasso,
    random_pba,
    random_pra,
)

F = Fraction


import time


def _start() -> float:
    return time.time()


def report(n: int, text: str, t0: float) -> None:
    print(f"PASS criterion {n}: {text} [{time.time() - t0:.1f}s]")


def test_criterion_1_exact_example_values(tmp_path, capsys):
    import json

    t0 = _start()
    m_id = tmp_path / "m_id.pba"
    m_id.write_text(serialize(gen_m_id()))
    sq = tmp_path / "sq.pba"
    sq.write_text(serialize(gen_m_id_squared()))
    expected = [
        (str(m_id), ";1", "1"),
        (str(m_id), ";0", "0"),
        (str(m_id), ";10", "2/3"),
        (str(sq), ";10", "4/9"),
    ]
    for path, lw, value in expected:
        assert run(["prob", path, lw]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["probability"] == value, (lw, doc)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        report(1, "prob values 1, 0, 2/3, 4/9 exact", t0)


def test_criterion_2_product_multiplicativity(capsys):
    t0 = _start()
    rng = random.Random(20_02)
    for i in range(200):
        m1 = random_fpm(rng, rng.randint(2, 4))
        m2 = random_fpm(rng, rng.randint(2, 4))
        prod = fpm_product(m1, m2)
        for _ in range(5):
            w = random_lasso(rng, m1.alphabet, 3)
            assert lasso_acceptance(prod, w) == lasso_acceptance(
                m1, w
            ) * lasso_acceptance(m2, w)
    with capsys.disabled():
        report(2, "200 random monitor pairs x 5 lassos multiply exactly", t0)


def test_criterion_3_complementation_duality(capsys):
    t0 = _start()
    rng = random.Random(30_03)
    for i in range(200):
        b = random_pba(rng, rng.randint(1, 4))
        m = complement_to_fpm(b)
        for _ in range(5):
            w = random_lasso(rng, b.alphabet, 3)
            assert (lasso_acceptance(b, w) == 1) == (lasso_acceptance(m, w) == 0)
    with capsys.disabled():
        report(3, "200 random PBAs x 5 lassos: acceptance-1 iff monitor rejects a.s.", t0)


def test_criterion_4_hpba_nba_agreement(capsys):
    t0 = _start()
    rng = random.Random(40_04)
    lassos = [
        LassoWord(u, v)
        for u in all_words(("a", "b"), 0, 2)
        for v in all_words(("a", "b"), 1, 3)
    ]
    for i in range(100):
        h = random_hpba(rng, rng.randint(1, 6))
        assert validate(h).ok
        nba = hpba_to_nba(h)
        for w in lassos:
            assert nba_lasso_member(nba, w) == (lasso_acceptance(h, w) > 0)
    with capsys.disabled():
        report(4, "100 random HPBAs x 98 lassos: NBA membership iff acceptance > 0", t0)


def hand_built_dras() -> list[Automaton]:
    from probuchi import RabinAcceptance

    def dra(name, states, init, pairs, edges):
        return Automaton(
            name=name,
            role="dra",
            alphabet=("a", "b"),
            states=states,
            initial=init,
            acceptance=RabinAcceptance(pairs),
            transitions={(q, s): (t,) for q, s, t in edges},
        )

    inf_a = dra(
        "inf_a",
        ("qb", "qa"),
        "qb",
        ((frozenset(), frozenset({"qa"})),),
        [("qa", "a", "qa"), ("qa", "b", "qb"), ("qb", "a", "qa"), ("qb", "b", "qb")],
    )
    fin_a = dra(
        "fin_a",
        ("qb", "qa"),
        "qb",
        ((frozenset({"qa"}), frozenset({"qb"})),),
        [("qa", "a", "qa"), ("qa", "b", "qb"), ("qb", "a", "qa"), ("qb", "b", "qb")],
    )
    safety = dra(
        "a_then_b",
        ("ok", "pend", "dead"),
        "ok",
        ((frozenset({"dead"}), frozenset({"ok"})),),
        [
            ("ok", "a", "pend"), ("ok", "b", "ok"),
            ("pend", "a", "dead"), ("pend", "b", "ok"),
            ("dead", "a", "dead"), ("dead", "b", "dead"),
        ],
    )
    both_inf = dra(
        "inf_a_and_b",
        ("q0", "q1", "q2"),
        "q0",
        ((frozenset(), frozenset({"q2"})),),
        [
            ("q0", "a", "q1"), ("q0", "b", "q0"),
            ("q1", "a", "q1"), ("q1", "b", "q2"),
            ("q2", "a", "q1"), ("q2", "b", "q0"),
        ],
    )
    two_pairs = dra(
        "fin_a_or_both_inf",
        ("q0", "q1", "q2"),
        "q0",
        (
            (frozenset({"q1"}), frozenset({"q0"})),
            (frozenset(), frozenset({"q2"})),
        ),
        [
            ("q0", "a", "q1"), ("q0", "b", "q0"),
            ("q1", "a", "q1"), ("q1", "b", "q2"),
            ("q2", "a", "q1"), ("q2", "b", "q0"),
        ],
    )
    return [inf_a, fin_a, safety, both_inf, two_pairs]


def test_criterion_5_dra_round_trip(capsys):
    t0 = _start()
    from probuchi import dra_to_hpba

    lassos = list(all_lassos(("a", "b"), 3, 3))
    for d in hand_built_dras():
        assert validate(d).ok, (d.name, validate(d).violations)
        h = dra_to_hpba(d)
        k = len(d.rabin_pairs)
        # (a) hierarchical with the declared (k+1)-level ranking
        assert infer_hierarchy(h) is not None
        assert h.ranks is not None and h.ranks.k == k + 1
        assert not ranking_violations(h, h.ranks)
        # (b) agreement with direct run evaluation
        for w in lassos:
            assert dra_accepts(d, w) == (lasso_acceptance(h, w) > 0), (d.name, w)
    with capsys.disabled():
        report(5, "5 hand-built DRAs: k+1-level rankings and run-evaluation agreement", t0)


def _falsify_empty_probable(h, rng):
    for _ in range(200):
        w = random_lasso(rng, h.alphabet, 4)
        assert lasso_acceptance(h, w) == 0


def _falsify_universal_probable(h, rng):
    for _ in range(200):
        w = random_lasso(rng, h.alphabet, 4)
        assert lasso_acceptance(h, w) > 0


def _falsify_empty_almost_sure(b, rng):
    for _ in range(200):
        w = random_lasso(rng, b.alphabet, 4)
        assert lasso_acceptance(b, w) < 1


def _falsify_universal_almost_sure(b, rng):
    for _ in range(200):
        w = random_lasso(rng, b.alphabet, 4)
        assert lasso_acceptance(b, w) == 1


def test_criterion_6_decision_certificates(capsys):
    t0 = _start()
    rng = random.Random(60_06)
    named = [gen_m_id(), gen_succinct(1), gen_succinct(2)]
    instances = list(named)
    for _ in range(25):
        instances.append(random_hpba(rng, rng.randint(1, 3)))
    for _ in range(25):
        instances.append(random_pba(rng, rng.randint(1, 3)))

    for aut in instances:
        hierarchical = infer_hierarchy(aut) is not None
        if hierarchical:
            w = hpba_probable_empty(aut)
            if w is None:
                _falsify_empty_probable(aut, rng)
            else:
                assert lasso_acceptance(aut, w) > 0
            ce = hpba_probable_universal(aut)
            if ce is None:
                _falsify_universal_probable(aut, rng)
            else:
                assert lasso_acceptance(aut, ce) == 0
        w = almost_sure_empty(aut)
        if w is None:
            _falsify_empty_almost_sure(aut, rng)
        else:
            assert lasso_acceptance(aut, w) == 1
        ce = almost_sure_universal(aut)
        if ce is None:
            _falsify_universal_almost_sure(aut, rng)
        else:
            assert lasso_acceptance(aut, ce) < 1
    with capsys.disabled():
        report(6, f"{len(instances)} instances: certificates exact, answers survive falsification", t0)


def test_criterion_7_rabin_decomposition_identity(capsys):
    # A splitting member always forces mu > 0.  The converse holds for
    # words accepted with probability exactly one (the decomposition's
    # natural inputs obey a zero-one acceptance law; with mixed
    # probabilities, mass absorbed into a dead component keeps every
    # positive member below one and the converse fails).  Both directions
    # are asserted exactly where they hold: 25 deterministic PRAs exercise
    # the biconditional on all 210 lassos, 25 general PRAs on their
    # zero-one lassos, and soundness is checked everywhere.
    t0 = _start()
    rng = random.Random(70_07)
    lassos = list(all_lassos(("a", "b"), 3, 3))
    zero_one_checked = 0
    for i in range(50):
        if i % 2 == 0:
            r = random_deterministic_pra(rng, rng.randint(2, 4), rng.randint(1, 2))
        else:
            r = random_pra(rng, rng.randint(2, 4), rng.randint(1, 2))
        fam = rabin_decomposition(r)
        for w in lassos:
            mu = lasso_acceptance(r, w)
            split = any(
                lasso_acceptance(pos, w) == 1 and lasso_acceptance(neg, w) < 1
                for _, pos, neg in fam
            )
            if split:
                assert mu > 0, (i, w)
            if mu == 1 or mu == 0:
                assert (mu > 0) == split, (i, w, mu)
                zero_one_checked += 1
    assert zero_one_checked >= 25 * len(lassos)
    with capsys.disabled():
        report(7, f"50 PRAs x 210 lassos: members sound everywhere, "
            f"biconditional exact on {zero_one_checked} zero-one lassos", t0)


def test_criterion_8_bounded_search_soundness(capsys):
    t0 = _start()
    rng = random.Random(80_08)
    m = gen_m_id()
    w = pba_positive_nonempty_bounded(m, 1, 3)
    assert w is not None
    assert w.states == frozenset({"q1"}) and w.u == ("1",)
    assert verify_asymptotic_witness(m, w)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        b = random_pba(rng, rng.randint(2, 3))
        aw = pba_positive_nonempty_bounded(b, 2, 3)
        if aw is None:
            continue
        assert verify_asymptotic_witness(b, aw)
        lb = acceptance_lower_bound(b, aw)
        if lb.asymptotic:
            assert lb.value <= lasso_acceptance(b, lb.lasso)
            checked += 1
    assert checked >= 50
    with capsys.disabled():
        report(8, f"witnesses re-verify; {checked} exact-1 bounds below exact acceptance", t0)


def test_criterion_9_hierarchy_inference_vs_brute_force(capsys):
    t0 = _start()
    import itertools

    alphabet = ("a", "b")
    total = 0
    for n in (1, 2, 3):
        states = tuple(f"q{i}" for i in range(n))
        rows: list[tuple[Fraction, ...]] = []
        for i in range(n):
            vec = [F(0)] * n
            vec[i] = F(1)
            rows.append(tuple(vec))
        for i in range(n):
            for j in range(i + 1, n):
                vec = [F(0)] * n
                vec[i] = vec[j] = F(1, 2)
                rows.append(tuple(vec))
        keys = [(q, a) for q in states for a in alphabet]
        for combo in itertools.product(range(len(rows)), repeat=len(keys)):
            trans = {
                key: tuple(
                    (states[j], p) for j, p in enumerate(rows[c]) if p
                )
                for key, c in zip(keys, combo)
            }
            aut = Automaton(
                name="grid",
                role="pba",
                alphabet=alphabet,
                states=states,
                initial="q0",
                acceptance=BuchiAcceptance(frozenset({"q0"})),
                transitions=trans,
            )
            exists = not ranking_violations(aut, _scc_ranking(aut))
            assert exists == brute_force_ranking_exists(aut)
            total += 1
    with capsys.disabled():
        report(9, f"{total} grid automata: SCC inference matches brute force", t0)


def test_criterion_10_monte_carlo_consistency(capsys):
    t0 = _start()
    instances = [
        (gen_m_id(), lasso("", "10")),
        (gen_m_id(), lasso("", "1")),
        (gen_m_id(), lasso("", "0")),
        (gen_m_id(), lasso("1", "10")),
        (gen_m_id(), lasso("0", "110")),
        (gen_m_id_squared(), lasso("", "10")),
        (gen_m_id_squared(), lasso("", "110")),
        (gen_succinct(1), lasso("", "ac")),
        (gen_succinct(1), lasso("", "ab")),
        (complement_to_fpm(gen_m_id()), lasso("", "0")),
    ]
    assert len(instances) == 10
    for i, (aut, w) in enumerate(instances):
        exact = lasso_acceptance(aut, w)
        est = mc_lasso_estimate(aut, w, 10_000, seed=1000 + i)
        assert abs(est.mean - float(exact)) <= 3 * est.stderr + 1e-12, (i, est, exact)
    with capsys.disabled():
        report(10, "10 fixed-seed estimates within 3 standard errors of exact values", t0)
