"""Exact matrices, final-passage weights, and lasso acceptance."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probuchi import (
    AutomatonError,
    BuchiAcceptance,
    UnknownSymbolError,
    binary_value_lasso,
    final_passage_matrix,
    gen_m_id,
    gen_m_id_squared,
    gen_p3,
    lasso,
    lasso_acceptance,
    word_matrix,
)
from probuchi.core import Automaton, LassoWord, all_words
from probuchi.markov import solve_linear

from conftest import (random_fpm, random_lasso, random_pra, ref_entry, ref_identity, ref_matmul,
                      ref_row)

F = Fraction


def test_word_matrix_examples():
    m = gen_m_id()
    assert word_matrix(m, "") == ref_identity(m.states)
    row = ref_row(word_matrix(m, "1"), "q0")
    assert row == {"q0": F(1, 2), "q1": F(1, 2)}
    assert ref_entry(word_matrix(m, "11"), "q0", "q1") == F(3, 4)


def test_word_matrix_concatenation():
    m = gen_m_id_squared()
    rng = random.Random(3)
    for _ in range(20):
        u = tuple(rng.choice("01") for _ in range(rng.randint(0, 3)))
        w = tuple(rng.choice("01") for _ in range(rng.randint(0, 3)))
        assert word_matrix(m, u + w) == ref_matmul(word_matrix(m, u), word_matrix(m, w))


def test_final_passage_examples():
    m = gen_m_id()
    restricted = replace(m, role="pba", reject=None,
                         acceptance=BuchiAcceptance(frozenset({"q1"})))
    fp = final_passage_matrix(restricted, "1")
    assert ref_entry(fp, "q0", "q1") == F(1, 2)
    assert ref_entry(fp, "q0", "q0") == F(0)


def test_final_passage_below_word_matrix_and_final_start():
    rng = random.Random(9)
    for _ in range(25):
        aut = random_fpm(rng, rng.randint(2, 4))
        u = tuple(rng.choice(aut.alphabet) for _ in range(rng.randint(1, 3)))
        fp = final_passage_matrix(aut, u)
        wm = word_matrix(aut, u)
        for q in aut.states:
            for t in aut.states:
                assert ref_entry(fp, q, t) <= ref_entry(wm, q, t)
            if q in aut.final_states:
                assert all(
                    ref_entry(fp, q, t) == ref_entry(wm, q, t) for t in aut.states
                )


def test_final_passage_rejects_rabin_and_empty_word():
    with pytest.raises(AutomatonError):
        final_passage_matrix(random_pra(random.Random(0), 2, 1), ("a",))
    with pytest.raises(AutomatonError):
        final_passage_matrix(gen_m_id(), ())


def test_unknown_cycle_symbol_reported_at_its_word_position():
    with pytest.raises(UnknownSymbolError) as err:
        lasso_acceptance(gen_m_id(), lasso("1", "0x"))
    assert err.value.position == 2


def test_lasso_acceptance_examples():
    m = gen_m_id()
    assert lasso_acceptance(m, lasso("", "10")) == F(2, 3)
    assert lasso_acceptance(m, lasso("", "0")) == 0
    assert lasso_acceptance(m, lasso("", "1")) == 1
    assert lasso_acceptance(gen_m_id_squared(), lasso("", "10")) == F(4, 9)


def test_long_stem_on_a_leak_monitor_is_exact():
    # Keeps 1023/1024 of the mass on each 'a' and parks on 'b', so a^3000;b
    # is accepted with probability exactly (1023/1024)^3000.
    leak = Automaton(
        name="leak", role="fpm", alphabet=("a", "b"), states=("q", "r"), initial="q",
        acceptance=BuchiAcceptance(frozenset({"q"})), reject="r",
        transitions={("q", "a"): (("q", F(1023, 1024)), ("r", F(1, 1024))),
                     ("q", "b"): (("q", F(1)),),
                     ("r", "a"): (("r", F(1)),), ("r", "b"): (("r", F(1)),)},
    )
    assert lasso_acceptance(leak, LassoWord(("a",) * 3000, ("b",))) == F(1023, 1024) ** 3000


def test_unreachable_rows_do_not_widen_integer_walks():
    # The leak monitor plus a state no run reaches, whose 'a' row has a
    # 300-digit denominator: the integer walks leave that row out.
    d = 10**299 + 1
    leak = Automaton(
        name="leak", role="fpm", alphabet=("a", "b"), states=("q", "r", "u"), initial="q",
        acceptance=BuchiAcceptance(frozenset({"q", "u"})), reject="r",
        transitions={("q", "a"): (("q", F(1023, 1024)), ("r", F(1, 1024))),
                     ("q", "b"): (("q", F(1)),),
                     ("r", "a"): (("r", F(1)),), ("r", "b"): (("r", F(1)),),
                     ("u", "a"): (("u", F(d - 1, d)), ("r", F(1, d))),
                     ("u", "b"): (("u", F(1)),)},
    )
    assert leak.weights["a"][0] == 1024
    assert lasso_acceptance(leak, LassoWord(("a",) * 1000, ("b",))) == F(1023, 1024) ** 1000


def test_binary_value_examples():
    assert binary_value_lasso(lasso("", "10")) == F(2, 3)
    assert binary_value_lasso(lasso("", "1")) == 1
    assert binary_value_lasso(lasso("1", "0")) == F(1, 2)
    with pytest.raises(AutomatonError):
        binary_value_lasso(LassoWord(("2",), ("0",)))


def test_m_id_equals_binary_value_up_to_six():
    m = gen_m_id()
    for u in all_words(("0", "1"), 0, 6):
        for v in all_words(("0", "1"), 1, 6):
            w = LassoWord(u, v)
            assert lasso_acceptance(m, w) == binary_value_lasso(w)


@settings(max_examples=40, deadline=None)
@given(
    stem=st.lists(st.sampled_from("01"), max_size=3),
    cycle=st.lists(st.sampled_from("01"), min_size=1, max_size=3),
)
def test_unrolling_invariance(stem, cycle):
    w = LassoWord(tuple(stem), tuple(cycle))
    m = gen_m_id_squared()
    p = lasso_acceptance(m, w)
    assert lasso_acceptance(m, w.unrolled(2)) == p
    assert lasso_acceptance(m, w.shifted()) == p


def test_fpm_duality_with_reject_reachability():
    rng = random.Random(77)
    for _ in range(30):
        m = random_fpm(rng, rng.randint(2, 4))
        w = random_lasso(rng, m.alphabet, 3)
        accept = lasso_acceptance(m, w)
        flipped = replace(
            m,
            role="pba",
            reject=None,
            acceptance=BuchiAcceptance(frozenset({m.reject})),
        )
        assert accept == 1 - lasso_acceptance(flipped, w)


def test_rabin_lasso_acceptance():
    rng = random.Random(13)
    for _ in range(20):
        r = random_pra(rng, 3, 2)
        w = random_lasso(rng, r.alphabet, 3)
        p = lasso_acceptance(r, w)
        assert 0 <= p <= 1


def test_rabin_with_empty_bad_sets_equals_buchi():
    # pairs (empty, G_i) demand some G_i infinitely often, which is exactly
    # the Buchi condition on the union of the G_i
    from dataclasses import replace

    from probuchi import RabinAcceptance

    rng = random.Random(131)
    for _ in range(25):
        r = random_pra(rng, rng.randint(2, 4), 2)
        pairs = tuple((frozenset(), g) for _, g in r.rabin_pairs)
        rabin = replace(r, acceptance=RabinAcceptance(pairs))
        union = frozenset().union(*(g for _, g in pairs))
        buchi = replace(
            r, role="pba", acceptance=BuchiAcceptance(union)
        )
        w = random_lasso(rng, r.alphabet, 3)
        assert lasso_acceptance(rabin, w) == lasso_acceptance(buchi, w)


def test_deterministic_rabin_matches_run_oracle():
    from conftest import dra_accepts, random_deterministic_pra, random_dra

    rng = random.Random(137)
    for _ in range(20):
        det = random_deterministic_pra(rng, rng.randint(2, 4), rng.randint(1, 2))
        d = Automaton(
            name="d",
            role="dra",
            alphabet=det.alphabet,
            states=det.states,
            initial=det.initial,
            acceptance=det.acceptance,
            transitions={
                (q, a): (det.successors(q, a)[0],)
                for q in det.states
                for a in det.alphabet
            },
        )
        for _ in range(6):
            w = random_lasso(rng, det.alphabet, 3)
            mu = lasso_acceptance(det, w)
            assert mu in (0, 1)
            assert (mu == 1) == dra_accepts(d, w)


def test_p3_structure_and_acceptance():
    p3 = gen_p3(F(1, 4))
    assert p3.states == ("s0", "s1", "s2", "sr")
    assert p3.initial == "s0"
    assert p3.final_states == {"s0"}
    # Periodic words repeat a block length forever, so every lasso is
    # rejected almost surely: the machine only favors unboundedly growing
    # blocks, which is what makes its positive language lasso-free.
    for cycle in (("x",), ("x", "@"), ("x", "x", "@"), ("@",), ("x", "$", "$")):
        assert lasso_acceptance(p3, LassoWord((), cycle)) == 0


def test_solver_roundtrip():
    rng = random.Random(5)
    n = 6
    mat = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        mat[i][i] += 7
    xs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    rhs = [sum(mat[i][j] * xs[j] for j in range(n)) for i in range(n)]
    assert solve_linear(mat, rhs) == xs


def ref_solve(matrix, rhs):
    """Gauss-Jordan elimination in ``Fraction``s, pivoting on the first
    nonzero entry at or below the diagonal; StopIteration when singular."""
    n = len(rhs)
    rows = [[F(x) for x in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def test_solve_linear_swaps_rows_like_fraction_elimination():
    # A zero in the top-left corner forces a row swap in the first column;
    # sparse draws force more swaps and some singular systems.
    rng = random.Random(17)
    solved = singular = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        mat = [[F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)
                for _ in range(n)] for _ in range(n)]
        mat[0][0] = F(0)
        rhs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        try:
            expected = ref_solve(mat, rhs)
        except StopIteration:
            singular += 1
            with pytest.raises(ArithmeticError, match="^singular linear system$"):
                solve_linear(mat, rhs)
            continue
        solved += 1
        assert solve_linear(mat, rhs) == expected
    assert solved >= 200 and singular >= 50


def test_solve_linear_rejects_a_singular_system():
    with pytest.raises(ArithmeticError) as err:
        solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])
    assert str(err.value) == "singular linear system"
