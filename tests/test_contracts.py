"""Exact messages of the input contracts: every validation rule, the core
model's own input errors, the constructions' refusals and the role and
argument errors of the public engine entry points."""

from dataclasses import replace
from fractions import Fraction

import pytest

from probuchi import (
    Automaton,
    AutomatonError,
    BuchiAcceptance,
    ConstructionError,
    LassoWord,
    RabinAcceptance,
    RankFunction,
    RationalMatrix,
    UnknownSymbolError,
    almost_sure_intersection,
    almost_sure_union,
    binary_value_lasso,
    complement_to_fpm,
    dra_to_hpba,
    final_passage_matrix,
    fpm_product,
    gen_m_id,
    gen_p3,
    generate_example,
    infer_hierarchy,
    lasso_acceptance,
    post,
    rabin_decomposition,
    reject_pba,
    rename_states,
    validate,
    word_matrix,
)
from probuchi.construct import FRESH_INITIAL, FRESH_REJECT
from probuchi.core import ranking_violations
from probuchi.decide import (
    AsymptoticWitness,
    SubsetWitness,
    acceptance_lower_bound,
    containment_refute,
    fpm_positive_empty,
    fpm_positive_universal,
    nba_complement,
    nba_emptiness,
    nba_lasso_member,
    nba_universality,
    pba_positive_nonempty_bounded,
    verify_subset_witness,
)
from probuchi.sim import MonitorSession, mc_lasso_estimate

F = Fraction

# One valid machine per shape the rules below break.
PBA = Automaton(
    name="pba", role="pba", alphabet=("a",), states=("s",), initial="s",
    acceptance=BuchiAcceptance(frozenset({"s"})),
    transitions={("s", "a"): (("s", F(1)),)},
)
NBA = Automaton(
    name="nba", role="nba", alphabet=("a",), states=("s",), initial="s",
    acceptance=BuchiAcceptance(frozenset({"s"})), transitions={("s", "a"): ("s",)},
)
DRA = Automaton(
    name="dra", role="dra", alphabet=("a", "b"), states=("qb", "qa"), initial="qb",
    acceptance=RabinAcceptance(((frozenset(), frozenset({"qa"})),)),
    transitions={("qa", "a"): ("qa",), ("qa", "b"): ("qb",),
                 ("qb", "a"): ("qa",), ("qb", "b"): ("qb",)},
)
HPBA = Automaton(
    name="hpba", role="hpba", alphabet=("a",), states=("q0", "q1"), initial="q0",
    acceptance=BuchiAcceptance(frozenset({"q1"})),
    transitions={("q0", "a"): (("q0", F(1, 2)), ("q1", F(1, 2))),
                 ("q1", "a"): (("q1", F(1)),)},
    ranks=RankFunction({"q0": 0, "q1": 1}, 1),
)
FPM = gen_m_id()  # states q0 q1 qr, alphabet 0 1, reject qr


def _with(aut, key, row):
    """``aut`` with the row of ``key``, a (state, symbol) pair, set to
    ``row``, or deleted if ``row`` is None."""
    transitions = {k: r for k, r in aut.transitions.items() if k != key}
    if row is not None:
        transitions[key] = row
    return replace(aut, transitions=transitions)


def test_base_machines_are_valid():
    for aut in (PBA, NBA, DRA, HPBA, FPM):
        assert validate(aut).ok, aut.name


MIXING = Automaton(
    name="mixing", role="hpba", alphabet=("a",), states=("s", "t"), initial="s",
    acceptance=BuchiAcceptance(frozenset({"t"})),
    transitions={("s", "a"): (("s", F(1, 2)), ("t", F(1, 2))),
                 ("t", "a"): (("s", F(1, 2)), ("t", F(1, 2)))},
)

VIOLATIONS = {
    "duplicate-states": (replace(PBA, states=("s", "s")),
                         ("duplicate state declarations",)),
    "duplicate-symbols": (replace(PBA, alphabet=("a", "a")),
                          ("duplicate symbol declarations",)),
    "empty-alphabet": (replace(PBA, alphabet=(), transitions={}), ("empty alphabet",)),
    "undeclared-initial": (replace(PBA, initial="t"), ("initial state t not declared",)),
    "from-undeclared-state": (_with(PBA, ("t", "a"), (("s", F(1)),)),
                              ("transition from undeclared state t",)),
    "on-undeclared-symbol": (_with(PBA, ("s", "b"), (("s", F(1)),)),
                             ("transition on undeclared symbol b at (s,b)",)),
    "dra-two-successors": (_with(DRA, ("qa", "a"), ("qa", "qb")),
                           ("2 successors at (qa,a); deterministic automata need exactly one",)),
    "dra-no-successor": (_with(DRA, ("qb", "b"), None),
                         ("0 successors at (qb,b); deterministic automata need exactly one",)),
    "buchi-role-with-rabin": (replace(PBA, acceptance=DRA.acceptance),
                              ("role pba requires Buchi acceptance",)),
    "rabin-role-with-buchi": (replace(DRA, acceptance=NBA.acceptance),
                              ("role dra requires Rabin acceptance",)),
    "undeclared-final": (replace(PBA, acceptance=BuchiAcceptance(frozenset({"s", "t"}))),
                         ("undeclared final state t",)),
    "undeclared-pair-state": (
        replace(DRA, acceptance=RabinAcceptance(((frozenset({"x"}), frozenset({"qa"})),))),
        ("undeclared state x in pair 1",)),
    "fpm-without-reject": (replace(FPM, reject=None), ("fpm requires a reject state",)),
    "fpm-undeclared-reject": (replace(FPM, reject="zz"), (
        "reject state zz not declared",
        "fpm acceptance must be all states except reject",
        "reject not absorbing at (zz,0)",
        "reject not absorbing at (zz,1)",
    )),
    "fpm-finals": (replace(FPM, acceptance=BuchiAcceptance(frozenset({"q0"}))),
                   ("fpm acceptance must be all states except reject",)),
    "fpm-reject-leaks": (_with(FPM, ("qr", "0"), (("q0", F(1)),)),
                         ("reject not absorbing at (qr,0)",)),
    "reject-off-fpm": (replace(PBA, reject="s"),
                       ("reject state is only meaningful for the fpm role",)),
    "missing-rank": (replace(HPBA, ranks=RankFunction({"q0": 0}, 1)),
                     ("no rank for state q1", "ranking violated at (q0,a)")),
    "rank-of-undeclared-state": (
        replace(HPBA, ranks=RankFunction({"q0": 0, "q1": 1, "zz": 2}, 2)),
        ("rank entry for undeclared state zz",)),
    "rank-decreases": (replace(HPBA, ranks=RankFunction({"q0": 1, "q1": 0}, 1)),
                       ("ranking violated at (q0,a)",)),
    "two-successors-on-one-level": (replace(HPBA, ranks=RankFunction({"q0": 0, "q1": 0}, 0)),
                                    ("ranking violated at (q0,a)",)),
    "no-compatible-ranking": (MIXING, ("no compatible ranking function exists",)),
    "ranks-off-hpba": (replace(PBA, ranks=RankFunction({"s": 0}, 0)),
                       ("ranks are only meaningful for the hpba role",)),
}


@pytest.mark.parametrize("case", VIOLATIONS)
def test_validate_reports_each_rule_exactly(case):
    aut, expected = VIOLATIONS[case]
    assert validate(aut).violations == expected


@pytest.mark.parametrize("levels, violations", [
    ({"q0": 0, "q1": 1}, []),
    ({"q0": 0}, [("q0", "a")]),  # a successor without a level
    ({"q0": 1, "q1": 0}, [("q0", "a")]),  # a successor on a lower level
    ({"q0": 0, "q1": 0}, [("q0", "a")]),  # two successors on the source's level
])
def test_ranking_violations_names_each_broken_pair(levels, violations):
    assert ranking_violations(HPBA, RankFunction(levels, 1)) == violations


CORE_ERRORS = {
    "unknown-role": (lambda: replace(PBA, role="mdp"), ValueError, "unknown role 'mdp'"),
    "duplicate-target": (
        lambda: _with(PBA, ("s", "a"), (("s", F(1, 2)), ("s", F(1, 2)))),
        ValueError, "duplicate target 's' in row ('s', 'a')"),
    "final-states-of-rabin": (lambda: DRA.final_states, AutomatonError,
                              "automaton does not use Buchi acceptance"),
    "rabin-pairs-of-buchi": (lambda: PBA.rabin_pairs, AutomatonError,
                             "automaton does not use Rabin acceptance"),
    "empty-cycle": (lambda: LassoWord(("a",), ()), ValueError, "lasso cycle must be nonempty"),
    "unrolled-zero": (lambda: LassoWord((), ("a",)).unrolled(0), ValueError,
                      "times must be >= 1"),
    "infer-hierarchy-of-nba": (lambda: infer_hierarchy(NBA), AutomatonError,
                               "hierarchy inference needs a probabilistic automaton"),
    "post-from-unknown-state": (lambda: post(PBA, "t", "a"), AutomatonError,
                                "unknown state 't'"),
    "post-unknown-symbol": (lambda: post(PBA, "s", "ab"), AutomatonError,
                            "unknown symbol 'b' at position 1"),
}


@pytest.mark.parametrize("case", CORE_ERRORS)
def test_core_input_errors(case):
    call, kind, message = CORE_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert str(err.value) == message


def test_fresh_state_names_are_never_silently_repaired():
    taken = rename_states(PBA, {"s": FRESH_REJECT})
    with pytest.raises(ConstructionError) as err:
        complement_to_fpm(taken)
    assert str(err.value) == f"fresh state name {FRESH_REJECT!r} collides with input"
    left = rename_states(PBA, {"s": FRESH_INITIAL})
    with pytest.raises(ConstructionError) as err:
        almost_sure_intersection(left, PBA)
    assert str(err.value) == f"fresh state name {FRESH_INITIAL!r} collides with input"


@pytest.mark.parametrize("aut", [NBA, DRA, HPBA, FPM], ids=lambda a: a.name)
def test_rename_states_keeps_every_field(aut):
    renamed = rename_states(aut, suffix="'")
    assert renamed.states == tuple(q + "'" for q in aut.states)
    assert renamed.initial == aut.initial + "'"
    assert validate(renamed).ok
    assert rename_states(renamed, {q + "'": q for q in aut.states}) == aut


def test_rename_states_maps_rows_acceptance_and_ranks():
    dra = rename_states(DRA, {"qb": "B", "qa": "A"})
    assert dra.transitions == {("A", "a"): ("A",), ("A", "b"): ("B",),
                               ("B", "a"): ("A",), ("B", "b"): ("B",)}
    assert dra.rabin_pairs == ((frozenset(), frozenset({"A"})),)
    hpba = rename_states(HPBA, {"q0": "x", "q1": "y"})
    assert hpba.ranks == RankFunction({"x": 0, "y": 1}, 1)
    assert hpba.prob_row("x", "a") == (("x", F(1, 2)), ("y", F(1, 2)))


def test_rename_states_must_be_injective():
    with pytest.raises(ConstructionError) as err:
        rename_states(FPM, {"q0": "x", "q1": "x", "qr": "r"})
    assert str(err.value) == "state renaming is not injective"


def test_rename_states_names_the_first_unmapped_state():
    with pytest.raises(ConstructionError) as err:
        rename_states(FPM, {"q0": "a", "q1": "b", "zz": "c"})
    assert str(err.value) == "state renaming misses state 'qr'"


def test_rename_states_ignores_keys_that_are_not_states():
    renamed = rename_states(FPM, {"q0": "a", "q1": "b", "qr": "r", "zz": "c"})
    assert renamed.states == ("a", "b", "r")
    assert renamed == rename_states(FPM, {"q0": "a", "q1": "b", "qr": "r"})


@pytest.mark.parametrize("field, value", [
    ("acceptance", BuchiAcceptance(frozenset({"q0", "q1", "zz"}))),
    ("transitions", {**FPM.transitions, ("q1", "0"): (("zz", Fraction(1)),)}),
])
@pytest.mark.parametrize("mapping", [None, {"q0": "a", "q1": "b", "qr": "r", "zz": "c"}])
def test_rename_states_names_an_undeclared_state(field, value, mapping):
    with pytest.raises(ConstructionError) as err:
        rename_states(replace(FPM, **{field: value}), mapping, suffix="'")
    assert str(err.value) == "automaton names undeclared state 'zz'"


def test_unknown_symbol_error_clips_the_symbol_it_quotes():
    err = UnknownSymbolError("x" * 5000, 2)
    assert str(err) == f"unknown symbol {'x' * 40!r}... at position 2"
    assert err.symbol == "x" * 5000
    assert str(UnknownSymbolError(7, 0)) == "unknown symbol 7 at position 0"


PRA = replace(PBA, role="pra", acceptance=DRA.acceptance)
NO_PAIR_DRA = replace(DRA, acceptance=RabinAcceptance(()))

CONSTRUCTION_ERRORS = {
    "complement-of-nba": (lambda: complement_to_fpm(NBA),
                          "complement_to_fpm needs a probabilistic automaton"),
    "complement-of-pra": (lambda: complement_to_fpm(PRA),
                          "complement_to_fpm needs Buchi acceptance"),
    "reject-pba-of-pba": (lambda: reject_pba(PBA), "reject_pba needs an fpm"),
    "product-of-pba": (lambda: fpm_product(PBA, FPM), "fpm_product needs fpm inputs"),
    "product-alphabets": (lambda: fpm_product(FPM, complement_to_fpm(PBA)),
                          "fpm_product needs a shared alphabet"),
    "union-alphabets": (lambda: almost_sure_union(PBA, FPM),
                        "almost_sure_union needs a shared alphabet"),
    "intersection-alphabets": (lambda: almost_sure_intersection(PBA, FPM),
                               "almost_sure_intersection needs a shared alphabet"),
    "dra-to-hpba-of-nba": (lambda: dra_to_hpba(NBA), "dra_to_hpba needs a dra"),
    "dra-to-hpba-without-pairs": (lambda: dra_to_hpba(NO_PAIR_DRA),
                                  "dra_to_hpba needs at least one Rabin pair"),
    "decompose-pba": (lambda: rabin_decomposition(PBA), "rabin_decomposition needs a pra"),
    "p3-at-0": (lambda: gen_p3(F(0)), "p3 generator needs a rational in (0,1)"),
    "p3-at-1": (lambda: gen_p3(F(1)), "p3 generator needs a rational in (0,1)"),
}


@pytest.mark.parametrize("case", CONSTRUCTION_ERRORS)
def test_constructions_refuse_wrong_roles_and_alphabets(case):
    call, message = CONSTRUCTION_ERRORS[case]
    with pytest.raises(AutomatonError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("name, params, message", [
    ("m_id", ("3",), "generator m_id takes 0 parameter(s)"),
    ("succinct", (), "generator succinct takes 1 parameter(s)"),
    ("p3", ("1/4", "1/2"), "generator p3 takes 1 parameter(s)"),
])
def test_generate_example_checks_its_arity(name, params, message):
    with pytest.raises(AutomatonError) as err:
        generate_example(name, *params)
    assert str(err.value) == message


A = LassoWord((), ("a",))
# An NBA that is both of the wrong role and invalid: the role error comes first.
GHOST_NBA = _with(NBA, ("s", "a"), ("ghost",))
ZERO_WITNESS = AsymptoticWitness(frozenset(), ("a",), (("a",),))

ENTRY_POINT_ERRORS = {
    # decide
    "nba_lasso_member": (lambda: nba_lasso_member(PBA, A),
                         "lasso membership needs a nondeterministic automaton"),
    "nba_emptiness": (lambda: nba_emptiness(PBA), "emptiness needs an nba"),
    "nba_complement": (lambda: nba_complement(PBA), "complementation needs an nba"),
    "nba_universality": (lambda: nba_universality(PBA), "universality needs an nba"),
    "fpm_positive_empty": (lambda: fpm_positive_empty(PBA),
                           "fpm_positive_empty needs an fpm"),
    "fpm_positive_universal": (lambda: fpm_positive_universal(NBA),
                               "fpm_positive_universal needs an fpm"),
    "verify_subset_witness": (
        lambda: verify_subset_witness(PBA, SubsetWitness(frozenset({"s"}), ("a",), ("a",))),
        "verify_subset_witness needs an fpm"),
    "bounded-witness-role": (lambda: pba_positive_nonempty_bounded(NBA, 1, 1),
                             "bounded witness search needs a probabilistic Buchi automaton"),
    "bounded-witness-bounds": (lambda: pba_positive_nonempty_bounded(PBA, 0, 1),
                               "bounds must be at least 1"),
    "lower-bound-witness": (lambda: acceptance_lower_bound(PBA, ZERO_WITNESS),
                            "invalid asymptotic witness"),
    "contain-semantics": (lambda: containment_refute(PBA, PBA, "surely", 1),
                          "semantics must be positive or almost-sure"),
    "contain-alphabet": (lambda: containment_refute(PBA, FPM, "positive", 1),
                         "containment needs a shared alphabet"),
    "contain-invalid-nba": (lambda: containment_refute(GHOST_NBA, PBA, "positive", 1),
                            "lasso acceptance needs a probabilistic automaton"),
    # markov
    "word_matrix": (lambda: word_matrix(NBA, "a"),
                    "word matrices need a probabilistic automaton"),
    "final_passage-role": (lambda: final_passage_matrix(NBA, "a"),
                           "final-passage matrices need a probabilistic automaton"),
    "final_passage-empty-word": (lambda: final_passage_matrix(PBA, ""),
                                 "final-passage matrices need a nonempty word"),
    "lasso_acceptance": (lambda: lasso_acceptance(NBA, A),
                         "lasso acceptance needs a probabilistic automaton"),
    "binary_value_lasso": (lambda: binary_value_lasso(LassoWord(("1",), ("2",))),
                           "non-binary symbol '2'"),
    "matrix-unknown-state": (lambda: RationalMatrix(("s",), ((F(1),),)).row_sum("t", ()),
                             "unknown state 't'"),
    # sim
    "mc-samples": (lambda: mc_lasso_estimate(PBA, A, 0, 0), "sample count must be at least 1"),
    "mc-role": (lambda: mc_lasso_estimate(NBA, A, 1, 0),
                "simulation needs a probabilistic automaton"),
    "mc-invalid-nba": (lambda: mc_lasso_estimate(GHOST_NBA, A, 1, 0),
                       "simulation needs a probabilistic automaton"),
    "monitor-role": (lambda: MonitorSession(PBA), "monitoring needs an fpm"),
}


@pytest.mark.parametrize("case", ENTRY_POINT_ERRORS)
def test_entry_points_refuse_wrong_roles_and_arguments(case):
    call, message = ENTRY_POINT_ERRORS[case]
    with pytest.raises(AutomatonError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: RationalMatrix(("s",), ((F(1), F(0)),)), "matrix shape does not match state count"),
], ids=["matrix-shape"])
def test_exact_values_refuse_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
