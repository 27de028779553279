"""Text format: round trips, grammar errors, lasso syntax."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probuchi import (
    gen_m_id,
    gen_m_id_squared,
    gen_p3,
    gen_succinct,
    dra_to_hpba,
    hpba_to_nba,
    complement_to_fpm,
    lasso,
)
from probuchi.core import LassoWord, validate
from probuchi.textio import FormatError, format_lasso, parse, parse_lasso, serialize

from conftest import random_dra, random_fpm, random_nba, random_pba, random_pra

F = Fraction


def test_round_trip_generators():
    for aut in (
        gen_m_id(),
        gen_m_id_squared(),
        gen_succinct(2),
        gen_p3(F(1, 3)),
        complement_to_fpm(gen_m_id()),
        hpba_to_nba(gen_m_id()),
    ):
        assert parse(serialize(aut)) == aut


def test_round_trip_random_instances():
    rng = random.Random(2)
    for make in (random_pba, random_fpm, random_nba):
        for _ in range(10):
            aut = make(rng, rng.randint(2, 4))
            assert parse(serialize(aut)) == aut
    for _ in range(10):
        aut = random_pra(rng, 3, 2)
        assert parse(serialize(aut)) == aut
        d = random_dra(rng, 3, 2)
        assert parse(serialize(d)) == d


def test_round_trip_keeps_declared_ranks():
    h = dra_to_hpba(random_dra(random.Random(5), 2, 1))
    again = parse(serialize(h))
    assert again == h
    assert again.ranks is not None and again.ranks.levels == h.ranks.levels


def test_round_trip_survives_ghost_rank_entries():
    # rank entries for undeclared states are a validation violation, but
    # serialization must still round-trip them structurally
    from dataclasses import replace

    from probuchi import RankFunction, validate

    h = dra_to_hpba(random_dra(random.Random(6), 2, 1))
    levels = dict(h.ranks.levels)
    levels["ghost"] = 5
    broken = replace(h, ranks=RankFunction(levels, 5))
    assert parse(serialize(broken)) == broken
    assert any("undeclared state ghost" in v for v in validate(broken).violations)


def test_fpm_without_reject_is_parse_error():
    text = serialize(gen_m_id()).replace("reject: qr\n", "")
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "reject" in str(err.value)


def test_float_probability_rejected():
    text = serialize(gen_m_id()).replace("1/2", "0.5", 1)
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "0.5" in str(err.value) and "line" in str(err.value)


def test_unknown_key_rejected():
    text = "type: pba\ncolour: blue\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "colour" in str(err.value)


def test_type_must_come_first():
    with pytest.raises(FormatError):
        parse("alphabet: a\ntype: pba\n")


def test_error_positions():
    text = "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s : 1/0\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == 6


def test_duplicate_transition_rejected():
    text = (
        "type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\n"
        "s -a-> s\ns -a-> s\n"
    )
    with pytest.raises(FormatError):
        parse(text)


def test_comments_and_hash_suffixed_states():
    m = complement_to_fpm(gen_m_id())  # contains the fresh state qr#rej
    text = "# full-line comment\n" + serialize(m) + "  # trailing comment line\n"
    assert parse(text) == m


def test_weighted_transition_on_nondet_role_rejected():
    text = "type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s : 1\n"
    with pytest.raises(FormatError):
        parse(text)


def test_missing_weight_on_probabilistic_role_rejected():
    text = "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s\n"
    with pytest.raises(FormatError):
        parse(text)


def test_parse_lasso_single_char_alphabet():
    w = parse_lasso(";10", ("0", "1"))
    assert w == lasso("", "10")
    assert parse_lasso("1;0", ("0", "1")) == lasso("1", "0")
    assert format_lasso(w) == ";10"


def test_parse_lasso_multi_char_alphabet():
    w = parse_lasso("req;req,ack", ("req", "ack"))
    assert w.stem == ("req",) and w.cycle == ("req", "ack")
    assert format_lasso(w) == "req;req,ack"


def test_parse_lasso_errors():
    from probuchi import AutomatonError

    with pytest.raises(AutomatonError):
        parse_lasso("10", ("0", "1"))
    with pytest.raises(AutomatonError):
        parse_lasso("1;", ("0", "1"))
    with pytest.raises(AutomatonError):
        parse_lasso(";2", ("0", "1"))


def test_format_lasso_uses_the_alphabet_separator():
    # With a mixed-width alphabet the word "a,b" must keep its commas, or
    # it reads back as the single symbol "ab".
    alphabet = ("ab", "a", "b")
    w = lasso("ab", "b")
    assert format_lasso(w) == "ab;b"
    assert format_lasso(w, alphabet) == "a,b;b"
    assert parse_lasso(format_lasso(w, alphabet), alphabet) == w


_SYMBOLS = st.text(alphabet="abxyz01", min_size=1, max_size=3)


@st.composite
def _alphabet_and_lasso(draw):
    alphabet = tuple(draw(st.lists(_SYMBOLS, min_size=1, max_size=5, unique=True)))
    word = st.lists(st.sampled_from(alphabet), max_size=6)
    stem = tuple(draw(word))
    cycle = tuple(draw(word.filter(bool)))
    return alphabet, LassoWord(stem, cycle)


@settings(max_examples=300, deadline=None)
@given(_alphabet_and_lasso())
def test_format_lasso_round_trips_over_mixed_width_alphabets(case):
    alphabet, w = case
    assert parse_lasso(format_lasso(w, alphabet), alphabet) == w


PROB_LINE = "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s : {}\n"


@pytest.mark.parametrize("tok", ["1_0/20", "٣/4", "+1/2", "1/+2", "1/-2", "1e0", "1/0"])
def test_probability_needs_ascii_digits(tok):
    with pytest.raises(FormatError) as err:
        parse(PROB_LINE.format(tok))
    assert f"bad probability {tok!r}" in str(err.value)
    assert (err.value.line, err.value.column) == (6, 12)


def test_negative_numerator_parses_for_validate():
    a = parse(PROB_LINE.format("-1/2"))
    assert a.prob_row("s", "a") == (("s", F(-1, 2)),)
    assert any("out of range" in v for v in validate(a).violations)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-from-str digit limit"
)
@pytest.mark.parametrize("tok", ["9" * 4400 + "/" + "9" * 4400, "1/" + "1" * 4301])
def test_probability_past_the_digit_limit_names_it(tok):
    with pytest.raises(FormatError) as err:
        parse(PROB_LINE.format(tok))
    message = str(err.value)
    assert "4,300-digit limit" in message
    assert tok[:40] in message and len(message) < 200
