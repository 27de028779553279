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
    assert str(w) == ";10"


def test_parse_lasso_multi_char_alphabet():
    w = parse_lasso("req;req,ack", ("req", "ack"))
    assert w.stem == ("req",) and w.cycle == ("req", "ack")
    assert str(w) == "req;req,ack"


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
    assert str(w) == "ab;b"
    assert format_lasso(w, alphabet) == "a,b;b"
    assert parse_lasso(format_lasso(w, alphabet), alphabet) == w


@pytest.mark.parametrize("alphabet, symbol, column", [
    ("a,b c", "a,b", 11),  # ";a,b" would read back as a, b
    ("; a", ";", 11),  # ";;a" would read back as (;a)^omega
    ("a b;", "b;", 13),
    ("ab ,", ",", 14),
])
def test_symbols_must_not_contain_a_lasso_separator(alphabet, symbol, column):
    text = f"type: nba\nalphabet: {alphabet}\nstates: s\ninit: s\nfinal: s\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (2, column)
    assert f"symbol {symbol!r} contains" in str(err.value)


def test_a_comma_symbol_is_allowed_among_one_character_symbols():
    aut = parse("type: nba\nalphabet: , a\nstates: s\ninit: s\nfinal: s\ns -,-> s\n")
    w = LassoWord((",",), (",", "a"))
    assert parse_lasso(format_lasso(w, aut.alphabet), aut.alphabet) == w


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


RANKS_LINE = "type: hpba\nalphabet: a\nstates: s\ninit: s\nfinal: s\nranks: {}\ns -a-> s : 1\n"


@pytest.mark.parametrize("entry, message", [
    ("s=" + "x" * 38, "bad level in " + repr("s=" + "x" * 38)),
    ("s=" + "x" * 5000, "bad level in " + repr("s=" + "x" * 38) + "..."),
    ("s" * 40, "rank entry " + repr("s" * 40) + " needs q=level"),
    ("s" * 5000, "rank entry " + repr("s" * 40) + "... needs q=level"),
], ids=["level-40", "level-5002", "entry-40", "entry-5000"])
def test_bad_rank_entry_quotes_at_most_40_characters(entry, message):
    with pytest.raises(FormatError) as err:
        parse(RANKS_LINE.format(entry))
    assert str(err.value) == f"line 6, column 8: {message}"


# ---------------------------------------------------------------------------
# The parser before its header keys moved into one table, kept as an oracle
# (tests/test_parse_oracle.py keeps the table-driven one as ref_parse).
# It differs from parse only on rank levels: it read them with int(), so it
# also took a sign, underscores and non-ASCII digits.

import re as _re

_REF_TOKEN_RE = _re.compile(r"\S+")
_REF_PROB_RE = _re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ref_strip_comment(line):
    if line.startswith("#"):
        return ""
    out = []
    prev = " "
    for ch in line:
        if ch == "#" and prev in (" ", "\t"):
            break
        out.append(ch)
        prev = ch
    return "".join(out)


def _ref_clip(tok, width=40):
    return repr(tok) if len(tok) <= width else repr(tok[:width]) + "..."


def _ref_parse_prob(tok, line_no, col):
    if "." in tok:
        raise FormatError(
            f"float probability {_ref_clip(tok)} is forbidden; use p/q", line_no, col
        )
    m = _REF_PROB_RE.fullmatch(tok)
    if m is None:
        raise FormatError(f"bad probability {_ref_clip(tok)}", line_no, col)
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise FormatError(f"bad probability {_ref_clip(tok)}", line_no, col) from None
    except ValueError:
        raise FormatError(
            f"probability {_ref_clip(tok)} has an integer longer than Python's "
            f"{sys.get_int_max_str_digits():,}-digit limit", line_no, col
        ) from None


def _ref_parse_pair(rest, line_no):
    text = " ".join(t for t, _ in rest)
    col = rest[0][1] if rest else 1
    groups = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "{":
            if depth:
                raise FormatError("nested '{' in pair", line_no, col)
            depth = 1
            cur = []
        elif ch == "}":
            if not depth:
                raise FormatError("unmatched '}' in pair", line_no, col)
            depth = 0
            groups.append(frozenset("".join(cur).split()))
        elif depth:
            cur.append(ch)
        elif ch.strip():
            raise FormatError("pair must be '{b1 b2 ...} {g1 g2 ...}'", line_no, col)
    if depth or len(groups) != 2:
        raise FormatError("pair must be '{b1 b2 ...} {g1 g2 ...}'", line_no, col)
    return groups[0], groups[1]


def ref_parse_untabled(text, name="automaton"):
    from probuchi.core import (
        BUCHI_ROLES, PROBABILISTIC_ROLES, ROLES, Automaton, BuchiAcceptance,
        RabinAcceptance, RankFunction,
    )

    role = None
    alphabet = states = initial = final = reject = ranks = None
    pairs = []
    transitions = {}
    seen_keys = set()
    seen_edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _ref_strip_comment(raw)
        toks = [(m.group(), m.start() + 1) for m in _REF_TOKEN_RE.finditer(line)]
        if not toks:
            continue
        head, head_col = toks[0]
        if head.endswith(":"):
            key = head[:-1]
            rest = toks[1:]
            if role is None and key != "type":
                raise FormatError("first line must be 'type: <role>'", line_no, head_col)
            if key in seen_keys and key != "pair":
                raise FormatError(f"duplicate key {key!r}", line_no, head_col)
            seen_keys.add(key)
            if key == "type":
                if len(rest) != 1 or rest[0][0] not in ROLES:
                    raise FormatError(
                        "type must be one of pba|fpm|hpba|nba|dra|pra", line_no, head_col
                    )
                role = rest[0][0]
            elif key == "alphabet":
                if not rest:
                    raise FormatError("alphabet must not be empty", line_no, head_col)
                alphabet = tuple(t for t, _ in rest)
            elif key == "states":
                if not rest:
                    raise FormatError("states must not be empty", line_no, head_col)
                states = tuple(t for t, _ in rest)
            elif key == "init":
                if len(rest) != 1:
                    raise FormatError("init takes one state", line_no, head_col)
                initial = rest[0][0]
            elif key == "final":
                final = tuple(t for t, _ in rest)
            elif key == "reject":
                if len(rest) != 1:
                    raise FormatError("reject takes one state", line_no, head_col)
                reject = rest[0][0]
            elif key == "pair":
                pairs.append(_ref_parse_pair(rest, line_no))
            elif key == "ranks":
                ranks = {}
                for tok, col in rest:
                    if "=" not in tok:
                        raise FormatError(f"rank entry {tok!r} needs q=level", line_no, col)
                    q, _, lv = tok.partition("=")
                    try:
                        ranks[q] = int(lv)
                    except ValueError:
                        raise FormatError(f"bad level in {tok!r}", line_no, col) from None
            else:
                raise FormatError(f"unknown key {key!r}", line_no, head_col)
            continue
        if role is None:
            raise FormatError("first line must be 'type: <role>'", line_no, head_col)
        if len(toks) not in (3, 5):
            raise FormatError(
                "transition must be \"q -sym-> q'\" or \"q -sym-> q' : p\"",
                line_no, head_col,
            )
        src = toks[0][0]
        arrow, arrow_col = toks[1]
        dst = toks[2][0]
        if not (arrow.startswith("-") and arrow.endswith("->") and len(arrow) > 3):
            raise FormatError(f"bad transition arrow {arrow!r}", line_no, arrow_col)
        sym = arrow[1:-2]
        probabilistic_role = role in PROBABILISTIC_ROLES
        if (src, sym, dst) in seen_edges:
            raise FormatError(f"duplicate transition {src} -{sym}-> {dst}", line_no, head_col)
        seen_edges.add((src, sym, dst))
        if len(toks) == 5:
            colon, colon_col = toks[3]
            if colon != ":":
                raise FormatError("expected ':' before probability", line_no, colon_col)
            if not probabilistic_role:
                raise FormatError(
                    f"role {role} takes unweighted transitions", line_no, colon_col
                )
            p = _ref_parse_prob(toks[4][0], line_no, toks[4][1])
            transitions.setdefault((src, sym), []).append((dst, p))
        else:
            if probabilistic_role:
                raise FormatError(
                    f"role {role} needs ': p' on every transition", line_no, head_col
                )
            transitions.setdefault((src, sym), []).append(dst)

    if role is None:
        raise FormatError("empty input; first line must be 'type: <role>'", 1)
    for key, value in (("alphabet", alphabet), ("states", states), ("init", initial)):
        if value is None:
            raise FormatError(f"missing {key!r} line", 1)
    if role in BUCHI_ROLES and final is None:
        raise FormatError("missing 'final:' line for a Buchi role", 1)
    if role == "fpm" and reject is None:
        raise FormatError("missing 'reject:' line for an fpm", 1)
    if reject is not None and role != "fpm":
        raise FormatError("'reject:' is only valid for fpm", 1)
    if ranks is not None and role != "hpba":
        raise FormatError("'ranks:' is only valid for hpba", 1)
    if pairs and role in BUCHI_ROLES:
        raise FormatError("'pair:' is only valid for Rabin roles", 1)
    if final is not None and role not in BUCHI_ROLES:
        raise FormatError("'final:' is only valid for Buchi roles", 1)

    if role in BUCHI_ROLES:
        acceptance = BuchiAcceptance(frozenset(final or ()))
    else:
        acceptance = RabinAcceptance(tuple(pairs))
    rk = None
    if ranks is not None:
        rk = RankFunction(ranks, max(ranks.values(), default=0))
    rows = {k: tuple(v) for k, v in transitions.items()}
    return Automaton(
        name=name, role=role, alphabet=alphabet, states=states, initial=initial,
        acceptance=acceptance, transitions=rows, reject=reject, ranks=rk,
    )


def _outcome(parser, text):
    try:
        aut = parser(text, name="mutant")
    except Exception as exc:  # the type is part of the outcome
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("parsed", aut, aut.name)


# Tokens and lines the mutations splice in: every role and key, comment
# marks, arrows, probabilities and rank entries good and bad, pair braces.
_MUTANT_TOKENS = [
    "type:", "pba", "fpm", "hpba", "nba", "dra", "pra", "alphabet:", "states:",
    "init:", "final:", "reject:", "pair:", "ranks:", "colour:", ":", "#", "#x",
    "q#rej", "-a->", "-b->", "->", "-->", "a", "q0", "q1", "rej", "1", "1/2",
    "3/4", "0", "-1/2", "1/0", "0.5", "1e0", "+1/2", "٣/4", "1_0", "{", "}",
    "{q0}", "{}", "{q0", "q0}", "{q0}{q1}", "q0=0", "q0=1", "q1=2", "q0=-4",
    "q1=+2", "q0=٣", "q0=1_0", "q0=x", "q0", "=1", "q0=",
]
_MUTANT_LINES = [
    "type: nba", "type: pra", "type: fpm", "type: hpba", "type:", "final:",
    "final: q0", "reject: rej", "reject:", "ranks: q0=0 q1=1", "ranks: q0=-1",
    "ranks:", "pair: {} {q0}", "pair: {q0} {q1}", "pair: {q0}", "colour: blue",
    "alphabet:", "states:", "init: q0 q1", "init:", "# comment", "q0 -a-> q0",
    "q0 -a-> q1 : 1/2", "q0 -a-> q0 : 1", "  \t ", "q0 -a-> q0 : 1 # tail",
]


def _mutant_sources(rng):
    from dataclasses import replace

    from probuchi import RankFunction
    from conftest import random_hpba

    makers = [
        lambda: random_pba(rng, rng.randint(1, 3)),
        lambda: random_fpm(rng, rng.randint(2, 3)),
        lambda: random_nba(rng, rng.randint(1, 3)),
        lambda: random_pra(rng, rng.randint(1, 3), rng.randint(1, 2)),
        lambda: random_dra(rng, rng.randint(1, 3), rng.randint(1, 2)),
        lambda: random_hpba(rng, rng.randint(1, 3)),
    ]
    while True:
        aut = rng.choice(makers)()
        if aut.role == "hpba" and rng.random() < 0.7:
            levels = {q: rng.randint(0, 2) for q in aut.states}
            aut = replace(aut, ranks=RankFunction(levels, max(levels.values())))
        yield serialize(aut)


def _mutate(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        i = rng.randrange(len(lines)) if lines else 0
        if kind == 0 and lines:
            del lines[i]
        elif kind == 1 and lines:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 2:
            lines.insert(i, rng.choice(_MUTANT_LINES))
        elif kind == 3 and lines:
            toks = lines[i].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(_MUTANT_TOKENS)
            lines[i] = " ".join(toks)
        elif kind == 4 and lines:
            toks = lines[i].split(" ")
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(_MUTANT_TOKENS))
            lines[i] = rng.choice(" \t").join(toks)
        elif kind == 5 and lines:
            line = lines[i]
            k = rng.randrange(len(line) + 1)
            lines[i] = line[:k] + rng.choice(["#", " #", "\t#", " ", "", ":"]) + line[k:]
        elif kind == 6:
            lines = "\n".join(lines)[: rng.randrange(len(text) + 1)].splitlines()
    return "\n".join(lines) + rng.choice(["\n", "", "\r\n"])


def _rank_level_change(ref, new):
    """The one intended difference: a rank level that int() reads but that is
    not ASCII digits only, rejected by parse before ref_parse_untabled stops (it
    parses, fails on a later token, or fails after the last line)."""
    m = _re.fullmatch(r"bad level in '([^']*)'", new[2].split(": ", 1)[1])
    if new[0] != "error" or m is None:
        return False
    level = m.group(1).partition("=")[2]
    try:
        int(level)
    except ValueError:
        return False
    if _re.fullmatch(r"[0-9]+", level):
        return False
    if ref[0] == "parsed":
        return True
    after_the_lines = _re.search(r": (missing '|'\w+:' is only valid for)", ref[2])
    return bool(after_the_lines) or (ref[3], ref[4]) > (new[3], new[4])


def test_parse_matches_the_reference_on_mutated_serializations():
    rng = random.Random(1515)
    sources = _mutant_sources(rng)
    parsed = level_changes = 0
    reject_kinds, messages = set(), set()
    for _ in range(20_000):
        text = _mutate(rng, next(sources))
        ref, new = _outcome(ref_parse_untabled, text), _outcome(parse, text)
        if ref != new:
            assert _rank_level_change(ref, new), (text, ref, new)
            level_changes += 1
            continue
        if new[0] == "parsed":
            parsed += 1
        else:
            assert new[1] is FormatError, (text, new)
            reject_kinds.add(_re.sub(r"'[^']*'|\S*[0-9]\S*", "_", new[2]))
            messages.add(new[2])
    # Vacuity guard: both outcomes are common and the rejects are varied.
    assert parsed >= 2_000, parsed
    assert 20_000 - parsed - level_changes >= 5_000
    assert len(reject_kinds) >= 20, sorted(reject_kinds)
    assert level_changes >= 20, level_changes
    after_the_lines = [
        "missing 'alphabet' line", "missing 'states' line", "missing 'init' line",
        "missing 'final:' line for a Buchi role", "missing 'reject:' line for an fpm",
        "'reject:' is only valid for fpm", "'ranks:' is only valid for hpba",
        "'pair:' is only valid for Rabin roles", "'final:' is only valid for Buchi roles",
    ]
    assert all(f"line 1, column 1: {m}" in messages for m in after_the_lines)


def test_comment_regex_matches_the_reference_loop():
    from probuchi.textio import _tokens

    rng = random.Random(47)
    for _ in range(30_000):
        line = "".join(rng.choice("##  \t\x0b\xa0a:") for _ in range(rng.randint(0, 12)))
        expected = [(m.group(), m.start() + 1)
                    for m in _REF_TOKEN_RE.finditer(_ref_strip_comment(line))]
        assert _tokens(line) == expected, repr(line)
