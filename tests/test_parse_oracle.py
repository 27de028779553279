"""The one-pass parser against the parser it replaced, kept as ``ref_parse``.

``textio.parse`` splits each line once with ``str.split()``, reads each
distinct probability token once, and finds token columns only for the line
an error is reported on.  ``ref_parse`` is the parser before that change:
every line tokenized by a regular expression with its columns, every
probability read afresh.  It shares no code with ``textio``; only the
automaton model comes from ``core``.
"""

import random
import re
import sys
from fractions import Fraction

from probuchi import (
    complement_to_fpm,
    dra_to_hpba,
    fpm_product,
    hpba_to_nba,
)
from probuchi.construct import GENERATORS, almost_sure_union, generate_example
from probuchi.core import (
    Automaton,
    BUCHI_ROLES,
    BuchiAcceptance,
    PROBABILISTIC_ROLES,
    RABIN_ROLES,
    RabinAcceptance,
    RankFunction,
    ROLES,
)
from probuchi.textio import _TOKEN_RE, FormatError, parse, serialize

from conftest import random_dra, random_fpm, random_hpba, random_nba, random_pba, random_pra
from test_textio import _mutant_sources, _mutate, _outcome

F = Fraction

_REF_TOKEN_RE = re.compile(r"\S+")
_REF_COMMENT_RE = re.compile(r"(?<![^ \t])#")
_REF_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_REF_CLIP_WIDTH = 40


def _ref_clip(tok):
    long = isinstance(tok, str) and len(tok) > _REF_CLIP_WIDTH
    return repr(tok[:_REF_CLIP_WIDTH]) + "..." if long else repr(tok)


def _ref_separator(symbols):
    return "" if all(len(s) == 1 for s in symbols) else ","


def _ref_int(digits, text, what):
    try:
        return int(digits)
    except ValueError:
        raise ValueError(
            f"{what} {_ref_clip(text)} has an integer longer than Python's "
            f"{sys.get_int_max_str_digits():,}-digit limit"
        ) from None


def _ref_integer(text):
    if re.fullmatch(r"[0-9]+", text) is None:
        raise ValueError(f"bad integer {_ref_clip(text)}")
    return _ref_int(text, text, "integer")


def _ref_rational(text, what):
    m = _REF_RATIONAL_RE.fullmatch(text)
    if m is None and "." in text:
        raise ValueError(f"float {what} {_ref_clip(text)} is forbidden; use p/q")
    if m is None:
        raise ValueError(f"bad {what} {_ref_clip(text)}")
    return Fraction(_ref_int(m[1], text, what), _ref_int(m[2] or "1", text, what))


def _ref_tokens(line):
    line = _REF_COMMENT_RE.split(line, 1)[0]
    return [(m.group(), m.start() + 1) for m in _REF_TOKEN_RE.finditer(line)]


def _ref_role(key, rest, line_no, col):
    if len(rest) != 1 or rest[0][0] not in ROLES:
        raise FormatError("type must be one of pba|fpm|hpba|nba|dra|pra", line_no, col)
    return rest[0][0]


def _ref_alphabet(key, rest, line_no, col):
    symbols = _ref_some_names(key, rest, line_no, col)
    separators = ";" + _ref_separator(symbols)
    for sym, sym_col in rest:
        for ch in separators:
            if ch in sym:
                raise FormatError(f"symbol {_ref_clip(sym)} contains {ch!r}, a separator in "
                                  f"lassos over this alphabet", line_no, sym_col)
    return symbols


def _ref_one_state(key, rest, line_no, col):
    if len(rest) != 1:
        raise FormatError(f"{key} takes one state", line_no, col)
    return rest[0][0]


def _ref_names(key, rest, line_no, col):
    return tuple(t for t, _ in rest)


def _ref_some_names(key, rest, line_no, col):
    if not rest:
        raise FormatError(f"{key} must not be empty", line_no, col)
    return _ref_names(key, rest, line_no, col)


def _ref_pair(key, rest, line_no, col):
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
    return ((groups[0], groups[1]),)


def _ref_ranks(key, rest, line_no, col):
    ranks = {}
    for tok, col in rest:
        if "=" not in tok:
            raise FormatError(f"rank entry {_ref_clip(tok)} needs q=level", line_no, col)
        q, _, level = tok.partition("=")
        try:
            ranks[q] = _ref_integer(level)
        except ValueError:
            raise FormatError(f"bad level in {_ref_clip(tok)}", line_no, col) from None
    return ranks


_REF_HEADER_KEYS = {
    "type": (_ref_role, (), "", ROLES, ""),
    "alphabet": (_ref_alphabet, ROLES, "missing 'alphabet' line", ROLES, ""),
    "states": (_ref_some_names, ROLES, "missing 'states' line", ROLES, ""),
    "init": (_ref_one_state, ROLES, "missing 'init' line", ROLES, ""),
    "final": (_ref_names, BUCHI_ROLES, "missing 'final:' line for a Buchi role",
              BUCHI_ROLES, "'final:' is only valid for Buchi roles"),
    "pair": (_ref_pair, (), "", RABIN_ROLES, "'pair:' is only valid for Rabin roles"),
    "ranks": (_ref_ranks, (), "", {"hpba"}, "'ranks:' is only valid for hpba"),
    "reject": (_ref_one_state, {"fpm"}, "missing 'reject:' line for an fpm",
               {"fpm"}, "'reject:' is only valid for fpm"),
}


def ref_parse(text, name="automaton"):
    header = {}
    transitions = {}
    seen_edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _ref_tokens(raw)
        if not toks:
            continue
        head, head_col = toks[0]
        role = header.get("type")
        if role is None and head != "type:":
            raise FormatError("first line must be 'type: <role>'", line_no, head_col)
        if head.endswith(":"):
            key = head[:-1]
            if key in header and key != "pair":
                raise FormatError(f"duplicate key {key!r}", line_no, head_col)
            if key not in _REF_HEADER_KEYS:
                raise FormatError(f"unknown key {_ref_clip(key)}", line_no, head_col)
            value = _REF_HEADER_KEYS[key][0](key, toks[1:], line_no, head_col)
            header[key] = header.get(key, ()) + value if key == "pair" else value
            continue
        if len(toks) not in (3, 5):
            raise FormatError("transition must be \"q -sym-> q'\" or \"q -sym-> q' : p\"",
                              line_no, head_col)
        src = toks[0][0]
        arrow, arrow_col = toks[1]
        dst = toks[2][0]
        if not (arrow.startswith("-") and arrow.endswith("->") and len(arrow) > 3):
            raise FormatError(f"bad transition arrow {_ref_clip(arrow)}", line_no, arrow_col)
        sym = arrow[1:-2]
        probabilistic_role = role in PROBABILISTIC_ROLES
        if (src, sym, dst) in seen_edges:
            edge = " ".join(t if len(t) <= _REF_CLIP_WIDTH else _ref_clip(t)
                            for t in (src, arrow, dst))
            raise FormatError(f"duplicate transition {edge}", line_no, head_col)
        seen_edges.add((src, sym, dst))
        if len(toks) == 5:
            colon, colon_col = toks[3]
            if colon != ":":
                raise FormatError("expected ':' before probability", line_no, colon_col)
            if not probabilistic_role:
                raise FormatError(f"role {role} takes unweighted transitions", line_no, colon_col)
            try:
                p = _ref_rational(toks[4][0], "probability")
            except ValueError as exc:
                raise FormatError(str(exc), line_no, toks[4][1]) from None
            transitions.setdefault((src, sym), []).append((dst, p))
        else:
            if probabilistic_role:
                raise FormatError(f"role {role} needs ': p' on every transition",
                                  line_no, head_col)
            transitions.setdefault((src, sym), []).append(dst)

    role = header.get("type")
    if role is None:
        raise FormatError("empty input; first line must be 'type: <role>'", 1)
    for key, (_, needed_by, missing, _, _) in _REF_HEADER_KEYS.items():
        if role in needed_by and key not in header:
            raise FormatError(missing, 1)
    for key, (_, _, _, allowed_in, misplaced) in reversed(_REF_HEADER_KEYS.items()):
        if role not in allowed_in and key in header:
            raise FormatError(misplaced, 1)

    acceptance = (BuchiAcceptance(frozenset(header["final"])) if role in BUCHI_ROLES
                  else RabinAcceptance(header.get("pair", ())))
    ranks = header.get("ranks")
    rk = None if ranks is None else RankFunction(ranks, max(ranks.values(), default=0))
    rows = {k: tuple(v) for k, v in transitions.items()}
    return Automaton(name=name, role=role, alphabet=header["alphabet"],
                     states=header["states"], initial=header["init"],
                     acceptance=acceptance, transitions=rows,
                     reject=header.get("reject"), ranks=rk)


# ---------------------------------------------------------------------------


def test_str_split_and_the_token_regex_agree_on_every_code_point():
    # parse splits lines with str.split() and reports columns from
    # _TOKEN_RE's matches, so the two must cut a line at the same code
    # points on every Python the package supports.
    def cuts(split):
        return {c for c in range(sys.maxunicode + 1) if len(split("a" + chr(c) + "b")) == 2}

    by_split = cuts(str.split)
    assert by_split == cuts(_TOKEN_RE.findall)
    # Vacuity guard: ASCII, Latin-1 and wider whitespace are all cut.
    assert {0x09, 0x20, 0x1F, 0xA0, 0x1680, 0x2003, 0x202F, 0x3000} <= by_split
    assert not {ord("#"), ord(":"), ord("{"), 0x200B} & by_split


def _fixtures():
    """Every generator's automaton and constructions over them, with the
    conftest's random automata of every role."""
    gens = [generate_example(name) for name, (_, arity) in GENERATORS.items() if arity == 0]
    gens += [generate_example("succinct", n) for n in ("1", "2", "5", "40")]
    gens += [generate_example("p3", lam) for lam in ("1/4", "1/3", "2/5", "7/8")]
    m_id, swapped = generate_example("m_id"), generate_example("m_id_swapped")
    gens += [complement_to_fpm(m_id), hpba_to_nba(m_id), fpm_product(m_id, m_id),
             almost_sure_union(m_id, swapped), hpba_to_nba(generate_example("succinct", "5"))]
    rng = random.Random(35)
    for _ in range(8):
        gens += [random_pba(rng, rng.randint(1, 4)), random_fpm(rng, rng.randint(2, 4)),
                 random_nba(rng, rng.randint(1, 4)), random_pra(rng, 3, 2),
                 random_dra(rng, 3, 2), random_hpba(rng, rng.randint(1, 4))]
        gens.append(dra_to_hpba(random_dra(rng, 2, 1)))
    return gens


def test_parse_matches_the_reference_on_gen_round_trips():
    roles = set()
    for aut in _fixtures():
        text = serialize(aut)
        new, ref = parse(text, name="x"), ref_parse(text, name="x")
        assert new == ref == aut
        assert new.name == ref.name
        assert list(new.transitions.items()) == list(ref.transitions.items())
        roles.add(aut.role)
    assert roles == set(ROLES)


# Code points str.split() cuts at, for the corruptions below.
_SPACES = [" ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"]


def _respace(rng, text):
    """``text`` with some blanks replaced by other whitespace and some
    comment marks and probabilities repeated or spliced in."""
    out = []
    for ch in text:
        if ch == " " and rng.random() < 0.2:
            ch = "".join(rng.choice(_SPACES) for _ in range(rng.randint(1, 3)))
        elif ch == "\n" and rng.random() < 0.05:
            ch = rng.choice([" #", "#", "\t# c", " : 1/2", " 1/0", "\xa0#"]) + ch
        out.append(ch)
    return "".join(out)


def test_parse_matches_the_reference_on_corrupted_lines():
    rng = random.Random(3535)
    sources = _mutant_sources(rng)
    parsed = 0
    columns, messages = set(), set()
    for _ in range(6_000):
        text = _mutate(rng, next(sources))
        if rng.random() < 0.5:
            text = _respace(rng, text)
        ref, new = _outcome(ref_parse, text), _outcome(parse, text)
        # The type, message, line and column of an error, or the automaton
        # and its name.
        assert new == ref, (text, ref, new)
        if new[0] == "parsed":
            parsed += 1
            assert list(new[1].transitions.items()) == list(ref[1].transitions.items())
        else:
            assert new[1] is FormatError, (text, new)
            columns.add(new[4])
            messages.add(re.sub(r"'[^']*'|\S*[0-9]\S*", "_", new[2].split(": ", 1)[1]))
    # Vacuity guard: both outcomes are common, errors name varied columns
    # and kinds.
    assert parsed >= 500, parsed
    assert 6_000 - parsed >= 1_500
    assert len(columns) >= 10, sorted(columns)
    assert len(messages) >= 20, sorted(messages)


def test_a_repeated_probability_token_is_one_fraction():
    text = ("type: pba\nalphabet: a b\nstates: s t\ninit: s\nfinal: s\n"
            "s -a-> s : 1/2\ns -a-> t : 1/2\ns -b-> t : 1\nt -a-> t : 1\nt -b-> t : 1\n")
    aut = parse(text)
    assert aut == ref_parse(text)
    (_, half), (_, other) = aut.transitions[("s", "a")]
    assert half is other and half == F(1, 2)


def test_errors_past_a_comment_cut_and_wide_blanks_keep_their_columns():
    head = "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\n"
    for line, column in [
        ("s\xa0-a->\u3000s : 0.5", 12),
        ("s -a-> s\t: 1/0 # note", 12),
        ("s\x1f-b s : 1", 3),
        ("s -a-> s # : 1/2", 1),
        ("s -a-> s#x : 1/2 extra", 1),
        ("s -a-> s ; 1/2", 10),
    ]:
        text = head + line + "\n"
        ref = _outcome(ref_parse, text)
        assert _outcome(parse, text) == ref
        assert ref[0] == "error" and (ref[3], ref[4]) == (6, column), (line, ref)
    assert isinstance(_outcome(parse, head + "s -a-> s : 1 #x\n")[1], Automaton)

