"""Line-oriented text format for automata, plus lasso parsing for the CLI.

The format is a bit-exact contract (see FORMAT.md).  A ``#`` at the start of
a line or preceded by whitespace opens a comment, which is why fresh states
generated by constructions embed their ``#rej``/``#init`` suffix mid-token.
Probabilities are written as ``p/q`` or integers; floats are rejected.
Serialization is deterministic: declaration order everywhere and reduced
fractions with positive denominators, so parse(serialize(a)) is structurally
equal to a (names are display-only and excluded from equality).

:func:`integer` and :func:`rational` read every number that comes from
outside, in files, flags, variables and generator parameters alike.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    Automaton,
    AutomatonError,
    BUCHI_ROLES,
    BuchiAcceptance,
    LassoWord,
    PROBABILISTIC_ROLES,
    RABIN_ROLES,
    RabinAcceptance,
    RankFunction,
    ROLES,
    _CLIP_WIDTH,
    _clip,
    word_separator,
)

__all__ = ["FormatError", "parse", "serialize", "parse_lasso", "format_word",
           "format_lasso", "integer", "rational"]

_TOKEN_RE = re.compile(r"\S+")
# A '#' at the start of a line or after a blank opens a comment.
_COMMENT_RE = re.compile(r"(?<![^ \t])#")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


class FormatError(AutomatonError):
    """Syntax error in an automaton file, with line/column coordinates."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def integer(text: str, signed: bool = True) -> int:
    """FORMAT.md's integer: ASCII digits, after an optional sign if ``signed``.

    Raises ValueError on any other text and past Python's int-from-str limit.
    """
    if re.fullmatch(r"[+-]?[0-9]+" if signed else r"[0-9]+", text) is None:
        raise ValueError(f"bad integer {_clip(text)}")
    return _int(text, text, "integer")


def rational(text: str, what: str = "rational") -> Fraction:
    """FORMAT.md's rational: ``p/q`` or an integer in ASCII digits, with an
    optional ``-`` on the numerator (so that validate reports a negative
    weight) and a nonzero denominator.

    Raises ValueError on any other text and past Python's int-from-str
    limit, with a message that calls the value ``what``.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None and "." in text:
        raise ValueError(f"float {what} {_clip(text)} is forbidden; use p/q")
    if m is None:
        raise ValueError(f"bad {what} {_clip(text)}")
    return Fraction(_int(m[1], text, what), _int(m[2] or "1", text, what))


def _int(digits: str, text: str, what: str) -> int:
    """``int(digits)`` of ASCII ``digits`` read from the ``what`` ``text``,
    whose only failure is Python's int-from-str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(
            f"{what} {_clip(text)} has an integer longer than Python's "
            f"{sys.get_int_max_str_digits():,}-digit limit"
        ) from None


def _tokens(line: str) -> list[tuple[str, int]]:
    """The tokens of ``line`` before any comment, with their 1-based columns."""
    line = _COMMENT_RE.split(line, 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _error(message: str, line_no: int, raw: str, i: int) -> FormatError:
    """A :class:`FormatError` at token ``i`` of the line ``raw``.  Columns
    are found only here, so a line that parses never pays for them."""
    return FormatError(message, line_no, _tokens(raw)[i][1])


def _role(key: str, rest: list[str], line_no: int, raw: str) -> str:
    if len(rest) != 1 or rest[0] not in ROLES:
        raise _error("type must be one of pba|fpm|hpba|nba|dra|pra", line_no, raw, 0)
    return rest[0]


def _alphabet(key: str, rest: list[str], line_no: int, raw: str) -> tuple:
    """The symbols.  None may contain a separator of the lasso syntax over
    them: ``;``, or ``,`` when some symbol is longer than one character."""
    symbols = _some_names(key, rest, line_no, raw)
    separators = ";" + word_separator(symbols)
    for i, sym in enumerate(rest, start=1):
        for ch in separators:
            if ch in sym:
                raise _error(f"symbol {_clip(sym)} contains {ch!r}, a separator in "
                             f"lassos over this alphabet", line_no, raw, i)
    return symbols


def _one_state(key: str, rest: list[str], line_no: int, raw: str) -> str:
    if len(rest) != 1:
        raise _error(f"{key} takes one state", line_no, raw, 0)
    return rest[0]


def _names(key: str, rest: list[str], line_no: int, raw: str) -> tuple:
    return tuple(rest)


def _some_names(key: str, rest: list[str], line_no: int, raw: str) -> tuple:
    if not rest:
        raise _error(f"{key} must not be empty", line_no, raw, 0)
    return tuple(rest)


def _pair(key: str, rest: list[str], line_no: int, raw: str) -> tuple:
    """One Rabin pair, as a 1-tuple so that repeated ``pair:`` lines add up.
    Every error is reported at the first token after the key."""

    def error(message: str) -> FormatError:
        return _error(message, line_no, raw, 1) if rest else FormatError(message, line_no)

    groups = []
    depth = 0
    cur: list[str] = []
    for ch in " ".join(rest):
        if ch == "{":
            if depth:
                raise error("nested '{' in pair")
            depth = 1
            cur = []
        elif ch == "}":
            if not depth:
                raise error("unmatched '}' in pair")
            depth = 0
            groups.append(frozenset("".join(cur).split()))
        elif depth:
            cur.append(ch)
        elif ch.strip():
            raise error("pair must be '{b1 b2 ...} {g1 g2 ...}'")
    if depth or len(groups) != 2:
        raise error("pair must be '{b1 b2 ...} {g1 g2 ...}'")
    return ((groups[0], groups[1]),)


def _ranks(key: str, rest: list[str], line_no: int, raw: str) -> dict:
    ranks = {}
    for i, tok in enumerate(rest, start=1):
        if "=" not in tok:
            raise _error(f"rank entry {_clip(tok)} needs q=level", line_no, raw, i)
        q, _, level = tok.partition("=")
        try:
            ranks[q] = integer(level, signed=False)
        except ValueError:
            raise _error(f"bad level in {_clip(tok)}", line_no, raw, i) from None
    return ranks


# Every header key: the reader of its tokens (given the key, the tokens after
# it, the line number and the line), the roles that need the line and the
# error when it is missing, the roles that allow it and the error when it is
# not.  After the last line, missing lines are reported in table order, then
# lines not allowed in reverse order.
_HEADER_KEYS = {
    "type": (_role, (), "", ROLES, ""),
    "alphabet": (_alphabet, ROLES, "missing 'alphabet' line", ROLES, ""),
    "states": (_some_names, ROLES, "missing 'states' line", ROLES, ""),
    "init": (_one_state, ROLES, "missing 'init' line", ROLES, ""),
    "final": (_names, BUCHI_ROLES, "missing 'final:' line for a Buchi role",
              BUCHI_ROLES, "'final:' is only valid for Buchi roles"),
    "pair": (_pair, (), "", RABIN_ROLES, "'pair:' is only valid for Rabin roles"),
    "ranks": (_ranks, (), "", {"hpba"}, "'ranks:' is only valid for hpba"),
    "reject": (_one_state, {"fpm"}, "missing 'reject:' line for an fpm",
               {"fpm"}, "'reject:' is only valid for fpm"),
}


def parse(text: str, name: str = "automaton") -> Automaton:
    """Parse the text format; syntax errors carry line/column.

    Semantic problems (row sums, absorption, rankings) are deferred to
    :func:`probuchi.core.validate`; only grammar-level rules are enforced
    here, including the role-required header lines.

    Each line is split once, each distinct probability token is read once,
    and token columns are found only for the line an error is reported on.
    """
    header: dict = {}  # the keys of _HEADER_KEYS read so far, to their values
    transitions: dict = {}
    seen_edges: set[tuple[str, str, str]] = set()
    probs: dict[str, Fraction] = {}  # each probability token read so far

    for line_no, raw in enumerate(text.splitlines(), start=1):
        # str.split() and _TOKEN_RE split on the same whitespace.
        toks = (_COMMENT_RE.split(raw, 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        head = toks[0]
        role = header.get("type")
        if role is None and head != "type:":
            raise _error("first line must be 'type: <role>'", line_no, raw, 0)
        if head.endswith(":"):
            key = head[:-1]
            if key in header and key != "pair":  # the one key that repeats
                raise _error(f"duplicate key {key!r}", line_no, raw, 0)
            if key not in _HEADER_KEYS:
                raise _error(f"unknown key {_clip(key)}", line_no, raw, 0)
            value = _HEADER_KEYS[key][0](key, toks[1:], line_no, raw)
            header[key] = header.get(key, ()) + value if key == "pair" else value
            continue
        # transition line
        if len(toks) not in (3, 5):
            raise _error("transition must be \"q -sym-> q'\" or \"q -sym-> q' : p\"",
                         line_no, raw, 0)
        src, arrow, dst = toks[:3]
        if not (arrow.startswith("-") and arrow.endswith("->") and len(arrow) > 3):
            raise _error(f"bad transition arrow {_clip(arrow)}", line_no, raw, 1)
        sym = arrow[1:-2]
        probabilistic_role = role in PROBABILISTIC_ROLES
        if (src, sym, dst) in seen_edges:
            # the tokens as written, unless _clip has to cut them
            edge = " ".join(t if len(t) <= _CLIP_WIDTH else _clip(t) for t in (src, arrow, dst))
            raise _error(f"duplicate transition {edge}", line_no, raw, 0)
        seen_edges.add((src, sym, dst))
        if len(toks) == 5:
            if toks[3] != ":":
                raise _error("expected ':' before probability", line_no, raw, 3)
            if not probabilistic_role:
                raise _error(f"role {role} takes unweighted transitions", line_no, raw, 3)
            p = probs.get(toks[4])
            if p is None:
                try:
                    p = probs[toks[4]] = rational(toks[4], "probability")
                except ValueError as exc:
                    raise _error(str(exc), line_no, raw, 4) from None
            transitions.setdefault((src, sym), []).append((dst, p))
        else:
            if probabilistic_role:
                raise _error(f"role {role} needs ': p' on every transition", line_no, raw, 0)
            transitions.setdefault((src, sym), []).append(dst)

    role = header.get("type")
    if role is None:
        raise FormatError("empty input; first line must be 'type: <role>'", 1)
    for key, (_, needed_by, missing, _, _) in _HEADER_KEYS.items():
        if role in needed_by and key not in header:
            raise FormatError(missing, 1)
    for key, (_, _, _, allowed_in, misplaced) in reversed(_HEADER_KEYS.items()):
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


def serialize(aut: Automaton) -> str:
    """Canonical text rendering; deterministic, round-trip stable."""
    out = [f"type: {aut.role}"]
    out.append("alphabet: " + " ".join(aut.alphabet))
    out.append("states: " + " ".join(aut.states))
    out.append(f"init: {aut.initial}")
    if isinstance(aut.acceptance, BuchiAcceptance):
        finals = [q for q in aut.states if q in aut.acceptance.final]
        finals += sorted(aut.acceptance.final - set(aut.states))
        out.append(("final: " + " ".join(finals)).rstrip())
    else:
        for b, g in aut.acceptance.pairs:
            bs = " ".join(q for q in aut.states if q in b)
            gs = " ".join(q for q in aut.states if q in g)
            out.append(f"pair: {{{bs}}} {{{gs}}}")
    if aut.reject is not None:
        out.append(f"reject: {aut.reject}")
    if aut.ranks is not None:
        declared = [q for q in aut.states if q in aut.ranks.levels]
        ghosts = sorted(set(aut.ranks.levels) - set(aut.states))
        entries = " ".join(f"{q}={aut.ranks.levels[q]}" for q in declared + ghosts)
        out.append(f"ranks: {entries}")
    for q in aut.states:
        for a in aut.alphabet:
            row = aut.transitions.get((q, a), ())
            if aut.is_probabilistic:
                for t, p in row:  # type: ignore[misc]
                    out.append(f"{q} -{a}-> {t} : {p}")
            else:
                for t in row:  # type: ignore[assignment]
                    out.append(f"{q} -{a}-> {t}")
    return "\n".join(out) + "\n"


def parse_lasso(text: str, alphabet: tuple[str, ...]) -> LassoWord:
    """Parse ``STEM;CYCLE`` against an alphabet.

    Symbols are concatenated characters when every alphabet symbol is a
    single character, comma-separated otherwise; the stem may be empty.
    """
    if ";" not in text:
        raise AutomatonError("lasso must be written STEM;CYCLE")
    stem_text, _, cycle_text = text.partition(";")
    sep = word_separator(alphabet)

    def split(part: str) -> tuple[str, ...]:
        part = part.strip()
        if not part:
            return ()
        if not sep:
            return tuple(part)
        return tuple(s.strip() for s in part.split(sep) if s.strip())

    stem, cycle = split(stem_text), split(cycle_text)
    if not cycle:
        raise AutomatonError("lasso cycle must be nonempty")
    alpha = set(alphabet)
    for s in stem + cycle:
        if s not in alpha:
            raise AutomatonError(f"lasso symbol {_clip(s)} not in alphabet")
    return LassoWord(stem, cycle)


def format_word(symbols: Sequence[str], alphabet: Sequence[str]) -> str:
    """Symbols concatenated when every alphabet symbol is one character,
    comma-separated otherwise, as :func:`parse_lasso` splits them."""
    return word_separator(alphabet).join(symbols)


def format_lasso(w: LassoWord, alphabet: Sequence[str]) -> str:
    """``STEM;CYCLE`` that :func:`parse_lasso` reads back over ``alphabet``.
    ``str(w)`` takes its separator from the word's own symbols instead, so
    it misreads a word of one-character symbols over a mixed-width alphabet."""
    return format_word(w.stem, alphabet) + ";" + format_word(w.cycle, alphabet)
