"""Line-oriented text format for automata, plus lasso parsing for the CLI.

The format is a bit-exact contract (see FORMAT.md).  A ``#`` at the start of
a line or preceded by whitespace opens a comment, which is why fresh states
generated by constructions embed their ``#rej``/``#init`` suffix mid-token.
Probabilities are written as ``p/q`` or integers; floats are rejected.
Serialization is deterministic: declaration order everywhere and reduced
fractions with positive denominators, so parse(serialize(a)) is structurally
equal to a (names are display-only and excluded from equality).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Sequence

_TOKEN_RE = re.compile(r"\S+")

from .core import (
    Automaton,
    AutomatonError,
    BUCHI_ROLES,
    BuchiAcceptance,
    LassoWord,
    PROBABILISTIC_ROLES,
    RabinAcceptance,
    RankFunction,
    ROLES,
    word_separator,
)

__all__ = ["FormatError", "parse", "serialize", "parse_lasso", "format_word",
           "format_lasso"]


class FormatError(AutomatonError):
    """Syntax error in an automaton file, with line/column coordinates."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _strip_comment(line: str) -> str:
    if line.startswith("#"):
        return ""
    out = []
    prev = " "
    for i, ch in enumerate(line):
        if ch == "#" and prev in (" ", "\t"):
            break
        out.append(ch)
        prev = ch
    return "".join(out)


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


# FORMAT.md's probabilities: ASCII digits, as p/q or an integer.  A leading
# minus is read so that validate reports the weight as out of range.
_PROB_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _clip(tok: str, width: int = 40) -> str:
    """``tok`` quoted, cut to its first ``width`` characters if longer."""
    return repr(tok) if len(tok) <= width else repr(tok[:width]) + "..."


def _parse_prob(tok: str, line_no: int, col: int) -> Fraction:
    if "." in tok:
        raise FormatError(
            f"float probability {_clip(tok)} is forbidden; use p/q", line_no, col
        )
    m = _PROB_RE.fullmatch(tok)
    if m is None:
        raise FormatError(f"bad probability {_clip(tok)}", line_no, col)
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise FormatError(f"bad probability {_clip(tok)}", line_no, col) from None
    except ValueError:  # on ASCII digits, only Python's int-from-str digit limit
        raise FormatError(
            f"probability {_clip(tok)} has an integer longer than Python's "
            f"{sys.get_int_max_str_digits():,}-digit limit", line_no, col
        ) from None


def parse(text: str, name: str = "automaton") -> Automaton:
    """Parse the text format; syntax errors carry line/column.

    Semantic problems (row sums, absorption, rankings) are deferred to
    :func:`probuchi.core.validate`; only grammar-level rules are enforced
    here, including the role-required header lines.
    """
    role: str | None = None
    alphabet: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None
    initial: str | None = None
    final: tuple[str, ...] | None = None
    reject: str | None = None
    pairs: list[tuple[frozenset[str], frozenset[str]]] = []
    ranks: dict[str, int] | None = None
    transitions: dict = {}
    seen_keys: set[str] = set()
    seen_edges: set[tuple[str, str, str]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        toks = _tokens(line)
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
                        "type must be one of pba|fpm|hpba|nba|dra|pra",
                        line_no,
                        head_col,
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
                pairs.append(_parse_pair(rest, line_no))
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
        # transition line
        if role is None:
            raise FormatError("first line must be 'type: <role>'", line_no, head_col)
        if len(toks) not in (3, 5):
            raise FormatError(
                "transition must be \"q -sym-> q'\" or \"q -sym-> q' : p\"",
                line_no,
                head_col,
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
            p = _parse_prob(toks[4][0], line_no, toks[4][1])
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

    acceptance: BuchiAcceptance | RabinAcceptance
    if role in BUCHI_ROLES:
        acceptance = BuchiAcceptance(frozenset(final or ()))
    else:
        acceptance = RabinAcceptance(tuple(pairs))
    rk = None
    if ranks is not None:
        rk = RankFunction(ranks, max(ranks.values(), default=0))
    rows = {k: tuple(v) for k, v in transitions.items()}
    return Automaton(
        name=name,
        role=role,
        alphabet=alphabet,  # type: ignore[arg-type]
        states=states,  # type: ignore[arg-type]
        initial=initial,  # type: ignore[arg-type]
        acceptance=acceptance,
        transitions=rows,
        reject=reject,
        ranks=rk,
    )


def _parse_pair(rest: list[tuple[str, int]], line_no: int) -> tuple[frozenset[str], frozenset[str]]:
    text = " ".join(t for t, _ in rest)
    col = rest[0][1] if rest else 1
    groups = []
    depth = 0
    cur: list[str] = []
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
            raise AutomatonError(f"lasso symbol {s!r} not in alphabet")
    return LassoWord(stem, cycle)


def format_word(symbols: Sequence[str], alphabet: Sequence[str]) -> str:
    """Symbols concatenated when every alphabet symbol is one character,
    comma-separated otherwise, as :func:`parse_lasso` splits them."""
    return word_separator(alphabet).join(symbols)


def format_lasso(w: LassoWord, alphabet: Sequence[str] | None = None) -> str:
    """``STEM;CYCLE`` that :func:`parse_lasso` reads back over ``alphabet``.

    Without an alphabet this is ``str(w)``, whose separator is chosen from
    the word's own symbols and so misreads a word of one-character symbols
    over a mixed-width alphabet; pass the alphabet whenever it is known.
    """
    if alphabet is None:
        return str(w)
    return format_word(w.stem, alphabet) + ";" + format_word(w.cycle, alphabet)
