"""Plain automaton descriptions owned by the benchmark.

The benchmark builds every input as a :class:`Spec` first.  Its oracles read
the spec, never the program's objects, and the spec is handed to the
program only as a ``probuchi.core.Automaton`` (library workloads) or as a
file in the FORMAT.md text format written by :meth:`Spec.serialize`
(CLI workload).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

F = Fraction
PROBABILISTIC = frozenset({"pba", "fpm", "hpba", "pra"})


@dataclass
class Spec:
    """Automaton as plain data.

    ``rows`` maps ``(state, symbol)`` to ``((target, weight), ...)`` for
    probabilistic roles and to ``(target, ...)`` for nondeterministic ones.
    Buchi roles set ``final``; Rabin roles set ``pairs``.
    """

    role: str
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    rows: dict
    final: frozenset = frozenset()
    pairs: tuple = ()
    reject: str | None = None
    name: str = "bench"
    index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = {q: i for i, q in enumerate(self.states)}

    @property
    def probabilistic(self) -> bool:
        return self.role in PROBABILISTIC

    @property
    def rabin(self) -> bool:
        return self.role in ("pra", "dra")

    def row(self, q: str, a: str) -> list[tuple[str, Fraction]]:
        """Positive entries of a probabilistic row, targets in declaration order."""
        out = [(t, F(p)) for t, p in self.rows.get((q, a), ()) if p]
        return sorted(out, key=lambda tp: self.index[tp[0]])

    def succ(self, q: str, a: str) -> list[str]:
        """Support of (q, a), in declaration order."""
        if self.probabilistic:
            return [t for t, _ in self.row(q, a)]
        return sorted(set(self.rows.get((q, a), ())), key=self.index.__getitem__)

    @cached_property
    def digest(self) -> str:
        """Short hash of the serialized machine, naming it in reports."""
        return hashlib.sha1(self.serialize().encode()).hexdigest()[:10]

    def to_automaton(self, core):
        """The same machine as a ``probuchi.core.Automaton``."""
        if self.rabin:
            acceptance = core.RabinAcceptance(self.pairs)
        else:
            acceptance = core.BuchiAcceptance(self.final)
        return core.Automaton(
            name=self.name,
            role=self.role,
            alphabet=self.alphabet,
            states=self.states,
            initial=self.initial,
            acceptance=acceptance,
            transitions=dict(self.rows),
            reject=self.reject,
        )

    def serialize(self) -> str:
        """Canonical FORMAT.md text: declaration order, reduced fractions."""
        out = [f"type: {self.role}", "alphabet: " + " ".join(self.alphabet)]
        out.append("states: " + " ".join(self.states))
        out.append(f"init: {self.initial}")
        if self.rabin:
            for b, g in self.pairs:
                bs = " ".join(q for q in self.states if q in b)
                gs = " ".join(q for q in self.states if q in g)
                out.append(f"pair: {{{bs}}} {{{gs}}}")
        else:
            out.append(("final: " + " ".join(q for q in self.states if q in self.final)).rstrip())
        if self.reject is not None:
            out.append(f"reject: {self.reject}")
        for q in self.states:
            for a in self.alphabet:
                if self.probabilistic:
                    out.extend(f"{q} -{a}-> {t} : {p}" for t, p in self.row(q, a))
                else:
                    out.extend(f"{q} -{a}-> {t}" for t in self.succ(q, a))
        return "\n".join(out) + "\n"


def parse_nba(text: str) -> Spec:
    """Read a serialized NBA (the only role the benchmark reads back)."""
    head: dict[str, list[str]] = {}
    rows: dict = {}
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if toks[0].endswith(":"):
            head[toks[0][:-1]] = toks[1:]
            continue
        src, arrow, dst = toks
        rows.setdefault((src, arrow[1:-2]), []).append(dst)
    if head.get("type") != ["nba"]:
        raise ValueError("expected an nba")
    return Spec(
        role="nba",
        alphabet=tuple(head["alphabet"]),
        states=tuple(head["states"]),
        initial=head["init"][0],
        final=frozenset(head.get("final", ())),
        rows={k: tuple(v) for k, v in rows.items()},
    )


def renamed(spec: Spec, rng: random.Random, prefix: str) -> Spec:
    """Copy with states renamed and their declaration order shuffled.

    Renaming keeps every size the benchmark relies on (monoids, chains,
    complement states) while the seed still changes the program's input.
    """
    order = list(spec.states)
    rng.shuffle(order)
    name = {q: f"{prefix}{i}" for i, q in enumerate(order)}

    def row(r):
        if spec.probabilistic:
            return tuple((name[t], p) for t, p in r)
        return tuple(name[t] for t in r)

    return Spec(
        role=spec.role,
        alphabet=spec.alphabet,
        states=tuple(name[q] for q in order),
        initial=name[spec.initial],
        rows={(name[q], a): row(r) for (q, a), r in spec.rows.items()},
        final=frozenset(name[q] for q in spec.final),
        pairs=tuple(
            (frozenset(name[q] for q in b), frozenset(name[q] for q in g))
            for b, g in spec.pairs
        ),
        reject=None if spec.reject is None else name[spec.reject],
        name=spec.name,
    )


# ---------------------------------------------------------------------------
# The paper's example machines, written out from their definitions.

HALF = F(1, 2)


def m_id(swapped: bool = False) -> Spec:
    """Binary-value monitor: acceptance of a 0/1 word is its binary value."""
    one, zero = ("0", "1") if swapped else ("1", "0")
    rows = {
        ("q0", zero): (("q0", HALF), ("qr", HALF)),
        ("q0", one): (("q0", HALF), ("q1", HALF)),
        ("q1", "0"): (("q1", F(1)),),
        ("q1", "1"): (("q1", F(1)),),
        ("qr", "0"): (("qr", F(1)),),
        ("qr", "1"): (("qr", F(1)),),
    }
    return Spec("fpm", ("0", "1"), ("q0", "q1", "qr"), "q0", rows,
                final=frozenset({"q0", "q1"}), reject="qr",
                name="m_id_swapped" if swapped else "m_id")


def fpm_product(m1: Spec, m2: Spec) -> Spec:
    """Monitor product on live pairs plus a fresh reject (acceptance multiplies)."""
    live1 = [q for q in m1.states if q != m1.reject]
    live2 = [q for q in m2.states if q != m2.reject]
    states = tuple(f"({p},{q})" for p in live1 for q in live2)
    qr = "qr#rej"
    rows: dict = {}
    for p in live1:
        for q in live2:
            for a in m1.alphabet:
                row = [
                    (f"({t1},{t2})", w1 * w2)
                    for t1, w1 in m1.row(p, a) if t1 != m1.reject
                    for t2, w2 in m2.row(q, a) if t2 != m2.reject
                ]
                total = sum((w for _, w in row), F(0))
                if total < 1:
                    row.append((qr, 1 - total))
                rows[(f"({p},{q})", a)] = tuple(row)
    for a in m1.alphabet:
        rows[(qr, a)] = ((qr, F(1)),)
    return Spec("fpm", m1.alphabet, states + (qr,), f"({m1.initial},{m2.initial})",
                rows, final=frozenset(states), reject=qr, name="prod")


def succinct(k: int) -> Spec:
    """Monitor for "every a is followed by c exactly k positions later"."""
    alphabet = ("a", "b", "c")
    checkers = tuple(f"chk{i}" for i in range(1, k + 1))
    states = ("scan",) + checkers + ("acc", "rej")
    rows: dict = {
        ("scan", "a"): (("scan", HALF), ("chk1", HALF)),
        ("scan", "b"): (("scan", F(1)),),
        ("scan", "c"): (("scan", F(1)),),
    }
    for i in range(1, k):
        for a in alphabet:
            rows[(f"chk{i}", a)] = ((f"chk{i + 1}", F(1)),)
    for a, t in (("a", "rej"), ("b", "rej"), ("c", "acc")):
        rows[(f"chk{k}", a)] = ((t, F(1)),)
    for a in alphabet:
        rows[("acc", a)] = (("acc", F(1)),)
        rows[("rej", a)] = (("rej", F(1)),)
    return Spec("fpm", alphabet, states, "scan", rows,
                final=frozenset(states) - {"rej"}, reject="rej", name=f"succinct_{k}")


def p3(lam: Fraction) -> Spec:
    """Four-state PBA of the paper; it accepts no lasso with positive probability."""
    one = F(1)
    rows = {
        ("s0", "x"): (("s0", lam), ("s1", 1 - lam)),
        ("s0", "@"): (("sr", one),), ("s0", "$"): (("sr", one),),
        ("s1", "x"): (("s1", one),), ("s1", "@"): (("s0", one),), ("s1", "$"): (("s2", one),),
        ("s2", "x"): (("sr", one),), ("s2", "@"): (("sr", one),), ("s2", "$"): (("s0", one),),
        ("sr", "x"): (("sr", one),), ("sr", "@"): (("sr", one),), ("sr", "$"): (("sr", one),),
    }
    return Spec("pba", ("x", "@", "$"), ("s0", "s1", "s2", "sr"), "s0", rows,
                final=frozenset({"s0"}), name="p3")


def leak_monitor(num: int, den: int) -> Spec:
    """Monitor that leaks ``1 - num/den`` to the reject on every ``a``.

    ``b`` parks the survivor in an absorbing live state, so the acceptance of
    ``a^n b^omega`` is ``(num/den)^n`` and the reject mass after ``a^n`` is
    ``1 - (num/den)^n``.
    """
    keep = F(num, den)
    rows = {
        ("q0", "a"): (("q0", keep), ("rej", 1 - keep)),
        ("q0", "b"): (("ok", F(1)),),
    }
    for q in ("ok", "rej"):
        for a in ("a", "b"):
            rows[(q, a)] = ((q, F(1)),)
    return Spec("fpm", ("a", "b"), ("q0", "ok", "rej"), "q0", rows,
                final=frozenset({"q0", "ok"}), reject="rej", name="leak")


def two_copy_nba(h: Spec) -> Spec:
    """NBA for the positive language of a hierarchical PBA (paper's two copies)."""
    def cs(q: str, c: int) -> str:
        return f"({q},{c})"

    rows: dict = {}
    for q in h.states:
        for a in h.alphabet:
            row = h.row(q, a)
            rows[(cs(q, 0), a)] = tuple(cs(t, 0) for t, _ in row) + tuple(cs(t, 1) for t, _ in row)
            rows[(cs(q, 1), a)] = tuple(cs(t, 1) for t, p in row if p == 1)
    states = tuple(cs(q, c) for c in (0, 1) for q in h.states)
    return Spec("nba", h.alphabet, states, cs(h.initial, 0), rows,
                final=frozenset(cs(q, 1) for q in h.final), name="nba")


def top_pba(alphabet: tuple[str, ...]) -> Spec:
    """One accepting state looping on every symbol: accepts every word surely."""
    return Spec("pba", alphabet, ("s",), "s", {("s", a): (("s", F(1)),) for a in alphabet},
                final=frozenset({"s"}), name="top")
