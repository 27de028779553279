"""
Hierarchical PBAs capture exactly the omega-regular languages
=============================================================

A deterministic Rabin automaton turns into a hierarchical PBA with the same
positive language (one copy per Rabin pair, bad states leak to a reject);
a hierarchical PBA turns into a classical NBA via the two-copy
construction.  The deadline monitors show the succinctness gap: O(n)
probabilistic states against O(2^n) deterministic ones.
"""

from probuchi import (
    Automaton,
    RabinAcceptance,
    dra_to_hpba,
    gen_succinct,
    hpba_to_nba,
    lasso,
    lasso_acceptance,
    safety_closure,
    gen_m_id,
)
from probuchi.decide import nba_lasso_member

# "infinitely many a" as a one-pair DRA
dra = Automaton(
    name="inf_a",
    role="dra",
    alphabet=("a", "b"),
    states=("qb", "qa"),
    initial="qb",
    acceptance=RabinAcceptance(((frozenset(), frozenset({"qa"})),)),
    transitions={
        ("qa", "a"): ("qa",), ("qa", "b"): ("qb",),
        ("qb", "a"): ("qa",), ("qb", "b"): ("qb",),
    },
)
h = dra_to_hpba(dra)
print("hierarchical PBA states:", h.states)
print("declared ranking:", dict(h.ranks.levels))
for cycle in ("ab", "b", "a"):
    w = lasso("", cycle)
    print(f"(;{cycle}): mu =", lasso_acceptance(h, w))

nba = hpba_to_nba(h)
print("round-tripped NBA has", len(nba.states), "states")
for cycle in ("ab", "b"):
    w = lasso("", cycle)
    print(f"  NBA membership of (;{cycle}):", nba_lasso_member(nba, w))

# succinct deadline monitors: every 'a' needs a 'c' exactly n steps later
for n in (1, 2, 3):
    s = gen_succinct(n)
    print(f"succinct({n}): {len(s.states)} states; "
          f"(;ac...) accepted almost surely:",
          lasso_acceptance(s, lasso("", "a" + "b" * (n - 1) + "c")) == 1)

# the safety closure of a positive language is always omega-regular
cl = safety_closure(gen_m_id())
print("closure automaton of m_id lives on", cl.states, "and accepts ;0:",
      nba_lasso_member(cl, lasso("", "0")))
