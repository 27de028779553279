"""
Exact acceptance probabilities of ultimately periodic words
===========================================================

The three-state monitor ``m_id`` reads bits and accepts an infinite word
with probability equal to the word's binary-expansion value.  Everything
below is exact rational arithmetic; no floats are involved.
"""

from probuchi import (
    binary_value_lasso,
    gen_m_id,
    gen_m_id_squared,
    lasso,
    lasso_acceptance,
    infer_hierarchy,
)

m = gen_m_id()
print("states:", m.states, "reject:", m.reject)
print("ranks:", dict(infer_hierarchy(m).levels))

for stem, cycle in [("", "1"), ("", "0"), ("", "10"), ("1", "0"), ("011", "01")]:
    w = lasso(stem, cycle)
    p = lasso_acceptance(m, w)
    print(f"acceptance of {str(w):>8} = {p}  (binary value {binary_value_lasso(w)})")

# the product monitor squares the value, so its 1/2-cutpoint language is the
# set of words with value above sqrt(1/2): not omega-regular
sq = gen_m_id_squared()
w = lasso("", "10")
print("squared monitor on ;10:", lasso_acceptance(sq, w), "= (2/3)^2")

# acceptance is invariant under re-rolling the lasso
print("unrolled twice:", lasso_acceptance(m, w.unrolled(2)))
print("cycle shifted: ", lasso_acceptance(m, w.shifted()))

# exactness survives long cycles
long = lasso("1101", "1001101")
print("long lasso:", lasso_acceptance(m, long), "==", binary_value_lasso(long))
assert lasso_acceptance(m, long) == binary_value_lasso(long)
