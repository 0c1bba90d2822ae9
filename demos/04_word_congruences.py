#!/usr/bin/env python3
"""The regular-language workbench: right congruences on words.

Finite-index right congruences are pointed accessible automata in canonical
numbering.  The Nerode congruence of a language is its minimal automaton with
acceptance forgotten; acting by a word moves the basepoint; the meet is the
pointed product.  Folding the meet over the whole orbit recovers the
syntactic congruence, which the transition monoid computes independently.
"""

from toposlsc.words import (
    congruence_action,
    congruence_leq,
    congruence_meet,
    nerode_congruence,
    orbit_meet_check,
    regex_to_min_dfa,
    transition_monoid,
    words_normalization_operator,
)

expr = "(ab)*"
d = regex_to_min_dfa(expr, "ab")
rc = nerode_congruence(d)
print(f"{expr}: minimal DFA has {d.n} states; Nerode index {rc.index}")
print("class witnesses:", rc.witnesses())

# the action moves the basepoint: after reading a we sit in the residual
after_a = congruence_action(rc, "a")
print("rc * a equals nerode of b(ab)*:",
      after_a == nerode_congruence(regex_to_min_dfa("b(ab)*", "ab")))

# the orbit {rc * w} has one member per class of isomorphic futures
print("orbit size:", words_normalization_operator(rc).index)
# d is minimal, so its transition monoid is the syntactic monoid
tm = transition_monoid(d.alphabet, d.delta)
syn = tm.cayley_congruence()
meet, agrees = orbit_meet_check(rc, syn)
print(f"orbit infimum has index {meet.index}; syntactic monoid has order "
      f"{tm.order}; the two routes agree: {agrees}")
print("monoid witnesses:", tm.witnesses)
print("syntactic refines nerode:", congruence_leq(syn, rc))

# the normalization operator groups states with isomorphic futures
rc3 = nerode_congruence(regex_to_min_dfa("a(a|b)*", "ab"))
print(f"\na(a|b)*: index {rc3.index} normalizes to index",
      words_normalization_operator(rc3).index,
      "(the two absorbing futures are isomorphic)")

# meets of incomparable congruences: ends-in-a vs ends-in-b
rc_a = nerode_congruence(regex_to_min_dfa("(a|b)*a", "ab"))
rc_b = nerode_congruence(regex_to_min_dfa("(a|b)*b", "ab"))
met = congruence_meet(rc_a, rc_b)
print(f"\nmeet of ends-in-a and ends-in-b has index {met.index}: "
      "empty-so-far, ends in a, ends in b")
print("comparable?", congruence_leq(rc_a, rc_b), congruence_leq(rc_b, rc_a))
