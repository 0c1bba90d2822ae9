"""Shared immutable values must be safe to use from several threads."""

import random
from concurrent.futures import ThreadPoolExecutor

from perfbench.inputs import ends_regex
from toposlsc import fixtures
from toposlsc.lsc import build_lsc, xi_component
from toposlsc.fincat import quotient_of_representable
from toposlsc.normalize import normalization_operator
from toposlsc.words import (
    nerode_congruence,
    orbit_meet_check,
    random_min_dfa,
    regex_to_min_dfa,
    transition_monoid,
)


def test_concurrent_classification_matches_serial():
    G = fixtures.dihedral_4()
    L = build_lsc(G.site())
    samples = [quotient_of_representable(q) for q in L.elements("*")]
    serial = [xi_component(L, X).components for X in samples]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda X: xi_component(L, X).components, samples))
    assert serial == parallel
    op = normalization_operator(L)
    with ThreadPoolExecutor(max_workers=4) as pool:
        again = list(pool.map(lambda X: xi_component(L, X).components, samples))
    assert again == serial
    assert op == normalization_operator(L)


def test_concurrent_orbit_meets_match_serial():
    rng = random.Random(7)
    # the two regexes make the fold stop early: after one product, or before any
    dfas = [random_min_dfa(rng, 5, "ab") for _ in range(12)]
    dfas += [regex_to_min_dfa(ends_regex(3), "ab"), regex_to_min_dfa("a" * 20, "ab")]
    congruences = [nerode_congruence(d) for d in dfas]
    syntactic = [transition_monoid(d.alphabet, d.delta).cayley_congruence() for d in dfas]
    serial = [orbit_meet_check(rc, syn) for rc, syn in zip(congruences, syntactic)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(orbit_meet_check, congruences, syntactic))
    assert serial == parallel
