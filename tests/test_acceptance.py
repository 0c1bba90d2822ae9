"""Acceptance suite: one check per shipped criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time

from toposlsc import fixtures
from toposlsc.filters import (
    certify_quotient_classifier,
    filter_generated_by,
    top_filter,
)
from toposlsc.lsc import build_lsc
from toposlsc.normalize import (
    check_normalization_inflationary,
    congruence_to_subgroup,
    normalization_is_top,
    normalization_operator,
    normalizer_direct,
    subgroup_to_congruence,
    subgroups,
)
from toposlsc.verify import (
    SEED_INFLATION,
    SEED_ISO,
    SEED_WORDS,
    _inflation_counterexamples,
    _isomorphism_counterexamples,
    d4_normalization_matches,
    find_non_idempotence_witness,
    find_non_monotonicity_witness,
    graph_nonfilter_selection,
)
from toposlsc.words import (
    congruence_leq,
    nerode_congruence,
    orbit_meet_check,
    random_min_dfa,
    regex_to_min_dfa,
    residual_count_dfa,
    transition_monoid,
)


def _verdict(number, description, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_d4_normalization_table():
    started = time.perf_counter()
    G = fixtures.dihedral_4()
    ok, got = d4_normalization_matches(G, build_lsc(G.site()))
    elapsed = time.perf_counter() - started
    _verdict(1, f"D4 ten-subgroup normalization table, exact ({elapsed:.2f}s < 1s)",
             ok and elapsed < 1.0)


def test_criterion_2_oracle_equivalence_all_groups():
    started = time.perf_counter()
    ok = True
    for name, G in sorted(fixtures.bundled_groups().items()):
        L = build_lsc(G.site())
        op = normalization_operator(L)
        for H in subgroups(G):
            q = subgroup_to_congruence(G, H)
            categorical = congruence_to_subgroup(G, op.components["*"][q])
            if categorical != normalizer_direct(G, H):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    _verdict(2, f"categorical normalizer = brute force on all bundled groups "
                f"({elapsed:.1f}s < 30s)", ok and elapsed < 30.0)


def test_criterion_3_graph_topos():
    L = build_lsc(fixtures.graph_site())
    op = normalization_operator(L)
    ok = (len(L.elements("V")) == 1 and len(L.elements("E")) == 2
          and all(op.components["E"][q].is_total() for q in L.elements("E")))
    _verdict(3, "graph classifier is one vertex with two loops, both "
                "normalizing to the loop congruence", ok)


def test_criterion_4_small_sites():
    Li = build_lsc(fixtures.idempotent_monoid_site())
    opi = normalization_operator(Li)
    ok = (len(Li.elements("*")) == 2
          and all(opi.components["*"][q] == q for q in Li.elements("*")))
    for site in fixtures.BUNDLED_POSETS.values():
        Lp = build_lsc(site)
        ok = ok and all(len(Lp.elements(c)) == 1 for c in site.objects)
    dedekind_fixtures = [fixtures.quaternion_8()] + \
        [fixtures.cyclic_group(n) for n in range(1, 7)]
    for G in dedekind_fixtures:
        ok = ok and normalization_is_top(build_lsc(G.site()))
    _verdict(4, "idempotent monoid identity operator; posets terminal; "
                "Q8 and abelian groups constantly top", ok)


def test_criterion_5_normalization_lemma():
    ok = True
    for site in list(fixtures.bundled_sites().values()) + \
            [G.site() for G in fixtures.bundled_groups().values()]:
        if not check_normalization_inflationary(build_lsc(site)).ok:
            ok = False
            break
    violations = sum(1 for _ in _inflation_counterexamples(random.Random(SEED_INFLATION)))
    _verdict(5, "q <= xi(q) on every bundled site and 50 random minimal DFAs, "
                f"{violations} violations", ok and violations == 0)


def test_criterion_6_quotient_classifier_certificates():
    idem_lsc = build_lsc(fixtures.idempotent_monoid_site())
    G = fixtures.dihedral_4()
    d4_lsc = build_lsc(G.site())
    graph_lsc = build_lsc(fixtures.graph_site())
    q_s2 = subgroup_to_congruence(G, fixtures.d4_named_subgroups(G)["<s2>"])
    positives = [
        ("idempotent + top", certify_quotient_classifier(top_filter(idem_lsc))),
        ("D4 + <s2>-generated",
         certify_quotient_classifier(filter_generated_by(d4_lsc, {"*": [q_s2]}))),
        ("graph + top", certify_quotient_classifier(top_filter(graph_lsc))),
    ]
    ok = all(cert.ok and len(cert.checks) == 4 for _, cert in positives)
    negative = certify_quotient_classifier(graph_nonfilter_selection(graph_lsc))
    clause_a = next(c for c in negative.checks if c.name == "F-in-EF")
    ok = ok and not clause_a.passed and clause_a.witness is not None \
        and clause_a.witness.is_discrete()
    _verdict(6, "three (site, filter) pairs pass all four clauses; the "
                "non-filter fails self-membership with the non-loop witness", ok)


def test_criterion_7_non_idempotent_non_monotone():
    L = build_lsc(fixtures.dihedral_4().site())
    idem_witness = find_non_idempotence_witness(L)
    mono_witness = find_non_monotonicity_witness(L)
    _verdict(7, f"D4 witnesses: not idempotent {idem_witness is not None}, "
                f"not order-preserving {mono_witness is not None}",
             idem_witness is not None and mono_witness is not None)


def test_criterion_8_words_suite():
    started = time.perf_counter()
    ok = True
    rng = random.Random(SEED_WORDS)
    cases = [random_min_dfa(rng, 6, "ab") for _ in range(20)]
    cases += [regex_to_min_dfa(e, "ab") for e in ("(ab)*", "(a|b)*a", "a*", "#e")]
    for d in cases:
        rc = nerode_congruence(d)
        if not (rc.index == d.n == residual_count_dfa(d)):
            ok = False
            break
        syn = transition_monoid(d).cayley_congruence()
        met, agrees = orbit_meet_check(rc, syn)
        if not agrees or met != syn:
            ok = False
            break
        if not congruence_leq(syn, rc):
            ok = False
            break
    d_ab, d_enda = regex_to_min_dfa("(ab)*", "ab"), regex_to_min_dfa("(a|b)*a", "ab")
    order_ab = transition_monoid(d_ab).order
    order_enda = transition_monoid(d_enda).order
    ok = ok and order_ab == 6 and order_enda == 3
    elapsed = time.perf_counter() - started
    _verdict(8, f"Nerode/orbit-infimum/refinement identities on 20 random and "
                f"4 fixed languages; monoid orders 6 and 3 ({elapsed:.1f}s < 10s)",
             ok and elapsed < 10.0)


def test_criterion_9_canonicalization_soundness():
    disagreements = sum(1 for _ in _isomorphism_counterexamples(random.Random(SEED_ISO)))
    _verdict(9, f"structural equality vs backtracking isomorphism search on "
                f"200 pairs, {disagreements} disagreements", disagreements == 0)
