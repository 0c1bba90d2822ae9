"""The verification suites behind `topos-lsc verify`.

Each suite certifies the toolkit's claimed identities on the bundled fixtures
(and optionally on user fixture files).  The same routines back the
acceptance tests, so a green `verify --suite all` and a green test run mean
the same thing.
"""

import itertools
import random
from pathlib import Path

from . import fixtures, io
from .certificates import Certificate
from .errors import InputFormatError, NotUpwardClosed
from .fincat import (
    DEFAULT_BUDGET,
    Presheaf,
    coproduct,
    image_quotient,
    quotient_of_representable,
    representable,
    terminal,
    yoneda_morphism,
)
from .filters import (
    InternalFilter,
    certify_quotient_classifier,
    comonad_apply,
    filter_generated_by,
    full_filter,
    top_filter,
    validate_filter,
)
from .lsc import build_lsc, verify_meet_compatibility, xi_component
from .normalize import (
    _normalizer_counterexamples,
    check_normalization_inflationary,
    monoid_site,
    normalization_is_top,
    normalization_operator,
    normalization_table,
    subgroup_to_congruence,
)
from .reports import words_analysis
from .words import (
    RightCongruence,
    _ball,
    congruence_action,
    congruence_leq,
    congruence_meet,
    find_pointed_isomorphism,
    nerode_congruence,
    parse_regex,
    random_min_dfa,
    regex_to_min_dfa,
    residual_count_by_words,
    state_congruence,
    syntactically_equivalent_bruteforce,
    top_congruence,
    words_normalization_operator,
    words_upto,
)

SEED_WORDS = 20260
SEED_INFLATION = 40961
SEED_ISO = 77003


# ---------------------------------------------------------------------------
# lsc suite
# ---------------------------------------------------------------------------

def _lsc_sites():
    sites = dict(fixtures.bundled_sites())
    sites["Z4"] = fixtures.cyclic_group(4).site()
    sites["D4"] = fixtures.dihedral_4().site()
    return sites


def _sample_presheaves(L):
    cat = L.site
    out = [terminal(cat)]
    for c in cat.objects:
        out.append(representable(cat, c))
    c0 = cat.objects[0]
    qs = L.elements(c0)
    out.append(quotient_of_representable(qs[len(qs) // 2]))
    return out


def _check_semilattice(cert, name, L):
    def counterexamples():
        for c in L.site.objects:
            xs = L.elements(c)
            members = set(xs)
            top = L.top_at(c)
            for q1 in xs:
                if q1.meet(q1) != q1 or q1.meet(top) != q1:
                    yield (c, q1)
                for q2 in xs:
                    if q1.meet(q2) != q2.meet(q1) or q1.meet(q2) not in members:
                        yield (c, q1, q2)
                    yield from ((c, q1, q2, q3) for q3 in xs
                                if q1.meet(q2.meet(q3)) != (q1.meet(q2)).meet(q3))

    cert.check(f"{name}: meet-semilattice laws", counterexamples())


def _check_action_monotone(cert, name, L):
    def counterexamples():
        for f, s, d in L.site.morphisms:
            for q1 in L.elements(d):
                for q2 in L.elements(d):
                    if q1.meet(q2).precompose(f) != L.act(q1, f).meet(L.act(q2, f)):
                        yield (f, q1, q2, "meet not preserved")
                    if q1.leq(q2) and not L.act(q1, f).leq(L.act(q2, f)):
                        yield (f, q1, q2, "order not preserved")

    cert.check(f"{name}: action monotone, meets preserved", counterexamples())


def _check_joint_surjectivity(cert, name, L):
    def hit(c, q):
        base = q.block_members(L.site.identity(c))
        return xi_component(L, quotient_of_representable(q)).components[c][base]

    cert.check(f"{name}: every congruence hit by its quotient",
               ((c, q) for c in L.site.objects for q in L.elements(c) if hit(c, q) != q))


def _check_cocone_naturality(cert, name, L, samples):
    def counterexamples():
        for X in samples:
            xi_x = xi_component(L, X)
            for Y in samples:
                P, inl, _ = coproduct(X, Y)
                xi_p = xi_component(L, P)
                yield from ((c, x) for c in L.site.objects for x in X.elements(c)
                            if xi_p.components[c][inl.components[c][x]]
                            != xi_x.components[c][x])

    cert.check(f"{name}: xi constant along embeddings", counterexamples())


def _check_xi_against_yoneda(cert, name, L, samples):
    def counterexamples():
        for X in samples:
            xi = xi_component(L, X)
            yield from ((c, x) for c in L.site.objects for x in X.elements(c)
                        if image_quotient(yoneda_morphism(X, c, x)) != xi.components[c][x])

    cert.check(f"{name}: xi equals kernel of classifying morphism", counterexamples())


def suite_lsc(budget=DEFAULT_BUDGET, fixtures_dir=None):
    cert = Certificate("lsc")
    for name, site in _lsc_sites().items():
        L = build_lsc(site, budget)
        _check_semilattice(cert, name, L)
        _check_action_monotone(cert, name, L)
        _check_joint_surjectivity(cert, name, L)
        samples = _sample_presheaves(L)
        _check_cocone_naturality(cert, name, L, samples[:3])
        _check_xi_against_yoneda(cert, name, L, samples)
        cert.merge(verify_meet_compatibility(L, []))
        cert.merge(verify_meet_compatibility(L, samples[:1]))
        cert.merge(verify_meet_compatibility(L, samples[1:3]))
    for path in _fixture_files(fixtures_dir, ".cat"):
        L = build_lsc(io.load_category(path), budget)
        _check_semilattice(cert, path.name, L)
        _check_joint_surjectivity(cert, path.name, L)
    return cert


# ---------------------------------------------------------------------------
# normalize suite
# ---------------------------------------------------------------------------

D4_EXPECTED_ARROWS = {
    "<>": "D4", "<s2>": "D4", "<t>": "<t,s2>", "<s2t>": "<t,s2>",
    "<st>": "<st,s2>", "<s3t>": "<st,s2>", "<s>": "D4",
    "<t,s2>": "D4", "<st,s2>": "D4", "D4": "D4",
}


def d4_normalization_matches(G, L):
    """The full D4 subgroup-to-normalizer table of G (with L the classifier
    of G's site) against its expected shape."""
    named = fixtures.d4_named_subgroups(G)
    inverse = {H: n for n, H in named.items()}
    table = normalization_table(G, L)
    got = {inverse[H]: inverse[N] for H, N in table.items()}
    return got == D4_EXPECTED_ARROWS, got


def _group_oracle_check(cert, G, L):
    cert.check(f"{G.label}: categorical normalizer equals brute force",
               _normalizer_counterexamples(G, normalization_table(G, L)))
    cert.merge(check_normalization_inflationary(L))


def find_non_monotonicity_witness(L):
    op = normalization_operator(L)
    return next(((c, q1, q2) for c in L.site.objects
                 for q1, q2 in itertools.permutations(L.elements(c), 2)
                 if q1.leq(q2) and not op.components[c][q1].leq(op.components[c][q2])),
                None)


def find_non_idempotence_witness(L):
    op = normalization_operator(L)
    return next(((c, q, op.components[c][q], op.components[c][op.components[c][q]])
                 for c in L.site.objects for q in L.elements(c)
                 if op.components[c][op.components[c][q]] != op.components[c][q]),
                None)


def suite_normalize(budget=DEFAULT_BUDGET, fixtures_dir=None):
    cert = Certificate("normalize")
    groups = fixtures.bundled_groups()
    classifiers = {name: build_lsc(groups[name].site(), budget) for name in sorted(groups)}
    LD4 = classifiers["D4"]
    ok, got = d4_normalization_matches(groups["D4"], LD4)
    cert.record("D4: normalization table matches the known diagram", ok,
                None if ok else got)
    for name in sorted(groups):
        _group_oracle_check(cert, groups[name], classifiers[name])
    idem_witness = find_non_idempotence_witness(LD4)
    cert.record("D4: normalization not idempotent", idem_witness is not None,
                idem_witness)
    mono_witness = find_non_monotonicity_witness(LD4)
    cert.record("D4: normalization not order-preserving",
                mono_witness is not None, mono_witness)
    for name in sorted(groups):
        expect_top = name in ("Q8", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6")
        cert.record(f"{name}: normalization constantly top iff Dedekind",
                    normalization_is_top(classifiers[name]) == expect_top)
    for name, site in fixtures.BUNDLED_POSETS.items():
        L = build_lsc(site, budget)
        terminal_xi = all(len(L.elements(c)) == 1 for c in site.objects)
        op = normalization_operator(L)
        identity = all(op.components[c][q] == q
                       for c in site.objects for q in L.elements(c))
        cert.record(f"poset {name}: classifier terminal and operator trivial",
                    terminal_xi and identity)
    Li = build_lsc(fixtures.idempotent_monoid_site(), budget)
    opi = normalization_operator(Li)
    cert.record("idempotent monoid: two states, operator is the identity",
                len(Li.elements("*")) == 2
                and all(opi.components["*"][q] == q for q in Li.elements("*")))
    cert.check("all monoid tables of order <= 3: operator inflationary",
               (mult for elements, mult in fixtures.all_monoids(2) + fixtures.all_monoids(3)
                if not check_normalization_inflationary(build_lsc(
                    monoid_site(elements, lambda a, b: mult[(a, b)]), budget)).ok))
    for path in _fixture_files(fixtures_dir, ".group"):
        G = io.load_group(path)
        _group_oracle_check(cert, G, build_lsc(G.site(), budget))
    return cert


# ---------------------------------------------------------------------------
# filters suite
# ---------------------------------------------------------------------------

def graph_nonfilter_selection(L):
    """The loop-detecting counterexample: keep only the non-loop congruence."""
    discrete_e = next(q for q in L.elements("E") if q.is_discrete())
    return InternalFilter(L, {"V": set(L.elements("V")), "E": {discrete_e}})


def suite_filters(budget=DEFAULT_BUDGET, fixtures_dir=None):
    cert = Certificate("filters")

    Li = build_lsc(fixtures.idempotent_monoid_site(), budget)
    cert.merge(certify_quotient_classifier(top_filter(Li)))

    G = fixtures.dihedral_4()
    LG = build_lsc(G.site(), budget)
    named = fixtures.d4_named_subgroups(G)
    q_s2 = subgroup_to_congruence(G, named["<s2>"])
    F_s2 = filter_generated_by(LG, {"*": [q_s2]})
    cert.record("D4: filter generated by <s2> has five congruences",
                len(F_s2.selection["*"]) == 5, sorted(map(repr, F_s2.selection["*"])))
    cert.merge(certify_quotient_classifier(F_s2))

    Lg = build_lsc(fixtures.graph_site(), budget)
    cert.merge(certify_quotient_classifier(top_filter(Lg)))

    bad = graph_nonfilter_selection(Lg)
    try:
        validate_filter(Lg, bad)
        cert.record("graph: non-filter rejected by validation", False)
    except NotUpwardClosed as exc:
        cert.record("graph: non-filter rejected by validation", True, exc.witness)
    negative = certify_quotient_classifier(bad)
    clause_a = next(c for c in negative.checks if c.name == "F-in-EF")
    cert.record("graph: non-filter fails self-membership with the non-loop witness",
                (not clause_a.passed) and clause_a.witness is not None
                and clause_a.witness.is_discrete(), clause_a.witness)

    # upward-closed but not meet-closed: self-membership alone still holds
    ups = {named[n] for n in ("<t>", "<s2t>", "<t,s2>", "D4")}
    selection = {"*": {subgroup_to_congruence(G, H) for H in ups}}
    upward_only = InternalFilter(LG, selection)
    partial = certify_quotient_classifier(upward_only)
    clause_a = next(c for c in partial.checks if c.name == "F-in-EF")
    cert.record("D4: upward-closed non-filter still contains its own classifier image",
                clause_a.passed, clause_a.witness)

    # comonad on the one-edge graph with the top filter: edge dropped
    gsite = Lg.site
    X = _single_edge_graph(gsite)
    GX = comonad_apply(top_filter(Lg), X)[0]
    cert.record("graph: top-filter comonad keeps the vertices and drops the edge",
                GX.carrier["V"] == X.carrier["V"] and GX.carrier["E"] == ())
    cert.record("filter generated by nothing is the top filter",
                filter_generated_by(Lg, {}) == top_filter(Lg))
    discrete_e = next(q for q in Lg.elements("E") if q.is_discrete())
    cert.record("graph: filter generated by the non-loop congruence is everything",
                filter_generated_by(Lg, {"E": [discrete_e]}) == full_filter(Lg))
    for path in _fixture_files(fixtures_dir, ".cat"):
        L = build_lsc(io.load_category(path), budget)
        cert.merge(certify_quotient_classifier(top_filter(L)))
    return cert


def _single_edge_graph(site):
    carrier = {"V": ("p", "q"), "E": ("e",)}
    action = {"id_V": {"p": "p", "q": "q"}, "id_E": {"e": "e"},
              "s": {"e": "p"}, "t": {"e": "q"}}
    return Presheaf(site, carrier, action)


# ---------------------------------------------------------------------------
# words suite
# ---------------------------------------------------------------------------

FROZEN_REGEX_FACTS = {
    # (regex, alphabet) -> (minimal states, syntactic monoid order), both
    # dual-route checked; the facts hold only over the alphabet named
    ("(ab)*", ("a", "b")): (3, 6),
    ("(a|b)*a", ("a", "b")): (2, 3),
    ("a*", ("a", "b")): (2, 2),
    ("#e", ("a", "b")): (2, 2),
    ("#0", ("a", "b")): (1, 1),
}


# the suite's names for the five verdicts of `words_analysis`, in its order
WORDS_LABELS = (
    "nerode index equals minimal state count",
    "residual refinement oracle agrees",
    "orbit meet equals syntactic congruence",
    "syntactic refines nerode",
    "normalization inflationary",
)


def _check_regex_fixture(cert, expr, alphabet):
    d, rc, tm, syn, _, verdicts = words_analysis(regex_to_min_dfa(expr, alphabet))
    for label, check in zip(WORDS_LABELS, verdicts.checks):
        cert.record(f"{expr}: {label}", check.passed)
    if (expr, tuple(alphabet)) in FROZEN_REGEX_FACTS:
        states, order = FROZEN_REGEX_FACTS[expr, tuple(alphabet)]
        cert.record(f"{expr}: frozen minimal-state count {states}", d.n == states, d.n)
        cert.record(f"{expr}: frozen syntactic monoid order {order}",
                    tm.order == order, tm.order)
        brute = residual_count_by_words(parse_regex(expr, alphabet), alphabet,
                                        2 * d.n, 2 * d.n + 1)
        cert.record(f"{expr}: word-enumeration residual oracle agrees",
                    brute == rc.index, brute)
    return d, rc, syn


def _action_meet_counterexamples(compiled):
    """Action/meet coherence on pairs of the first five fixtures over "ab"."""
    sample_words = words_upto(("a", "b"), 3)
    for (e1, _), (e2, _) in itertools.combinations(
            [(e, a) for e, a in fixtures.BUNDLED_REGEXES if a == "ab"][:5], 2):
        rc1 = compiled[e1][1]
        rc2 = compiled[e2][1]
        both = congruence_meet(rc1, rc2)
        for w in sample_words:
            lhs = congruence_action(both, w)
            rhs = congruence_meet(congruence_action(rc1, w), congruence_action(rc2, w))
            if lhs != rhs:
                yield (e1, e2, w)
            if congruence_action(rc1, w).index > rc1.index:
                yield (e1, w, "index increased")


def _two_sided_oracle_counterexamples(compiled):
    """Word pairs where the brute-force two-sided test and the transition
    monoid disagree, on the small fixtures."""
    for expr in ("(ab)*", "(a|b)*a"):
        d, _, syn = compiled[expr]
        yield from ((expr, u, v)
                    for u in words_upto(("a", "b"), 2) for v in words_upto(("a", "b"), 2)
                    if syntactically_equivalent_bruteforce(d, u, v) != syn.related(u, v))


def _random_identity_counterexamples(rng):
    """The Myhill-Nerode and orbit-infimum identities on 20 random minimal
    DFAs: each failed verdict among the first four of `words_analysis`."""
    for _ in range(20):
        d = random_min_dfa(rng, 6, "ab")
        yield from ((d, c.name) for c in words_analysis(d)[-1].checks[:4] if not c.passed)


def _inflation_counterexamples(rng):
    """Normalization inflationary on 50 random minimal DFAs over 2 and 3 letters."""
    for i in range(50):
        d = random_min_dfa(rng, 6, "ab" if i % 2 == 0 else "abc")
        rc = nerode_congruence(d)
        if not congruence_leq(rc, words_normalization_operator(rc)):
            yield d


def _isomorphism_counterexamples(rng):
    """Canonicalization soundness against the backtracking isomorphism finder."""
    for i in range(200):
        rows_a, init_a = _random_trim_automaton(rng)
        if i % 2 == 0:
            # a shuffled relabelling: isomorphic by construction
            n = len(rows_a)
            perm = list(range(n))
            rng.shuffle(perm)
            rows_b = [None] * n
            for s in range(n):
                rows_b[perm[s]] = [perm[t] for t in rows_a[s]]
            init_b = perm[init_a]
        else:
            rows_b, init_b = _random_trim_automaton(rng)
        ca = RightCongruence(("a", "b"), rows_a, init_a)
        cb = RightCongruence(("a", "b"), rows_b, init_b)
        iso = find_pointed_isomorphism((rows_a, init_a), (rows_b, init_b))
        if (ca == cb) != (iso is not None):
            yield (rows_a, init_a, rows_b, init_b)


def _embedding_counterexamples(compiled):
    """Classifying states is invariant under equivariant embeddings."""
    other = compiled["a*"][1]
    for expr in ("(ab)*", "a(a|b)*"):
        rc = compiled[expr][1]
        rows = _disjoint_union_states(rc, other)
        yield from ((expr, q) for q in range(rc.n)
                    if RightCongruence(("a", "b"), rows, q) != state_congruence(rc, q))


def _disjoint_union_states(a, b):
    """Transition rows of the disjoint union of two congruence automata."""
    rows = [list(r) for r in a.delta]
    rows += [[t + a.n for t in r] for r in b.delta]
    return rows


def _random_trim_automaton(rng, max_states=5):
    """A random total automaton restricted to its reachable part, keeping the
    original (non-canonical) state numbering."""
    n = rng.randint(1, max_states)
    rows = [[rng.randrange(n) for _ in "ab"] for _ in range(n)]
    init = rng.randrange(n)
    keep = sorted(_ball(init, rows.__getitem__, n))
    renumber = {s: i for i, s in enumerate(keep)}
    trimmed = [[renumber[rows[s][a]] for a in range(2)] for s in keep]
    return trimmed, renumber[init]


def suite_words(budget=DEFAULT_BUDGET, fixtures_dir=None):
    cert = Certificate("words")
    compiled = {}
    for expr, alphabet in fixtures.BUNDLED_REGEXES:
        compiled[expr] = _check_regex_fixture(cert, expr, alphabet)

    # frozen lattice facts
    rc_enda = compiled["(a|b)*a"][1]
    rc_endb = nerode_congruence(regex_to_min_dfa("(a|b)*b", "ab"))
    cert.record("meet of the ends-in-a and ends-in-b congruences has index 3",
                congruence_meet(rc_enda, rc_endb).index == 3)
    cert.record("(ab)* action: rc * a equals the nerode congruence of b(ab)*",
                congruence_action(compiled["(ab)*"][1], "a") == compiled["b(ab)*"][1])
    top = top_congruence(("a", "b"))
    cert.record("top congruence is fixed by the action and by normalization",
                congruence_action(top, "ab") == top
                and words_normalization_operator(top) == top)
    rc3 = compiled["a(a|b)*"][1]
    cert.record("a-prefixed language: three classes normalize to two",
                rc3.index == 3 and words_normalization_operator(rc3).index == 2)

    cert.check("action commutes with meets and never raises the index",
               _action_meet_counterexamples(compiled))
    cert.check("two-sided brute-force oracle agrees with the transition monoid",
               _two_sided_oracle_counterexamples(compiled))
    cert.check("20 random minimal DFAs: nerode, orbit-infimum and refinement identities",
               _random_identity_counterexamples(random.Random(SEED_WORDS)))
    cert.check("50 random minimal DFAs: normalization inflationary",
               _inflation_counterexamples(random.Random(SEED_INFLATION)))
    cert.check("200 random pairs: structural equality iff pointed isomorphism",
               _isomorphism_counterexamples(random.Random(SEED_ISO)))
    cert.check("state classification invariant under disjoint-union embedding",
               _embedding_counterexamples(compiled))

    for path in _fixture_files(fixtures_dir, ".dfa"):
        index, residual, orbit = words_analysis(io.load_dfa(path))[-1].checks[:3]
        cert.record(f"{path.name}: {WORDS_LABELS[0]}", index.passed and residual.passed)
        cert.record(f"{path.name}: {WORDS_LABELS[2]}", orbit.passed)
    for path in _fixture_files(fixtures_dir, ".regex"):
        _check_regex_fixture(cert, *io.load_regex(path))
    return cert


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

SUITES = {
    "lsc": suite_lsc,
    "normalize": suite_normalize,
    "filters": suite_filters,
    "words": suite_words,
}


def _fixture_files(fixtures_dir, suffix):
    if fixtures_dir is None:
        return []
    root = Path(fixtures_dir)
    if not root.is_dir():
        raise InputFormatError(f"fixtures directory {fixtures_dir!r} does not exist")
    return sorted(p for p in root.iterdir() if p.name.endswith(suffix))


def run_suite(name="all", budget=DEFAULT_BUDGET, fixtures_dir=None):
    if name == "all":
        cert = Certificate("all")
        for suite in SUITES.values():
            cert.merge(suite(budget, fixtures_dir))
        return cert
    if name not in SUITES:
        raise InputFormatError(f"unknown suite {name!r}")
    return SUITES[name](budget, fixtures_dir)
