import hashlib
import itertools
from collections import Counter

import pytest

from toposlsc import fincat, fixtures, io
from toposlsc.errors import (
    AssociativityViolation,
    BudgetExceeded,
    ElementNotInCarrier,
    FunctorialityViolation,
    IdentityViolation,
    IllTypedComposite,
    NaturalityViolation,
    NonRepresentableSource,
    NotParallel,
    UnknownObject,
)
from toposlsc.fincat import (
    FiniteCategory,
    Presheaf,
    PresheafMorphism,
    RepCongruence,
    coproduct,
    enumerate_morphisms,
    enumerate_quotient_objects,
    equalizer,
    image_quotient,
    product,
    quotient_of_representable,
    representable,
    subpresheaf,
    terminal,
    yoneda_morphism,
)
from toposlsc.lsc import build_lsc, xi_component
from toposlsc.normalize import monoid_site
from toposlsc.reports import lsc_report, render


# --- independent oracle: Bell-number partition enumeration -------------------

def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


def right_compatible(q):
    """u ~ v implies u*g ~ v*g for every g into their common source."""
    site, into = q.site, q.site.morphisms_into(q.base_object)
    return all(q.related(site.compose(u, g), site.compose(v, g))
               for u in into for v in into if site.src[u] == site.src[v] and q.related(u, v)
               for g in site.morphisms_into(site.src[u]))


def brute_partitions(cat, c):
    """(input blocks, congruence) for each right-compatible partition among
    all object-respecting ones."""
    per_object = [list(set_partitions(cat.hom(a, c))) for a in cat.objects]
    for combo in itertools.product(*per_object):
        blocks = dict(zip(cat.objects, combo))
        block_of = {u: k for part in combo for k, b in enumerate(part) for u in b}
        q = RepCongruence.from_labels(cat, c, block_of.__getitem__)
        if right_compatible(q):
            yield blocks, q


def brute_quotient_objects(cat, c):
    return {q for _, q in brute_partitions(cat, c)}


# --- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    return fixtures.graph_site()


@pytest.fixture(scope="module")
def idem():
    return fixtures.idempotent_monoid_site()


def full_transformation_monoid(then):
    """T3, all 27 maps of {0, 1, 2}, named by their image strings ("012" is
    the identity); a*b is "a then b" if ``then``, else "a after b"."""
    names = ["".join(map(str, f)) for f in itertools.product(range(3), repeat=3)]

    def mult(a, b):
        first, second = (a, b) if then else (b, a)
        return "".join(second[int(first[i])] for i in range(3))

    return monoid_site(names, mult)


# --- category validation -------------------------------------------------------

def test_validate_category_accepts_idempotent_monoid_table(idem):
    data = {
        "objects": ["*"],
        "morphisms": [{"name": "1", "src": "*", "dst": "*"},
                      {"name": "x", "src": "*", "dst": "*"}],
        "identities": {"*": "1"},
        "composition": [{"g": "1", "f": "1", "result": "1"},
                        {"g": "1", "f": "x", "result": "x"},
                        {"g": "x", "f": "1", "result": "x"},
                        {"g": "x", "f": "x", "result": "x"}],
    }
    cat = io.load_category(data)
    assert cat.hom("*", "*") == ("1", "x")


def test_validate_category_accepts_graph_site(graph):
    assert graph.validate() is graph
    assert graph.hom("V", "E") == ("s", "t")
    assert graph.hom("E", "V") == ()


def test_associativity_violation_names_the_triple():
    # x*x = y, x*y = x, y*x = y, y*y = x breaks on (x, x, x)
    morphisms = [("e", "*", "*"), ("x", "*", "*"), ("y", "*", "*")]
    comp = {("e", "e"): "e", ("e", "x"): "x", ("e", "y"): "y",
            ("x", "e"): "x", ("y", "e"): "y",
            ("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "y", ("y", "y"): "x"}
    with pytest.raises(AssociativityViolation) as err:
        FiniteCategory(["*"], morphisms, {"*": "e"}, comp)
    assert {err.value.h, err.value.g, err.value.f} <= {"x", "y"}


def test_identity_violation_detected():
    morphisms = [("e", "*", "*"), ("x", "*", "*")]
    comp = {("e", "e"): "e", ("e", "x"): "e",  # e*x should be x
            ("x", "e"): "x", ("x", "x"): "x"}
    with pytest.raises(IdentityViolation):
        FiniteCategory(["*"], morphisms, {"*": "e"}, comp)


def test_missing_composite_is_ill_typed():
    morphisms = [("e", "*", "*"), ("x", "*", "*")]
    comp = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x"}
    with pytest.raises(IllTypedComposite):
        FiniteCategory(["*"], morphisms, {"*": "e"}, comp)


# --- representables ----------------------------------------------------------------

def test_representable_of_one_object_monoid_is_right_multiplication(idem):
    y = representable(idem, "*")
    assert y.elements("*") == ("1", "x")
    assert y.act("1", "x") == "x" and y.act("x", "x") == "x"


def test_representable_sizes_on_graph_site(graph):
    yE = representable(graph, "E")
    yV = representable(graph, "V")
    assert len(yE.elements("E")) == 1 and len(yE.elements("V")) == 2
    assert len(yV.elements("V")) == 1 and len(yV.elements("E")) == 0


def test_representable_unknown_object(graph):
    with pytest.raises(UnknownObject):
        representable(graph, "W")


# --- yoneda morphisms ------------------------------------------------------------------

def _single_edge(graph):
    return Presheaf(graph, {"V": ("p", "q"), "E": ("e",)},
                    {"id_V": {"p": "p", "q": "q"}, "id_E": {"e": "e"},
                     "s": {"e": "p"}, "t": {"e": "q"}})


def _loop(graph):
    return Presheaf(graph, {"V": ("v",), "E": ("l",)},
                    {"id_V": {"v": "v"}, "id_E": {"l": "l"},
                     "s": {"l": "v"}, "t": {"l": "v"}})


def test_yoneda_morphism_of_fixed_point_is_constant(idem):
    X = Presheaf(idem, {"*": ("p", "r")},
                 {"1": {"p": "p", "r": "r"}, "x": {"p": "p", "r": "p"}})
    m = yoneda_morphism(X, "*", "p")
    assert set(m.components["*"].values()) == {"p"}


def test_yoneda_morphism_at_identity_is_identity(graph):
    y = representable(graph, "E")
    m = yoneda_morphism(y, "E", "id_E")
    assert all(m.components[c][u] == u for c in graph.objects for u in y.elements(c))


def test_yoneda_morphism_of_edge_hits_its_endpoints(graph):
    X = _single_edge(graph)
    m = yoneda_morphism(X, "E", "e")
    assert m.components["E"]["id_E"] == "e"
    assert m.components["V"]["s"] == "p" and m.components["V"]["t"] == "q"


def test_yoneda_morphism_rejects_foreign_element(graph):
    with pytest.raises(ElementNotInCarrier):
        yoneda_morphism(_loop(graph), "E", "nope")


# --- image quotients -----------------------------------------------------------------

def test_image_quotient_of_fixed_point_is_total(idem):
    X = Presheaf(idem, {"*": ("p",)}, {"1": {"p": "p"}, "x": {"p": "p"}})
    q = image_quotient(yoneda_morphism(X, "*", "p"))
    assert q.is_total()


def test_image_quotient_detects_loops(graph):
    non_loop = image_quotient(yoneda_morphism(_single_edge(graph), "E", "e"))
    loop = image_quotient(yoneda_morphism(_loop(graph), "E", "l"))
    assert non_loop.is_discrete()
    assert loop.related("s", "t")
    assert not non_loop.related("s", "t")


def test_image_quotient_requires_representable_source(graph):
    X = _single_edge(graph)
    m = enumerate_morphisms(X, X)[0]
    with pytest.raises(NonRepresentableSource):
        image_quotient(m)


def test_image_quotient_stable_under_coproduct_embedding(graph, idem):
    for site, X, c, x in [(graph, _single_edge(graph), "E", "e"),
                          (graph, _loop(graph), "E", "l")]:
        Y = _loop(graph)
        P, inl, _ = coproduct(X, Y)
        q_small = image_quotient(yoneda_morphism(X, c, x))
        q_big = image_quotient(yoneda_morphism(P, c, ("l", x)))
        assert q_small == q_big


# --- quotient-object enumeration ----------------------------------------------------

def test_enumeration_matches_brute_force_on_small_sites(graph, idem):
    for site, c in [(graph, "E"), (graph, "V"), (idem, "*")]:
        assert set(enumerate_quotient_objects(site, c)) == brute_quotient_objects(site, c)


SMALL_SITES = ([("chain3", fixtures.chain_site(3), c) for c in ("c0", "c1", "c2")]
               + [("vee", fixtures.vee_site(), c) for c in ("a", "b", "c")]
               + [(f"monoid3-{i}", monoid_site(elements, lambda a, b, m=mult: m[(a, b)]), "*")
                  for i, (elements, mult) in enumerate(fixtures.all_monoids(3))]
               + [("Z4", fixtures.cyclic_group(4).site(), "*"),
                  ("S3", fixtures.symmetric_3().site(), "*")])


@pytest.mark.parametrize("site, c", [(site, c) for _, site, c in SMALL_SITES],
                         ids=[f"{name}-{c}" for name, _, c in SMALL_SITES])
def test_enumeration_matches_brute_force_on_more_sites(site, c):
    assert set(enumerate_quotient_objects(site, c)) == brute_quotient_objects(site, c)


def _pairs(blocks):
    return frozenset((u, v) for bs in blocks.values() for b in bs for u in b for v in b)


# m1 * m2 = m2 and m2 * m1 = m1: the order-3 monoid with the most congruences (5)
MONOID3_ELEMENTS, MONOID3_MULT = fixtures.all_monoids(3)[5]
ORACLE_SITES = [("graph", fixtures.graph_site()), ("chain3", fixtures.chain_site(3)),
                ("vee", fixtures.vee_site()), ("idempotent", fixtures.idempotent_monoid_site()),
                ("monoid3-5", monoid_site(MONOID3_ELEMENTS, lambda a, b: MONOID3_MULT[(a, b)]))]


@pytest.mark.parametrize("site", [site for _, site in ORACLE_SITES],
                         ids=[name for name, _ in ORACLE_SITES])
def test_relation_operations_match_the_input_blocks(site):
    # every expectation comes from the blocks handed to the constructor, and
    # each result is looked up by its relation among the brute-force partitions
    idx = site.mor_index
    parts = {c: list(brute_partitions(site, c)) for c in site.objects}
    by_relation = {c: {_pairs(blocks): q for blocks, q in parts[c]} for c in site.objects}
    for c in site.objects:
        for blocks, q in parts[c]:
            canon = {a: tuple(sorted((tuple(sorted(b, key=idx.get)) for b in blocks[a]),
                                     key=lambda b: idx[b[0]]))
                     for a in site.objects}
            assert q.blocks == canon
            r = _pairs(blocks)
            for blocks2, q2 in parts[c]:
                r2 = _pairs(blocks2)
                assert q.meet(q2) == by_relation[c][r & r2]
                assert q.leq(q2) == (r <= r2)
            for f in site.morphisms_into(c):
                pulled = frozenset((u, v) for u in site.morphisms_into(site.src[f])
                                   for v in site.morphisms_into(site.src[f])
                                   if (site.compose(f, u), site.compose(f, v)) in r)
                assert q.precompose(f) == by_relation[site.src[f]][pulled]


def principal_labels(site, c, u, v):
    """theta(u, v) as labels: blocks merged along (u*g, v*g) for every g into
    src(u), then numbered by first occurrence in y(c)."""
    into, comp = site.morphisms_into(c), site.composition
    block = {w: {w} for w in into}
    for g in site.morphisms_into(site.src[u]):
        x, y = block[comp[(u, g)]], block[comp[(v, g)]]
        if x is not y:
            for w in y:
                x.add(w)
                block[w] = x
    ids = {}
    return tuple(ids.setdefault(id(block[w]), len(ids)) for w in into)


def all_pairs_principals(site, c):
    """theta(u, v) for every pair u, v of each Hom(a, c), first-seen order."""
    return list(dict.fromkeys(principal_labels(site, c, u, v)
                              for a in site.objects for hom in [site.hom(a, c)]
                              for i, u in enumerate(hom) for v in hom[i + 1:]))


PRINCIPAL_SITES = [("T3-then", full_transformation_monoid(then=True), "*"),
                   ("T3-after", full_transformation_monoid(then=False), "*"),
                   ("S4", fixtures.symmetric_4().site(), "*"),
                   ("D4", fixtures.dihedral_4().site(), "*"),
                   ("S5", fixtures.symmetric_group(5).site(), "*")] + \
                  [("graph", fixtures.graph_site(), c) for c in ("V", "E")]


@pytest.mark.parametrize("site, c", [(site, c) for _, site, c in PRINCIPAL_SITES],
                         ids=[f"{name}-{c}" for name, _, c in PRINCIPAL_SITES])
def test_principals_up_to_automorphisms_keep_the_all_pairs_order(site, c):
    pairs, links = fincat._principals(site, c)
    into = site.morphisms_into(c)
    spanned = [fincat.RepCongruence._from_keys(site, c, fincat._union_find(len(into), ln))
               for ln in links]
    assert [p.labels for p in spanned] == all_pairs_principals(site, c)
    for (i, j), ln, p in zip(pairs, links, spanned):
        # the kept pair lies in one Hom(a, c) and generates the partition its
        # links span, with one link fewer than each block's size
        assert i < j and site.src[into[i]] == site.src[into[j]]
        assert principal_labels(site, c, into[i], into[j]) == p.labels
        assert len(ln) == len(into) - p.block_count()


@pytest.mark.parametrize("site, union_finds, count", [
    (fixtures.symmetric_group(5).site(), 72, 66),      # 7140 pairs, an orbit per {x, x^-1}
    (full_transformation_monoid(then=True), 65, 44),  # 351 pairs, Aut = S3
], ids=["S5", "T3-then"])
def test_principals_take_one_union_find_per_automorphism_orbit(site, union_finds, count,
                                                                monkeypatch):
    calls = []
    union_find = fincat._union_find

    def counted(n, links):
        calls.append(n)
        return union_find(n, links)

    monkeypatch.setattr(fincat, "_union_find", counted)
    assert len(fincat._principals(site, "*")[0]) == count
    assert len(calls) == union_finds


@pytest.mark.parametrize("site, count", [
    (fixtures.symmetric_4().site(), 30), (fixtures.symmetric_group(5).site(), 156),
    (full_transformation_monoid(then=True), 287), (full_transformation_monoid(then=False), 120),
    (fixtures.dihedral_4().site(), 10),
], ids=["S4", "S5", "T3-then", "T3-after", "D4"])
def test_each_quotient_object_is_made_once(site, count):
    # with the cap at |Xi|, a single element made twice exceeds it
    qs = enumerate_quotient_objects(site, "*", cap=count)
    assert len(set(qs)) == len(qs) == count


def test_enumeration_counts():
    idem = fixtures.idempotent_monoid_site()
    assert len(enumerate_quotient_objects(idem, "*")) == 2
    graph = fixtures.graph_site()
    assert len(enumerate_quotient_objects(graph, "E")) == 2
    z2 = fixtures.cyclic_group(2).site()
    qs = enumerate_quotient_objects(z2, "*")
    assert len(qs) == 2 == len(brute_quotient_objects(z2, "*"))


def test_enumeration_of_z3_matches_subgroup_count():
    z3 = fixtures.cyclic_group(3).site()
    qs = enumerate_quotient_objects(z3, "*")
    assert set(qs) == brute_quotient_objects(z3, "*")
    assert len(qs) == 2  # only the trivial subgroup and the whole group


def test_enumeration_contains_extremes_and_is_meet_closed(graph):
    for site, c in [(graph, "E"), (fixtures.idempotent_monoid_site(), "*"),
                    (fixtures.cyclic_group(4).site(), "*")]:
        qs = set(enumerate_quotient_objects(site, c))
        assert RepCongruence.total(site, c) in qs
        assert RepCongruence.discrete(site, c) in qs
        for q1 in qs:
            for q2 in qs:
                assert q1.meet(q2) in qs


def test_enumeration_budget():
    s4 = fixtures.symmetric_4().site()
    with pytest.raises(BudgetExceeded) as err:
        enumerate_quotient_objects(s4, "*", cap=10)
    assert err.value.size == 24 and err.value.cap == 10


@pytest.mark.parametrize("site, cap", [
    (fixtures.symmetric_4().site(), 25),          # |y(*)| = 24, |Xi| = 30
    (full_transformation_monoid(then=True), 30),  # |y(*)| = 27, 44 principals
], ids=["S4", "T3"])
def test_enumeration_budget_between_representable_and_classifier(site, cap):
    with pytest.raises(BudgetExceeded) as err:
        enumerate_quotient_objects(site, "*", cap=cap)
    assert err.value.size == cap + 1 and err.value.cap == cap
    assert "quotient objects of y('*')" in str(err.value)


@pytest.mark.parametrize("then, count, digest", [
    (True, 287, "8e5590403ac68fc2643afc2c1717e93785827a8a1aa86fbfbdb3970968b5865a"),
    (False, 120, "fadfb858eb2f3f36c9958bbaa23ea322801d733996c6ce0475a023037f4bd84c"),
], ids=["then", "after"])
def test_full_transformation_monoid_classifier_is_pinned(then, count, digest):
    qs = enumerate_quotient_objects(full_transformation_monoid(then), "*")
    assert len(qs) == count
    keys = repr([q.sort_key() for q in qs]).encode()
    assert hashlib.sha256(keys).hexdigest() == digest


def test_full_transformation_monoid_lsc_report_is_pinned():
    # the derived blocks and the action, normalization, meet and leq tables
    # of a 27-arrow site, |Xi| = 120, rendered as the CLI's lsc report
    L = build_lsc(full_transformation_monoid(then=False))
    text = render(lsc_report(L), "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2f4adcae861af7984e3751d04a3f205c01fcfb51da566edfbef6891419dca925"


def test_enumeration_is_deterministic(graph):
    a = enumerate_quotient_objects(graph, "E")
    b = enumerate_quotient_objects(graph, "E")
    assert a == b


def test_disconnected_site_has_empty_hom_sets():
    # two isolated objects: every representable is empty away from its base
    cat = FiniteCategory(["a", "b"],
                         [("id_a", "a", "a"), ("id_b", "b", "b")],
                         {"a": "id_a", "b": "id_b"},
                         {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b"})
    ya = representable(cat, "a")
    assert ya.elements("a") == ("id_a",) and ya.elements("b") == ()
    qs = enumerate_quotient_objects(cat, "a")
    assert len(qs) == 1
    assert qs[0].blocks["b"] == ()  # a partition of the empty set is empty


# --- canonical forms --------------------------------------------------------------------

def test_congruence_equality_iff_same_canonical_form(idem):
    # one block, labelled two ways
    q1 = RepCongruence.from_labels(idem, "*", {"x": "k", "1": "k"}.__getitem__)
    q2 = RepCongruence.from_labels(idem, "*", {"1": 0, "x": 0}.__getitem__)
    assert q1 == q2 and hash(q1) == hash(q2)
    assert q1 != RepCongruence.discrete(idem, "*")


def test_congruences_of_another_site_are_not_equal(idem):
    # the same block ids on differently named arrows are a different partition
    z2 = fixtures.cyclic_group(2).site()
    for make in (RepCongruence.discrete, RepCongruence.total):
        assert make(z2, "*").labels == make(idem, "*").labels
        assert make(z2, "*") != make(idem, "*")
    assert RepCongruence.discrete(z2, "*") == RepCongruence.discrete(
        fixtures.cyclic_group(2).site(), "*")


def test_quotient_of_representable_is_functorial(graph):
    for q in enumerate_quotient_objects(graph, "E"):
        quotient_of_representable(q).check_functorial()


# --- limits ---------------------------------------------------------------------------------

def test_product_sizes(idem):
    X = Presheaf(idem, {"*": ("a", "b")}, {"1": {"a": "a", "b": "b"},
                                           "x": {"a": "a", "b": "a"}})
    Y = Presheaf(idem, {"*": ("p", "q", "r")},
                 {"1": {"p": "p", "q": "q", "r": "r"},
                  "x": {"p": "p", "q": "p", "r": "r"}})
    P = product(idem, [X, Y])
    assert len(P.elements("*")) == 6
    P.check_functorial()
    assert terminal(idem).size() == 1


def test_equalizer_of_equal_maps_is_domain(graph):
    X = _single_edge(graph)
    f = enumerate_morphisms(X, X)[0]
    E, incl = equalizer(f, f)
    assert E.carrier == X.carrier
    assert incl.is_mono()


def test_equalizer_requires_parallel_pair(graph, idem):
    X = _single_edge(graph)
    L = _loop(graph)
    f = enumerate_morphisms(X, L)[0]
    g = enumerate_morphisms(L, L)[0]
    with pytest.raises(NotParallel):
        equalizer(f, g)


def test_mono_detection(graph):
    X = _single_edge(graph)
    L = _loop(graph)
    collapse = enumerate_morphisms(X, L)[0]
    assert not collapse.is_mono()  # both vertices land on the loop's vertex
    P, inl, inr = coproduct(X, L)
    assert inl.is_mono() and inr.is_mono()


# --- morphism enumeration against every family of component functions -----------------

def brute_morphisms(X, Y):
    """Try every choice of images and keep the natural families."""
    keys = [(c, x) for c in X.site.objects for x in X.elements(c)]
    found = []
    for images in itertools.product(*(Y.elements(c) for c, _ in keys)):
        comps = {c: {} for c in X.site.objects}
        for (c, x), y in zip(keys, images):
            comps[c][x] = y
        try:
            found.append(PresheafMorphism(X, Y, comps))
        except NaturalityViolation:
            continue
    return found


def _images(X, morphisms):
    return [tuple(m.components[c][x] for c in X.site.objects for x in X.elements(c))
            for m in morphisms]


def _morphism_samples(site):
    """Terminal, every representable, every quotient y(c)/q, one coproduct."""
    reps = [representable(site, c) for c in site.objects]
    quotients = [quotient_of_representable(q) for c in site.objects
                 for q in enumerate_quotient_objects(site, c)]
    return [terminal(site), *reps, *quotients, coproduct(terminal(site), reps[0])[0]]


@pytest.mark.parametrize("site", [fixtures.graph_site(), fixtures.idempotent_monoid_site(),
                                  fixtures.chain_site(3), fixtures.cyclic_group(4).site()],
                         ids=["graph", "idempotent", "chain3", "Z4"])
def test_enumerate_morphisms_matches_brute_force(site):
    samples = _morphism_samples(site)
    for X, Y in itertools.product(samples, repeat=2):
        listed = enumerate_morphisms(X, Y)
        images = _images(X, listed)
        assert Counter(images) == Counter(_images(X, brute_morphisms(X, Y)))
        assert len(set(images)) == len(images)
        injective = [key for key, m in zip(images, listed)
                     if all(len(set(m.components[c].values())) == len(X.elements(c))
                            for c in site.objects)]
        assert _images(X, enumerate_morphisms(X, Y, injective_only=True)) == injective
        for k in (1, 2, 3):
            assert _images(X, enumerate_morphisms(X, Y, limit=k)) == images[:k]
            # the cocone clause's combination: the pruned search stops after k injective maps
            assert _images(X, enumerate_morphisms(X, Y, injective_only=True,
                                                  limit=k)) == injective[:k]


def test_no_injective_map_into_a_smaller_object(graph):
    E, T = representable(graph, "E"), terminal(graph)
    assert len(E.elements("V")) > len(T.elements("V"))
    assert len(enumerate_morphisms(E, T)) == 1  # the one map collapses both vertices
    assert enumerate_morphisms(E, T, injective_only=True) == []
    assert enumerate_morphisms(E, T, injective_only=True, limit=1) == []


PRODUCT_SITES = [fixtures.graph_site(), fixtures.chain_site(3),
                 fixtures.idempotent_monoid_site(), fixtures.cyclic_group(4).site()]


@pytest.mark.parametrize("site", PRODUCT_SITES, ids=["graph", "chain3", "idempotent", "Z4"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_product_table_is_the_pointwise_action(site, n, monkeypatch):
    samples = _morphism_samples(site)
    factors = [samples[(3 * i + 1) % len(samples)] for i in range(n)]

    def refuse(self, x, f):
        raise AssertionError("product acted element by element")

    with monkeypatch.context() as patched:
        patched.setattr(Presheaf, "act", refuse)
        P = product(site, factors)
    for c in site.objects:
        assert P.carrier[c] == tuple(itertools.product(*(X.elements(c) for X in factors)))
    for f, _, d in site.morphisms:
        for xs in P.carrier[d]:
            assert P.action[f][xs] == tuple(X.act(x, f) for X, x in zip(factors, xs))
    checked = Presheaf(site, P.carrier, P.action)  # the public constructor checks the laws
    assert checked == P


@pytest.mark.parametrize("site", PRODUCT_SITES, ids=["graph", "chain3", "idempotent", "Z4"])
def test_derived_structures_pass_the_checked_constructors(site):
    presheaves, morphisms = [], []

    def sub(X, keep):
        S, incl = subpresheaf(X, keep)
        assert all(S.carrier[c] == tuple(x for x in X.carrier[c] if x in keep[c])
                   for c in site.objects)
        presheaves.append(S)
        morphisms.append(incl)

    samples = _morphism_samples(site)  # terminal, y(c), y(c)/q, one coproduct
    presheaves += samples
    for X, Y in zip(samples, samples[1:]):
        presheaves.append(product(site, [X, Y]))
        P, inl, inr = coproduct(X, Y)
        presheaves.append(P)
        morphisms += [inl, inr]
    unequal = 0
    for X, Y in itertools.product(samples, repeat=2):
        fs = enumerate_morphisms(X, Y)
        morphisms += fs
        for f, g in itertools.combinations(fs[:3], 2):
            E, incl = equalizer(f, g)
            presheaves.append(E)
            morphisms.append(incl)
            unequal += E.carrier != X.carrier
    assert unequal > 0  # some equalizer is a proper subpresheaf
    for X in samples:
        for c in site.objects:
            for x in X.carrier[c]:
                y = yoneda_morphism(X, c, x)
                morphisms.append(y)
                # the subpresheaf x generates is the image of its Yoneda map
                sub(X, {a: set(comp.values()) for a, comp in y.components.items()})
    L = build_lsc(site)
    presheaves.append(L)
    morphisms += [xi_component(L, X) for X in presheaves]
    for X in presheaves:
        assert all(type(X.carrier[c]) is tuple for c in site.objects), X
        assert Presheaf(site, X.carrier, X.action) == X
    for m in morphisms:
        assert PresheafMorphism(m.source, m.target, m.components) == m


def test_functoriality_check_rejects_bad_action(idem):
    with pytest.raises(Exception):
        Presheaf(idem, {"*": ("a", "b")},
                 {"1": {"a": "b", "b": "a"},  # identity must not move elements
                  "x": {"a": "a", "b": "a"}})


def test_a_carrier_listing_an_element_twice_is_rejected():
    z2 = fixtures.cyclic_group(2).site()
    with pytest.raises(FunctorialityViolation, match=r"X\('\*'\) lists 'x' twice"):
        Presheaf(z2, {"*": ["x", "x"]}, {m: {"x": "x"} for m, _, _ in z2.morphisms})
