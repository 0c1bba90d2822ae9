import hashlib
import itertools
from collections import Counter

import pytest

from toposlsc import fixtures
from toposlsc.errors import (
    AssociativityViolation,
    BudgetExceeded,
    ElementNotInCarrier,
    IdentityViolation,
    IllTypedComposite,
    NaturalityViolation,
    NonRepresentableSource,
    NotParallel,
    ObjectMismatch,
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
    terminal,
    validate_category,
    yoneda_morphism,
)
from toposlsc.normalize import monoid_site


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


def brute_quotient_objects(cat, c):
    """Filter right-compatible partitions out of all object-respecting ones."""
    per_object = [list(set_partitions(cat.hom(a, c))) for a in cat.objects]
    found = set()
    for combo in itertools.product(*per_object):
        blocks = dict(zip(cat.objects, combo))
        q = RepCongruence(cat, c, blocks)
        try:
            q.check_right_compatible()
        except Exception:
            continue
        found.add(q)
    return found


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
    cat = validate_category(data)
    assert cat.hom("*", "*") == ("1", "x")


def test_validate_category_accepts_graph_site(graph):
    assert validate_category(graph) is graph
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


@pytest.mark.parametrize("site", [fixtures.graph_site(), fixtures.chain_site(3),
                                  fixtures.idempotent_monoid_site(),
                                  fixtures.dihedral_4().site()],
                         ids=["graph", "chain3", "idempotent", "D4"])
def test_join_is_the_least_upper_bound_in_xi(site):
    for c in site.objects:
        qs = enumerate_quotient_objects(site, c)
        for q1, q2 in itertools.product(qs, repeat=2):
            j = q1.join(q2)
            assert j in qs
            assert q1.leq(j) and q2.leq(j)
            assert all(j.leq(r) for r in qs if q1.leq(r) and q2.leq(r))


def test_join_across_objects_is_an_object_mismatch(graph):
    with pytest.raises(ObjectMismatch):
        RepCongruence.discrete(graph, "E").join(RepCongruence.discrete(graph, "V"))


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
    q1 = RepCongruence(idem, "*", {"*": [["x", "1"]]})
    q2 = RepCongruence(idem, "*", {"*": [["1", "x"]]})
    assert q1 == q2 and hash(q1) == hash(q2)
    assert q1 != RepCongruence.discrete(idem, "*")


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


def test_functoriality_check_rejects_bad_action(idem):
    with pytest.raises(Exception):
        Presheaf(idem, {"*": ("a", "b")},
                 {"1": {"a": "b", "b": "a"},  # identity must not move elements
                  "x": {"a": "a", "b": "a"}})
