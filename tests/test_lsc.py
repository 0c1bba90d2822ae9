import pytest

from toposlsc import fixtures
from toposlsc.errors import ObjectMismatch, SiteMismatch
from toposlsc.fincat import (
    Presheaf,
    RepCongruence,
    coproduct,
    image_quotient,
    quotient_of_representable,
    representable,
    yoneda_morphism,
)
from toposlsc.lsc import build_lsc, verify_meet_compatibility, xi_component
from toposlsc.normalize import subgroup_to_congruence, subgroups


@pytest.fixture(scope="module")
def graph_lsc():
    return build_lsc(fixtures.graph_site())


@pytest.fixture(scope="module")
def idem_lsc():
    return build_lsc(fixtures.idempotent_monoid_site())


@pytest.fixture(scope="module")
def d4():
    return fixtures.dihedral_4()


@pytest.fixture(scope="module")
def d4_lsc(d4):
    return build_lsc(d4.site())


# --- building Xi -------------------------------------------------------------

def test_graph_classifier_has_one_vertex_and_two_loops(graph_lsc):
    L = graph_lsc
    assert len(L.elements("V")) == 1
    assert len(L.elements("E")) == 2
    # both edges of Xi are loops: source and target actions agree
    for q in L.elements("E"):
        assert L.act(q, "s") == L.act(q, "t")


def test_idempotent_classifier_action_sends_not_fixed_to_fixed(idem_lsc):
    L = idem_lsc
    discrete, total = sorted(L.elements("*"), key=lambda q: q.block_count(),
                             reverse=True)
    assert discrete.is_discrete() and total.is_total()
    # the non-identity of the monoid merges everything one step later
    assert L.act(discrete, "x") == total
    assert L.act(total, "x") == total


def test_poset_classifiers_are_terminal():
    for name, site in fixtures.BUNDLED_POSETS.items():
        L = build_lsc(site)
        assert all(len(L.elements(c)) == 1 for c in site.objects), name


def test_classifier_presheaf_is_functorial(d4_lsc):
    assert isinstance(d4_lsc, Presheaf)
    d4_lsc.check_functorial()


# --- the cocone --------------------------------------------------------------

def test_xi_sends_group_set_element_to_its_stabilizer_cosets(d4, d4_lsc):
    H = fixtures.d4_named_subgroups(d4)["<t>"]
    X = quotient_of_representable(subgroup_to_congruence(d4, H))
    xi = xi_component(d4_lsc, X)
    for x in X.elements("*"):
        stabilizer = {g for g in d4.elements if X.act(x, g) == x}
        expected = subgroup_to_congruence(
            d4, next(S for S in subgroups(d4) if S.members == stabilizer))
        assert xi.components["*"][x] == expected


def test_xi_detects_loops(graph_lsc):
    site = graph_lsc.site
    X = Presheaf(site, {"V": ("v", "p", "q"), "E": ("l", "e")},
                 {"id_V": {"v": "v", "p": "p", "q": "q"},
                  "id_E": {"l": "l", "e": "e"},
                  "s": {"l": "v", "e": "p"}, "t": {"l": "v", "e": "q"}})
    xi = xi_component(graph_lsc, X)
    assert xi.components["E"]["l"].is_total()
    assert xi.components["E"]["e"].is_discrete()


def test_xi_on_fixed_points(idem_lsc):
    site = idem_lsc.site
    X = Presheaf(site, {"*": ("f", "n")},
                 {"1": {"f": "f", "n": "n"}, "x": {"f": "f", "n": "f"}})
    xi = xi_component(idem_lsc, X)
    assert xi.components["*"]["f"].is_total()
    assert not xi.components["*"]["n"].is_total()


def test_xi_component_is_image_of_yoneda(graph_lsc):
    site = graph_lsc.site
    X = Presheaf(site, {"V": ("p", "q"), "E": ("e",)},
                 {"id_V": {"p": "p", "q": "q"}, "id_E": {"e": "e"},
                  "s": {"e": "p"}, "t": {"e": "q"}})
    xi = xi_component(graph_lsc, X)
    for c in site.objects:
        for x in X.elements(c):
            assert xi.components[c][x] == image_quotient(yoneda_morphism(X, c, x))


def test_xi_component_site_mismatch(graph_lsc):
    foreign = representable(fixtures.idempotent_monoid_site(), "*")
    with pytest.raises(SiteMismatch):
        xi_component(graph_lsc, foreign)


def test_xi_component_accepts_structurally_equal_site_instances(graph_lsc):
    # a presheaf over a reloaded copy of the site must still classify
    from toposlsc.io import dump_category, load_category
    copy = load_category(dump_category(graph_lsc.site))
    assert copy is not graph_lsc.site
    X = representable(copy, "E")
    xi = xi_component(graph_lsc, X)
    assert xi.components["E"]["id_E"].is_discrete()


def test_cocone_naturality_under_embeddings(graph_lsc):
    site = graph_lsc.site
    X = representable(site, "E")
    Y = representable(site, "V")
    P, inl, _ = coproduct(X, Y)
    xi_x = xi_component(graph_lsc, X)
    xi_p = xi_component(graph_lsc, P)
    for c in site.objects:
        for x in X.elements(c):
            assert xi_p.components[c][inl.components[c][x]] == xi_x.components[c][x]


def test_joint_surjectivity_witnesses(d4_lsc):
    L = d4_lsc
    for c in L.site.objects:
        for q in L.elements(c):
            Q = quotient_of_representable(q)
            base = q.block_members(L.site.identity(c))
            assert xi_component(L, Q).components[c][base] == q


# --- the order structure ---------------------------------------------------------

def test_meet_is_subgroup_intersection_on_d4(d4):
    named = fixtures.d4_named_subgroups(d4)
    q1 = subgroup_to_congruence(d4, named["<t,s2>"])
    q2 = subgroup_to_congruence(d4, named["<s>"])
    met = q1.meet(q2)
    # oracle: brute-force member intersection
    intersection = named["<t,s2>"].members & named["<s>"].members
    assert intersection == {"e", "s2"}
    assert met == subgroup_to_congruence(d4, named["<s2>"])


def test_leq_matches_subgroup_inclusion(d4):
    named = fixtures.d4_named_subgroups(d4)
    fwd = lambda n: subgroup_to_congruence(d4, named[n])
    assert fwd("<t>").leq(fwd("<t,s2>"))
    assert not fwd("<t,s2>").leq(fwd("<t>"))
    assert fwd("<t>").leq(fwd("<t>"))
    assert not fwd("<t>").leq(fwd("<st,s2>"))


def test_meet_with_top_is_identity(d4_lsc):
    top = d4_lsc.top_at("*")
    for q in d4_lsc.elements("*"):
        assert q.meet(top) == q
        assert q.leq(top)


def test_meet_rejects_mixed_objects(graph_lsc):
    qv = graph_lsc.elements("V")[0]
    qe = graph_lsc.elements("E")[0]
    with pytest.raises(ObjectMismatch):
        qv.meet(qe)


def test_semilattice_laws_exhaustive(d4_lsc):
    xs = d4_lsc.elements("*")
    for q1 in xs:
        assert q1.meet(q1) == q1
        for q2 in xs:
            assert q1.meet(q2) == q2.meet(q1)
            assert q1.leq(q2) == (q1.meet(q2) == q1)


def test_action_is_monotone_and_preserves_meets(d4_lsc):
    L = d4_lsc
    for f, _, _ in L.site.morphisms:
        for q1 in L.elements("*"):
            for q2 in L.elements("*"):
                assert q1.meet(q2).precompose(f) == \
                    L.act(q1, f).meet(L.act(q2, f))
                if q1.leq(q2):
                    assert L.act(q1, f).leq(L.act(q2, f))


# --- product compatibility ----------------------------------------------------------

def test_meet_compatibility_empty_product(idem_lsc):
    assert verify_meet_compatibility(idem_lsc, []).ok


def test_meet_compatibility_on_random_idempotent_sets(idem_lsc):
    site = idem_lsc.site
    X = Presheaf(site, {"*": ("a", "b", "c")},
                 {"1": {"a": "a", "b": "b", "c": "c"},
                  "x": {"a": "b", "b": "b", "c": "c"}})
    Y = Presheaf(site, {"*": ("p", "q", "r")},
                 {"1": {"p": "p", "q": "q", "r": "r"},
                  "x": {"p": "p", "q": "p", "r": "r"}})
    assert verify_meet_compatibility(idem_lsc, [X, Y]).ok
    assert verify_meet_compatibility(idem_lsc, [X]).ok


def test_meet_compatibility_is_stabilizer_intersection_on_groups(d4, d4_lsc):
    named = fixtures.d4_named_subgroups(d4)
    X = quotient_of_representable(subgroup_to_congruence(d4, named["<t>"]))
    Y = quotient_of_representable(subgroup_to_congruence(d4, named["<s>"]))
    assert verify_meet_compatibility(d4_lsc, [X, Y]).ok


# --- the laws that hold by construction, certified once per site ---------------

def _law_sites():
    from perfbench.inputs import elementary_abelian_16
    from tests.test_fincat import full_transformation_monoid
    from toposlsc.normalize import monoid_site

    sites = dict(fixtures.bundled_sites())  # the graph, the idempotent monoid, the posets
    groups = [fixtures.cyclic_group(4), fixtures.dihedral_4(), fixtures.quaternion_8(),
              fixtures.symmetric_4(), elementary_abelian_16(), fixtures.cyclic_group(24)]
    sites.update({G.label: G.site() for G in groups})
    sites["T3 then"] = full_transformation_monoid(then=True)
    sites["T3 after"] = full_transformation_monoid(then=False)
    for order in (1, 2, 3):
        for k, (elements, mult) in enumerate(fixtures.all_monoids(order)):
            sites[f"monoid{order}-{k}"] = monoid_site(elements,
                                                      lambda a, b, m=mult: m[(a, b)])
    return sites


LAW_SITES = _law_sites()


def _is_interned(L, c, q):
    return L.elements(c)[L.index_of(c, q)] is q


@pytest.mark.parametrize("name", sorted(LAW_SITES))
def test_xi_laws_and_interning_once_per_site(name):
    from toposlsc.verify import _sample_presheaves

    site = LAW_SITES[name]
    L = build_lsc(site)
    L.check_functorial()
    for f, s, d in site.morphisms:
        assert all(_is_interned(L, s, L.act(q, f)) for q in L.elements(d)), f
    assert all(_is_interned(L, c, L.top_at(c)) for c in site.objects)
    for X in [*_sample_presheaves(L), L]:
        xi = xi_component(L, X).check_natural()
        assert all(_is_interned(L, c, q)
                   for c in site.objects for q in xi.components[c].values())


@pytest.mark.parametrize("name", sorted(LAW_SITES))
def test_action_matches_precomposition_by_name(name):
    # q . f relates u and v iff f*u ~ f*v; the reference composes by name and
    # reads no position table of the site
    site = LAW_SITES[name]
    L = build_lsc(site)
    for f, a, d in site.morphisms:
        for q in L.elements(d):
            assert L.act(q, f) == RepCongruence.from_labels(
                site, a, lambda u: q.block_id(site.compose(f, u))), (f, q)


def _xi_by_definition(L, X):
    """xi_X read off the definition: x goes to the partition of each Hom(a, c)
    by the value of x . u, one element and one arrow at a time."""
    cat = L.site
    return {c: {x: RepCongruence.from_labels(cat, c, lambda u: X.act(x, u))
                for x in X.elements(c)} for c in cat.objects}


def _xi_case(name):
    """The classifier and the presheaves a case classifies: every sample of a
    bundled site, the binary products the quotient-classifier certificate
    builds on S4, or Xi itself for T3."""
    from tests.test_fincat import _morphism_samples
    from toposlsc.fincat import product, terminal

    if name == "S4 products":
        L = build_lsc(fixtures.symmetric_4().site())
        pool = [terminal(L.site)] + [quotient_of_representable(q) for q in L.elements("*")]
        pool.append(coproduct(pool[0], pool[1])[0])
        return L, [product(L.site, [X, Y]) for X, Y in zip(pool, pool[1:])]
    if name.startswith("T3"):
        L = build_lsc(LAW_SITES[name])
        return L, [L]
    site = fixtures.bundled_sites()[name]
    return build_lsc(site), _morphism_samples(site)


@pytest.mark.parametrize("name", [*sorted(fixtures.bundled_sites()), "S4 products",
                                  "T3 then", "T3 after"])
def test_xi_component_matches_the_definition(name):
    L, presheaves = _xi_case(name)
    for X in presheaves:
        xi = xi_component(L, X)
        assert xi.components == _xi_by_definition(L, X)
        assert all(_is_interned(L, c, q)
                   for c in L.site.objects for q in xi.components[c].values())


def test_reports_and_certificates_run_no_law_check(monkeypatch):
    from toposlsc.fincat import PresheafMorphism
    from toposlsc.filters import certify_quotient_classifier, full_filter
    from toposlsc.reports import group_report, lsc_report

    def refuse(self):
        raise AssertionError("law re-checked at run time")

    monkeypatch.setattr(Presheaf, "check_functorial", refuse)
    monkeypatch.setattr(PresheafMorphism, "check_natural", refuse)
    G = fixtures.dihedral_4()
    L = build_lsc(G.site())
    assert all(v["pass"] for v in lsc_report(L)["verdicts"])
    assert all(v["pass"] for v in group_report(G, L)["verdicts"])
    assert certify_quotient_classifier(full_filter(L)).ok


def test_xi_of_xi_is_computed_once_per_classifier(monkeypatch):
    # every call xi_component(L, X) with X = Xi is recorded, at every module
    # alias; the list keeps each L alive, so distinct ones have distinct ids
    import sys

    from toposlsc import lsc
    from toposlsc.reports import group_report, lsc_report
    from toposlsc.verify import suite_normalize

    seen = []
    original = lsc.xi_component

    def counted(L, X):
        if all(X.elements(c) == L.elements(c) for c in L.site.objects):
            seen.append(L)
        return original(L, X)

    for name, module in list(sys.modules.items()):
        if name.startswith("toposlsc.") and getattr(module, "xi_component", None) is original:
            monkeypatch.setattr(module, "xi_component", counted)
    G = fixtures.dihedral_4()
    group_report(G, build_lsc(G.site()))
    assert len(seen) == 1
    lsc_report(build_lsc(fixtures.graph_site()))
    assert len(seen) == 2
    del seen[:]
    assert suite_normalize().ok
    assert seen and len({id(L) for L in seen}) == len(seen)


# --- the membership half that stays at run time -----------------------------------

def _dropping(monkeypatch, site, c, q):
    """Make build_lsc on ``site`` enumerate Xi(c) without q."""
    import toposlsc.lsc as lsc

    enumerate_all = lsc.enumerate_quotient_objects

    def dropped(cat, obj, cap):
        found = enumerate_all(cat, obj, cap)
        return tuple(p for p in found if p != q) if cat is site and obj == c else found

    monkeypatch.setattr(lsc, "enumerate_quotient_objects", dropped)


def test_an_action_value_missing_from_xi_raises(monkeypatch, d4):
    # conjugation by s sends the cosets of <s2t> to those of <t>
    q = subgroup_to_congruence(d4, fixtures.d4_named_subgroups(d4)["<t>"])
    _dropping(monkeypatch, d4.site(), "*", q)
    with pytest.raises(RuntimeError, match=r"is not in Xi\('\*'\)"):
        build_lsc(d4.site())


def test_a_kernel_missing_from_xi_raises(monkeypatch):
    # only identities act into Xi(E), so the classifier builds without the
    # discrete congruence; classifying the representable y(E) needs it
    site = fixtures.graph_site()
    L = build_lsc(site)
    discrete = next(q for q in L.elements("E") if q.is_discrete())
    assert discrete != L.top_at("E")
    _dropping(monkeypatch, site, "E", discrete)
    L = build_lsc(site)
    assert len(L.elements("E")) == 1
    with pytest.raises(RuntimeError, match=r"is not in Xi\('E'\)"):
        xi_component(L, representable(site, "E"))


@pytest.mark.parametrize("dropped", ["<t>", "<t,s2>"])
def test_cli_exits_4_when_xi_misses_a_congruence(tmp_path, capsys, monkeypatch, dropped):
    # <t> is an action value (building the action raises); the normal <t,s2>
    # is not, but it is the normalizer of <t> (building xi_Xi raises)
    import json

    from toposlsc import io
    from toposlsc.cli import main

    path = tmp_path / "d4.group"
    path.write_text(json.dumps(io.dump_group(fixtures.dihedral_4())))
    G = io.load_group(path)
    monkeypatch.setattr(io, "load_group", lambda source: G)
    H = fixtures.d4_named_subgroups(G)[dropped]
    _dropping(monkeypatch, G.site(), "*", subgroup_to_congruence(G, H))
    assert main(["group", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: ")
    assert "Traceback" not in captured.err
