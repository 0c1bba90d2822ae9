import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from toposlsc import filters, fixtures
from toposlsc.errors import (
    ElementNotInCarrier,
    FilterViolation,
    MissingTop,
    NotMeetClosed,
    NotSubpresheaf,
    NotUpwardClosed,
    ObjectMismatch,
    SiteMismatch,
    UnknownObject,
)
from toposlsc.fincat import (
    Presheaf,
    enumerate_morphisms,
    product,
    quotient_of_representable,
    terminal,
)
from toposlsc.filters import (
    InternalFilter,
    certify_quotient_classifier,
    comonad_apply,
    filter_generated_by,
    full_filter,
    in_subcategory,
    top_filter,
    validate_filter,
)
from toposlsc.lsc import build_lsc, xi_component
from toposlsc.normalize import monoid_site, subgroup_to_congruence
from toposlsc.verify import graph_nonfilter_selection

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def graph_lsc():
    return build_lsc(fixtures.graph_site())


@pytest.fixture(scope="module")
def d4():
    return fixtures.dihedral_4()


@pytest.fixture(scope="module")
def d4_lsc(d4):
    return build_lsc(d4.site())


@pytest.fixture(scope="module")
def named(d4):
    return fixtures.d4_named_subgroups(d4)


def single_edge(site):
    return Presheaf(site, {"V": ("p", "q"), "E": ("e",)},
                    {"id_V": {"p": "p", "q": "q"}, "id_E": {"e": "e"},
                     "s": {"e": "p"}, "t": {"e": "q"}})


def all_loops(site):
    return Presheaf(site, {"V": ("v",), "E": ("l", "m")},
                    {"id_V": {"v": "v"}, "id_E": {"l": "l", "m": "m"},
                     "s": {"l": "v", "m": "v"}, "t": {"l": "v", "m": "v"}})


# --- validation -----------------------------------------------------------------

def test_full_selection_is_a_filter(graph_lsc):
    F = validate_filter(graph_lsc, full_filter(graph_lsc))
    assert F.size() == 3


def test_top_selection_is_a_filter(graph_lsc, d4_lsc):
    for L in (graph_lsc, d4_lsc):
        F = validate_filter(L, top_filter(L))
        assert all(len(F.selection[c]) == 1 for c in L.site.objects)


def test_nonloop_selection_is_not_upward_closed(graph_lsc):
    with pytest.raises(NotUpwardClosed) as err:
        validate_filter(graph_lsc, graph_nonfilter_selection(graph_lsc))
    _, below, above = err.value.witness
    assert below.is_discrete() and above.is_total()


def test_empty_selection_reports_missing_top(graph_lsc):
    with pytest.raises(MissingTop):
        validate_filter(graph_lsc, InternalFilter(graph_lsc, {}))


def test_conjugation_escape_reports_not_subpresheaf(d4, d4_lsc, named):
    selection = {"*": {subgroup_to_congruence(d4, named["<t>"]),
                       d4_lsc.top_at("*")}}
    with pytest.raises(NotSubpresheaf):
        validate_filter(d4_lsc, selection)


def test_a_filter_not_closed_under_conjugation_is_refused_with_its_escape(d4, d4_lsc, named):
    q = subgroup_to_congruence(d4, named["<t>"])
    with pytest.raises(NotSubpresheaf) as err:
        InternalFilter(d4_lsc, {"*": {q}})
    escaped, f = err.value.witness
    assert escaped == q and d4_lsc.act(q, f) != q


def test_missing_meet_reports_not_meet_closed(d4, d4_lsc, named):
    # upward + conjugation closed family missing the meet <t> /\ <s2t> = <>
    ups = ("<t>", "<s2t>", "<t,s2>", "D4")
    selection = {"*": {subgroup_to_congruence(d4, named[n]) for n in ups}}
    with pytest.raises(NotMeetClosed):
        validate_filter(d4_lsc, selection)


@pytest.mark.parametrize("use", ["generate", "validate", "construct"])
def test_congruence_selected_at_the_wrong_object_is_an_object_mismatch(graph_lsc, use):
    miskeyed = {"E": [graph_lsc.top_at("V")]}
    with pytest.raises(ObjectMismatch):
        if use == "generate":
            filter_generated_by(graph_lsc, miskeyed)
        elif use == "validate":
            validate_filter(graph_lsc, miskeyed)
        else:
            InternalFilter(graph_lsc, miskeyed)


@pytest.mark.parametrize("call, error", [
    (lambda L: filter_generated_by(L, {"nope": [L.top_at("V")]}), UnknownObject),
    (lambda L: filter_generated_by(L, {"E": ["junk"]}), ElementNotInCarrier),
    (lambda L: validate_filter(L, {"nope": [L.top_at("V")], "V": [L.top_at("V")],
                                   "E": [L.top_at("E")]}), UnknownObject),
    (lambda L: enumerate_morphisms(terminal(L.site),
                                   terminal(fixtures.idempotent_monoid_site())),
     SiteMismatch),
], ids=["seed-at-unknown-object", "seed-not-a-congruence", "selection-at-unknown-object",
        "morphisms-across-sites"])
def test_library_inputs_on_the_filter_path_raise_typed_errors(graph_lsc, call, error):
    with pytest.raises(error):
        call(graph_lsc)


WITNESS_SCRIPT = """
import itertools
from toposlsc import fixtures
from toposlsc.errors import FilterViolation
from toposlsc.filters import validate_filter
from toposlsc.lsc import build_lsc

L = build_lsc(fixtures.dihedral_4().site())
for pair in itertools.combinations(L.elements("*"), 2):
    try:
        validate_filter(L, {"*": pair})
    except FilterViolation as exc:
        print(type(exc).__name__, exc.witness)
"""


def test_violation_witnesses_do_not_depend_on_the_hash_seed():
    # both clauses iterate the carrier, not the selected frozenset, so the
    # first witness is the same whatever order the set hashes into
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", WITNESS_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    kinds = Counter(line.split()[0] for line in outputs[0].splitlines())
    assert kinds["NotSubpresheaf"] > 0 and kinds["NotUpwardClosed"] > 0
    assert outputs[0] == outputs[1]


# --- generation --------------------------------------------------------------------

def test_empty_seed_generates_top_filter(graph_lsc):
    assert filter_generated_by(graph_lsc, {}) == top_filter(graph_lsc)


def test_nonloop_seed_generates_everything(graph_lsc):
    discrete = next(q for q in graph_lsc.elements("E") if q.is_discrete())
    assert filter_generated_by(graph_lsc, {"E": [discrete]}) == full_filter(graph_lsc)


def test_d4_seed_s_generates_principal_pair(d4, d4_lsc, named):
    q_s = subgroup_to_congruence(d4, named["<s>"])
    F = filter_generated_by(d4_lsc, {"*": [q_s]})
    assert F.selection["*"] == frozenset({q_s, d4_lsc.top_at("*")})
    validate_filter(d4_lsc, F)


def test_d4_seed_s2_generates_five(d4, d4_lsc, named):
    q = subgroup_to_congruence(d4, named["<s2>"])
    F = filter_generated_by(d4_lsc, {"*": [q]})
    expected = {subgroup_to_congruence(d4, named[n])
                for n in ("<s2>", "<s>", "<t,s2>", "<st,s2>", "D4")}
    assert F.selection["*"] == frozenset(expected)
    validate_filter(d4_lsc, F)


def all_filters(L):
    """Every selection, subsets enumerated per object, that validates."""
    objects = L.site.objects
    # a congruence listed twice would double the subsets below it
    assert all(len(set(L.elements(c))) == len(L.elements(c)) for c in objects)
    per_object = [[frozenset(sub) for k in range(len(L.elements(c)) + 1)
                   for sub in itertools.combinations(L.elements(c), k)]
                  for c in objects]
    found = []
    for combo in itertools.product(*per_object):
        selection = dict(zip(objects, combo))
        try:
            validate_filter(L, selection)
        except FilterViolation:
            continue
        found.append(selection)
    return found


FILTER_SITES = ([("graph", fixtures.graph_site()), ("chain3", fixtures.chain_site(3)),
                 ("idempotent", fixtures.idempotent_monoid_site()),
                 ("D4", fixtures.dihedral_4().site()), ("S3", fixtures.symmetric_3().site()),
                 ("Z4", fixtures.cyclic_group(4).site())]
                + [(f"monoid3-{i}", monoid_site(elements, lambda a, b, m=mult: m[(a, b)]))
                   for i, (elements, mult) in enumerate(fixtures.all_monoids(3))])


@pytest.mark.parametrize("site", [site for _, site in FILTER_SITES],
                         ids=[name for name, _ in FILTER_SITES])
def test_generated_filter_is_the_least_filter_containing_the_seeds(site):
    L = build_lsc(site)
    candidates = all_filters(L)
    rng = random.Random(5)
    for _ in range(8):
        seeds = {c: rng.sample(L.elements(c), rng.randint(0, min(2, len(L.elements(c)))))
                 for c in site.objects if rng.random() < 0.7}
        above = [sel for sel in candidates
                 if all(set(qs) <= sel[c] for c, qs in seeds.items())]
        least = {c: frozenset.intersection(*(sel[c] for sel in above))
                 for c in site.objects}
        assert filter_generated_by(L, seeds).selection == least


@pytest.mark.parametrize("site", [site for _, site in FILTER_SITES],
                         ids=[name for name, _ in FILTER_SITES])
def test_a_filter_is_its_own_subpresheaf_of_xi(site):
    # F's tables are Xi's restricted to the selection, in Xi's order, and
    # xi_F is xi_Xi on them: the cocone is constant along F -> Xi
    L = build_lsc(site)
    found = all_filters(L)
    assert {c: frozenset([L.top_at(c)]) for c in site.objects} in found
    for selection in found:
        F = InternalFilter(L, selection)
        Presheaf(L.site, F.carrier, F.action)
        xi = xi_component(L, F)
        for c in site.objects:
            assert F.carrier[c] == tuple(q for q in L.elements(c) if q in selection[c])
            assert all(xi.components[c][q] == L.normalization.components[c][q]
                       for q in F.carrier[c])


# --- membership and the comonad ------------------------------------------------------

def test_everything_belongs_to_the_full_filter(graph_lsc):
    F = full_filter(graph_lsc)
    for X in (single_edge(graph_lsc.site), all_loops(graph_lsc.site)):
        assert in_subcategory(F, X).member


def test_top_filter_members_are_all_loops(graph_lsc):
    F = top_filter(graph_lsc)
    assert in_subcategory(F, all_loops(graph_lsc.site)).member
    result = in_subcategory(F, single_edge(graph_lsc.site))
    assert not result.member
    c, x, q = result.witness
    assert (c, x) == ("E", "e") and q.is_discrete()


def test_membership_lift_corestricts(graph_lsc):
    F = top_filter(graph_lsc)
    X = all_loops(graph_lsc.site)
    result = in_subcategory(F, X)
    assert result.lift.target is F
    result.lift.check_natural()


def test_group_membership_is_stabilizers_in_filter(d4, d4_lsc, named):
    q_s2 = subgroup_to_congruence(d4, named["<s2>"])
    F = filter_generated_by(d4_lsc, {"*": [q_s2]})
    inside = quotient_of_representable(subgroup_to_congruence(d4, named["<t,s2>"]))
    outside = quotient_of_representable(subgroup_to_congruence(d4, named["<t>"]))
    assert in_subcategory(F, inside).member
    assert not in_subcategory(F, outside).member


def test_site_mismatch_rejected(graph_lsc):
    foreign = terminal(fixtures.idempotent_monoid_site())
    with pytest.raises(SiteMismatch):
        in_subcategory(full_filter(graph_lsc), foreign)
    with pytest.raises(SiteMismatch):
        comonad_apply(full_filter(graph_lsc), foreign)


def test_comonad_on_full_filter_is_identity(graph_lsc):
    X = single_edge(graph_lsc.site)
    GX, counit = comonad_apply(full_filter(graph_lsc), X)
    assert GX.carrier == X.carrier
    assert counit.is_mono()


def test_comonad_drops_the_nonloop_edge(graph_lsc):
    X = single_edge(graph_lsc.site)
    GX, counit = comonad_apply(top_filter(graph_lsc), X)
    assert GX.carrier["V"] == ("p", "q")
    assert GX.carrier["E"] == ()
    assert counit.is_mono()


def test_comonad_counit_is_iso_on_members(graph_lsc):
    X = all_loops(graph_lsc.site)
    GX, _ = comonad_apply(top_filter(graph_lsc), X)
    assert GX.carrier == X.carrier


def test_comonad_is_idempotent_and_monotone(graph_lsc):
    F = top_filter(graph_lsc)
    X = single_edge(graph_lsc.site)
    GX, _ = comonad_apply(F, X)
    GGX, _ = comonad_apply(F, GX)
    assert GGX.carrier == GX.carrier
    P = product(graph_lsc.site, [X, all_loops(graph_lsc.site)])
    GP, _ = comonad_apply(F, P)
    for c in graph_lsc.site.objects:
        assert set(GP.elements(c)) <= set(P.elements(c))


# --- the quotient-classifier certificate -----------------------------------------------

def test_certificate_clause_names():
    L = build_lsc(fixtures.idempotent_monoid_site())
    cert = certify_quotient_classifier(top_filter(L))
    assert [c.name for c in cert.checks] == \
        ["F-in-EF", "cocone", "joint-surjectivity", "comonad"]
    assert cert.ok


def test_certificates_pass_for_the_three_bundled_pairs(d4, d4_lsc, named, graph_lsc):
    idem_lsc = build_lsc(fixtures.idempotent_monoid_site())
    q_s2 = subgroup_to_congruence(d4, named["<s2>"])
    pairs = [
        top_filter(idem_lsc),
        filter_generated_by(d4_lsc, {"*": [q_s2]}),
        top_filter(graph_lsc),
    ]
    for F in pairs:
        cert = certify_quotient_classifier(F)
        assert cert.ok, cert.failures()


def test_nonfilter_fails_self_membership_with_nonloop_witness(graph_lsc):
    cert = certify_quotient_classifier(graph_nonfilter_selection(graph_lsc))
    clause_a = next(c for c in cert.checks if c.name == "F-in-EF")
    assert not clause_a.passed
    assert clause_a.witness.is_discrete()
    assert not cert.ok


def test_upward_closed_selection_still_contains_classifier_image(d4, d4_lsc, named):
    ups = ("<t>", "<s2t>", "<t,s2>", "D4")
    selection = InternalFilter(
        d4_lsc, {"*": {subgroup_to_congruence(d4, named[n]) for n in ups}})
    cert = certify_quotient_classifier(selection)
    clause_a = next(c for c in cert.checks if c.name == "F-in-EF")
    assert clause_a.passed


def test_certificate_on_the_middle_filter_of_z4():
    # subgroups of Z4 are <0> < <2> < Z4; the upward pair {<2>, Z4} is a
    # genuine filter strictly between top and everything
    G = fixtures.cyclic_group(4)
    L = build_lsc(G.site())
    assert len(L.elements("*")) == 3
    middle = next(q for q in L.elements("*")
                  if not q.is_total() and not q.is_discrete())
    F = filter_generated_by(L, {"*": [middle]})
    assert len(F.selection["*"]) == 2
    validate_filter(L, F)
    cert = certify_quotient_classifier(F)
    assert cert.ok, cert.failures()
    assert full_filter(L) != F != top_filter(L)


def test_s4_full_filter_certificate_classifies_each_sample_once(monkeypatch):
    L = build_lsc(fixtures.symmetric_4().site())
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(filters, "xi_component",
                        counting("xi_component", filters.xi_component))
    monkeypatch.setattr(Presheaf, "act", counting("act", Presheaf.act))
    cert = certify_quotient_classifier(full_filter(L))
    assert cert.ok
    assert cert.checks[1].witness == "287 injective maps checked"
    assert counts["xi_component"] <= 135
    assert counts["act"] < 5_000
