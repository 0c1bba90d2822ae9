import itertools
from collections import Counter

import pytest

from toposlsc import fixtures
from toposlsc.errors import (
    NotACongruenceOfSubgroupForm,
    NotAGroup,
    NotASubgroup,
)
from toposlsc.fincat import RepCongruence
from toposlsc.lsc import build_lsc
from toposlsc.normalize import (
    FiniteGroup,
    Subgroup,
    check_normalization_inflationary,
    congruence_to_subgroup,
    generated_subgroup,
    is_dedekind,
    monoid_site,
    normalization_is_top,
    normalization_operator,
    normalization_table,
    normalizer_direct,
    subgroup_to_congruence,
    subgroups,
)
from toposlsc.verify import (
    d4_normalization_matches,
    find_non_idempotence_witness,
    find_non_monotonicity_witness,
)


@pytest.fixture(scope="module")
def d4():
    return fixtures.dihedral_4()


@pytest.fixture(scope="module")
def named(d4):
    return fixtures.d4_named_subgroups(d4)


# --- group construction -----------------------------------------------------

def test_group_table_validation():
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table(["e", "a"], [[0, 1], [1, 1]])  # a has no inverse
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table(["e", "a"], [[0, 1]])  # not square


def test_group_table_with_a_missing_entry_names_the_first_missing_pair():
    with pytest.raises(NotAGroup, match=r"\('a', 'e'\)"):
        FiniteGroup(["e", "a"], {("e", "e"): "e", ("e", "a"): "a"})


def test_d4_satisfies_its_presentation(d4):
    s, t = "s", "t"
    assert d4.mult(t, s) == d4.mult("s3", t)  # t s = s^3 t
    assert d4.mult(s, "s3") == "e" and d4.mult(t, t) == "e"


def test_subgroup_validation(d4):
    with pytest.raises(NotASubgroup):
        Subgroup(d4, {"e", "s"})  # not closed: s*s = s2 missing


def test_d4_has_ten_subgroups(d4, named):
    subs = subgroups(d4)
    assert len(subs) == 10
    assert set(named.values()) == set(subs)
    assert sorted(H.order for H in subs) == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_q8_and_s3_subgroup_counts():
    assert len(subgroups(fixtures.quaternion_8())) == 6
    assert len(subgroups(fixtures.symmetric_3())) == 6
    assert len(subgroups(fixtures.symmetric_4())) == 30


def _product_closed_subsets(G):
    """Brute force: the nonempty subsets closed under the product, which in
    a finite group are exactly the subgroups."""
    for r in range(1, G.order + 1):
        for S in itertools.combinations(G.elements, r):
            if all(G.mult(a, b) in S for a in S for b in S):
                yield frozenset(S)


@pytest.mark.parametrize("G", [fixtures.cyclic_group(4), fixtures.symmetric_3(),
                               fixtures.dihedral_4(), fixtures.quaternion_8()],
                         ids=lambda G: G.label)
def test_subgroups_match_product_closed_subsets(G):
    found = subgroups(G)
    assert {H.members for H in found} == set(_product_closed_subsets(G))
    assert len(found) == len(set(found))
    assert list(found) == sorted(found, key=lambda H: (H.order, H.sorted_members))


def test_elementary_abelian_16_has_67_subgroups():
    names = ["".join(bits) for bits in itertools.product("01", repeat=4)]
    mult = {(a, b): "".join("1" if x != y else "0" for x, y in zip(a, b))
            for a in names for b in names}
    assert len(subgroups(FiniteGroup(names, mult, label="E16"))) == 67


def test_z24_has_eight_subgroups():
    # one per divisor of 24; with E16 and S4 above, these counts and Subgroup's
    # closure validation show the lattice read off Xi complete where the
    # brute-force subset test is too slow
    assert len(subgroups(fixtures.cyclic_group(24))) == 8


# --- coset encoding ------------------------------------------------------------

def test_bijection_roundtrip_on_all_d4_subgroups(d4):
    for H in subgroups(d4):
        assert congruence_to_subgroup(d4, subgroup_to_congruence(d4, H)) == H


def test_forward_of_trivial_subgroup_is_discrete(d4):
    q = subgroup_to_congruence(d4, generated_subgroup(d4, []))
    assert q.is_discrete()
    q_all = subgroup_to_congruence(d4, generated_subgroup(d4, ["s", "t"]))
    assert q_all.is_total()


def test_coset_action_is_conjugation(d4, named):
    # s^-1 t s = s2t, so acting by s sends <t>-cosets to <s2t>-cosets
    conj = d4.conjugate("t", "s")
    assert conj == "s2t"
    q = subgroup_to_congruence(d4, named["<t>"])
    assert q.precompose("s") == subgroup_to_congruence(d4, named["<s2t>"])
    # and in general the action matches brute-force subgroup conjugation
    for H in subgroups(d4):
        for g in d4.elements:
            assert subgroup_to_congruence(d4, H).precompose(g) == \
                subgroup_to_congruence(d4, H.conjugate(g))


def test_backward_rejects_corrupt_congruence():
    z4 = fixtures.cyclic_group(4)
    # {0,1},{2,3} is a partition whose identity block is not a subgroup;
    # it is not right-compatible, so no element of Xi, but from_labels builds it
    corrupt = RepCongruence.from_labels(z4.site(), "*", lambda u: u in ("0", "1"))
    with pytest.raises(NotACongruenceOfSubgroupForm):
        congruence_to_subgroup(z4, corrupt)


# --- the brute-force oracle ---------------------------------------------------------

def test_normalizer_direct_examples(d4, named):
    assert normalizer_direct(d4, named["<t>"]) == named["<t,s2>"]
    assert normalizer_direct(d4, named["D4"]) == named["D4"]
    s3 = fixtures.symmetric_3()
    rotation = next(g for g in s3.elements if g == "(012)")
    cyclic = generated_subgroup(s3, [rotation])
    assert cyclic.order == 3
    assert normalizer_direct(s3, cyclic).members == set(s3.elements)


def test_normalizer_direct_requires_subgroup(d4):
    other = fixtures.cyclic_group(2)
    H = generated_subgroup(other, ["1"])
    with pytest.raises(NotASubgroup):
        normalizer_direct(d4, H)


# --- the categorical operator -----------------------------------------------------------

def test_d4_normalization_table_matches_expected_diagram():
    G = fixtures.dihedral_4()
    ok, got = d4_normalization_matches(G, build_lsc(G.site()))
    assert ok, got


def test_categorical_equals_brute_force_on_small_groups():
    for G in [fixtures.dihedral_4(), fixtures.symmetric_3(),
              fixtures.quaternion_8(), fixtures.cyclic_group(4),
              fixtures.cyclic_group(6)]:
        table = normalization_table(G, build_lsc(G.site()))
        for H, N in table.items():
            assert N == normalizer_direct(G, H), (G.label, H)


def _counting(monkeypatch, modules, names):
    """Record each call of the named functions, at every module that holds one."""
    calls = []
    for module in modules:
        for name in names:
            if hasattr(module, name):
                def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls.append((_name, args))
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_group_report_enumerates_subgroups_once(monkeypatch):
    # the subgroup lattice is Xi(*), which build_lsc enumerated: neither the
    # report nor the table enumerates it again
    from toposlsc import fincat, lsc, normalize, reports

    G = fixtures.dihedral_4()
    L = build_lsc(G.site())
    calls = _counting(monkeypatch, (fincat, lsc, normalize, reports),
                      ("subgroups", "enumerate_quotient_objects"))
    payload = reports.group_report(G, L)["payload"]
    normalization_table(G, L)
    assert calls == []
    assert len(payload["subgroups"]) == 10


def test_suite_normalize_enumerates_each_group_once(monkeypatch):
    from toposlsc import fincat, lsc, normalize, verify

    calls = _counting(monkeypatch, (fincat, lsc, normalize, verify),
                      ("subgroups", "enumerate_quotient_objects"))
    assert verify.suite_normalize().ok
    groups = fixtures.bundled_groups()
    enumerated = Counter(args[0].signature() for name, args in calls
                         if name == "enumerate_quotient_objects")
    assert [name for name, _ in calls if name == "subgroups"] == []
    assert {label: enumerated[G.site().signature()] for label, G in groups.items()} \
        == {label: 1 for label in groups}


def test_normalization_lemma_on_bundled_groups():
    for G in fixtures.bundled_groups().values():
        L = build_lsc(G.site())
        assert check_normalization_inflationary(L).ok, G.label


def test_normalization_lemma_on_all_monoids_up_to_order_3():
    for elements, mult in fixtures.all_monoids(1) + fixtures.all_monoids(2) \
            + fixtures.all_monoids(3):
        site = monoid_site(elements, lambda a, b: mult[(a, b)])
        assert check_normalization_inflationary(build_lsc(site)).ok, mult


def test_normalization_lemma_on_sampled_order_4_monoids():
    import itertools
    import random

    elements = ["m0", "m1", "m2", "m3"]
    rng = random.Random(99)
    found = 0
    while found < 25:
        mult = {}
        for a in elements:
            mult[("m0", a)] = a
            mult[(a, "m0")] = a
        for a, b in itertools.product(elements[1:], repeat=2):
            mult[(a, b)] = rng.choice(elements)
        if any(mult[(mult[(a, b)], c)] != mult[(a, mult[(b, c)])]
               for a in elements for b in elements for c in elements):
            continue
        found += 1
        site = monoid_site(elements, lambda a, b: mult[(a, b)])
        L = build_lsc(site)
        assert check_normalization_inflationary(L).ok, mult
        # the classifier is meet-closed with the action preserving meets
        for q1 in L.elements("*"):
            for q2 in L.elements("*"):
                assert q1.meet(q2) in set(L.elements("*"))


def test_non_idempotence_witness_on_d4(d4, named):
    L = build_lsc(d4.site())
    op = normalization_operator(L)
    q_t = subgroup_to_congruence(d4, named["<t>"])
    once = op.components["*"][q_t]
    twice = op.components["*"][once]
    assert once == subgroup_to_congruence(d4, named["<t,s2>"])
    assert twice == subgroup_to_congruence(d4, named["D4"])
    assert twice != once
    assert find_non_idempotence_witness(L) is not None


def test_non_monotonicity_witness_on_d4(d4):
    L = build_lsc(d4.site())
    witness = find_non_monotonicity_witness(L)
    assert witness is not None
    c, q1, q2 = witness
    op = normalization_operator(L)
    assert q1.leq(q2)
    assert not op.components[c][q1].leq(op.components[c][q2])


def test_dedekind_detection():
    q8 = fixtures.quaternion_8()
    assert is_dedekind(q8)
    assert normalization_is_top(build_lsc(q8.site()))
    for n in range(1, 7):
        zn = fixtures.cyclic_group(n)
        assert is_dedekind(zn)
        assert normalization_is_top(build_lsc(zn.site())), f"Z{n}"
    d4 = fixtures.dihedral_4()
    assert not is_dedekind(d4)
    assert not normalization_is_top(build_lsc(d4.site()))
    assert not normalization_is_top(build_lsc(fixtures.symmetric_3().site()))


def test_localic_collapse_on_posets():
    for name, site in fixtures.BUNDLED_POSETS.items():
        L = build_lsc(site)
        op = normalization_operator(L)
        for c in site.objects:
            (q,) = L.elements(c)
            assert op.components[c][q] == q, name


def test_idempotent_monoid_operator_is_identity():
    L = build_lsc(fixtures.idempotent_monoid_site())
    op = normalization_operator(L)
    assert len(L.elements("*")) == 2
    assert all(op.components["*"][q] == q for q in L.elements("*"))


# --- a group's laws are checked once, when the group is built ---------------------

def _checked_groups():
    from perfbench.inputs import elementary_abelian_16

    groups = fixtures.bundled_groups()  # D4, Q8, S3, S4, Z1-Z6
    groups.update(E16=elementary_abelian_16(), Z24=fixtures.cyclic_group(24))
    return groups


CHECKED_GROUPS = _checked_groups()


@pytest.mark.parametrize("name", sorted(CHECKED_GROUPS))
def test_group_site_laws_once_per_site(name):
    G = CHECKED_GROUPS[name]
    site = G.site()
    assert site.validate() is site
    assert site.same_site(monoid_site(G.elements, G.mult))


def test_group_site_is_built_without_a_second_law_check(monkeypatch):
    from toposlsc.fincat import FiniteCategory

    def refuse(self):
        raise AssertionError("group laws re-checked by the site")

    G = fixtures.symmetric_3()
    monkeypatch.setattr(FiniteCategory, "validate", refuse)
    assert G.site().morphisms_into("*") == G.elements
    with pytest.raises(AssertionError, match="re-checked"):
        monoid_site(G.elements, G.mult)


def test_building_a_group_checks_its_laws_once(monkeypatch):
    from toposlsc.fincat import FiniteCategory

    calls = []
    validate = FiniteCategory.validate
    monkeypatch.setattr(FiniteCategory, "validate",
                        lambda self: calls.append(self) or validate(self))
    G = fixtures.symmetric_3()
    assert calls == [G.site()]


def test_monoid_site_still_checks_an_unchecked_table():
    from toposlsc.errors import AssociativityViolation

    # a unit 1 with a*a = b, a*b = b, b*a = a, b*b = b: (a*a)*a = a but a*(a*a) = b
    elements = ["1", "a", "b"]
    mult = {("1", x): x for x in elements} | {(x, "1"): x for x in elements}
    mult.update({("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "b"})
    with pytest.raises(AssociativityViolation):
        monoid_site(elements, lambda x, y: mult[(x, y)])


def test_monoid_site_reads_every_name_through_str():
    # morphism names were str()-ed but the identity and the table were not,
    # so integer elements reported a missing identity on '*'
    site = monoid_site([0, 1], lambda a, b: a * b)
    assert site.morphisms == (("0", "*", "*"), ("1", "*", "*"))
    assert site.identity("*") == "1"
    assert site.compose("0", "1") == "0" and site.compose("1", "1") == "1"
    assert site.same_site(monoid_site(["0", "1"], lambda a, b: str(int(a) * int(b))))
    assert len(build_lsc(site).elements("*")) == 2


@pytest.mark.parametrize("names", [[0, 1], [(0,), (1,), (2,)]], ids=["int Z2", "tuple Z3"])
def test_group_reads_non_string_names_through_str(names):
    n = len(names)
    G = FiniteGroup(names, {(a, b): names[(names.index(a) + names.index(b)) % n]
                            for a in names for b in names}, display={names[0]: "e"})
    assert G.elements == tuple(map(str, names))
    assert G.identity == str(names[0]) == G.site().identity("*")
    assert G.display == {str(names[0]): "e"}
    assert G.mult(str(names[1]), str(names[-1])) == str(names[(1 + n - 1) % n])
    assert [H.order for H in subgroups(G)] == [1, n]
    assert len(build_lsc(G.site()).elements("*")) == 2


def test_a_failed_normalizer_check_carries_its_witness(monkeypatch, d4):
    # the group report and the verify suite search one counterexample
    # generator, so a failed oracle agreement names the subgroup it fails on
    from toposlsc import normalize
    from toposlsc.certificates import Certificate
    from toposlsc.reports import group_report
    from toposlsc.verify import _group_oracle_check

    L = build_lsc(d4.site())
    monkeypatch.setattr(normalize, "normalizer_direct", lambda G, H: H)
    verdict = group_report(d4, L)["verdicts"][0]
    assert verdict["check"] == "normalizer-oracle-agreement"
    assert verdict["pass"] is False and verdict["witness"] is not None
    cert = Certificate("normalize")
    _group_oracle_check(cert, d4, L)
    H, N, direct = cert.checks[0].witness
    assert not cert.checks[0].passed and N != H == direct
