import functools
import gc
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.inputs import connected_dfa, ends_regex
from toposlsc.errors import (
    AlphabetMismatch,
    BudgetExceeded,
    RegexSyntaxError,
    SymbolOutsideAlphabet,
    UnknownState,
)
from toposlsc import fixtures, io, reports, words
from toposlsc.reports import words_report
from toposlsc.words import (
    MAX_GROUP_DEPTH,
    Alt,
    Concat,
    Dfa,
    EmptyLang,
    EmptyWord,
    RightCongruence,
    Star,
    Sym,
    congruence_action,
    congruence_leq,
    congruence_meet,
    find_pointed_isomorphism,
    minimize,
    nerode_congruence,
    orbit_meet_check,
    parse_regex,
    random_min_dfa,
    regex_member,
    regex_to_min_dfa,
    residual_count_by_words,
    residual_count_dfa,
    state_classes,
    state_congruence,
    syntactically_equivalent_bruteforce,
    top_congruence,
    transition_monoid,
    words_upto,
    words_normalization_operator,
)

ROOT = Path(__file__).resolve().parents[1]


# --- parsing -------------------------------------------------------------------

def test_parse_trees():
    assert parse_regex("(ab)*", "ab") == Star(Concat(Sym("a"), Sym("b")))
    assert parse_regex("a|b", "ab") == Alt(Sym("a"), Sym("b"))
    assert parse_regex("#e", "ab") == EmptyWord()
    assert parse_regex("#0", "ab") == EmptyLang()
    assert parse_regex("ab*", "ab") == Concat(Sym("a"), Star(Sym("b")))


@pytest.mark.parametrize("src,position", [
    ("a(", 1),       # unclosed group, reported at the opening paren
    ("*a", 0),
    ("a)", 1),
    ("", 0),
    ("a|", 2),
    ("(|a)", 1),
    ("#x", 0),
    ("()", 1),
])
def test_parse_errors_carry_positions(src, position):
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(src, "ab")
    assert err.value.position == position


def test_symbol_outside_alphabet_is_its_own_error():
    with pytest.raises(SymbolOutsideAlphabet) as err:
        parse_regex("ac", "ab")
    assert err.value.symbol == "c" and err.value.position == 1


def test_long_regex_compiles_and_deep_nesting_is_a_syntax_error():
    assert regex_to_min_dfa("a" * 1500, "a").n == 1502
    assert parse_regex("abc", "abc") == Concat(Sym("a"), Concat(Sym("b"), Sym("c")))
    deepest = "(" * MAX_GROUP_DEPTH + "a" + ")" * MAX_GROUP_DEPTH
    assert parse_regex(deepest, "a") == Sym("a")
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("(" + deepest + ")", "a")
    assert err.value.position == MAX_GROUP_DEPTH


# --- compilation, cross-checked against the membership oracle -------------------

FIXED_REGEXES = ["(ab)*", "(a|b)*a", "a*", "#e", "#0", "a(a|b)*", "b(ab)*",
                 "a*b*", "(a|b)(a|b)",
                 # the closures behind the members' transitions overlap
                 "((a|b)*(a|b)*)*", "(a*b*)*a(#e|b)", "((a|#e)(b|#e))*b*"]


@pytest.mark.parametrize("expr", FIXED_REGEXES)
def test_min_dfa_agrees_with_naive_matcher(expr):
    tree = parse_regex(expr, "ab")
    d = regex_to_min_dfa(tree, "ab")
    memo = {}
    for w in words_upto(("a", "b"), 7):
        assert d.accepts(w) == regex_member(tree, w, memo), (expr, w)


# frozen facts, dual-route: Hopcroft pipeline vs word-enumeration oracle
FROZEN_STATES = {"(ab)*": 3, "(a|b)*a": 2, "a*": 2, "#e": 2, "#0": 1}


@pytest.mark.parametrize("expr,states", sorted(FROZEN_STATES.items()))
def test_min_dfa_state_counts(expr, states):
    d = regex_to_min_dfa(expr, "ab")
    assert d.n == states
    assert residual_count_by_words(parse_regex(expr, "ab"), ("a", "b"), 6, 7) == states


# --- membership by derivatives ---------------------------------------------------

def _structural_member(tree, word, memo):
    """The recursive definition of membership, node by node and split by
    split: a second, derivative-free reference for regex_member."""
    key = (id(tree), word)
    if key not in memo:
        if isinstance(tree, EmptyLang):
            out = False
        elif isinstance(tree, EmptyWord):
            out = word == ""
        elif isinstance(tree, Sym):
            out = word == tree.ch
        elif isinstance(tree, Alt):
            out = (_structural_member(tree.left, word, memo)
                   or _structural_member(tree.right, word, memo))
        elif isinstance(tree, Concat):
            out = any(_structural_member(tree.left, word[:i], memo)
                      and _structural_member(tree.right, word[i:], memo)
                      for i in range(len(word) + 1))
        else:
            out = word == "" or any(_structural_member(tree.inner, word[:i], memo)
                                    and _structural_member(tree, word[i:], memo)
                                    for i in range(1, len(word) + 1))
        memo[key] = out
    return memo[key]


def _regex_trees(alphabet):
    leaves = st.one_of(st.just(EmptyLang()), st.just(EmptyWord()),
                       st.sampled_from(alphabet).map(Sym))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Concat, sub, sub), st.builds(Alt, sub, sub), st.builds(Star, sub)),
        max_leaves=8)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), _regex_trees(alphabet))))
def test_derivative_membership_agrees_with_the_dfa_and_the_structural_matcher(case):
    alphabet, tree = case
    d = regex_to_min_dfa(tree, alphabet)
    memo, reference = {}, {}
    for w in words_upto(tuple(alphabet), 7):
        assert regex_member(tree, w, memo) == d.accepts(w) \
            == _structural_member(tree, w, reference), (tree, w)


def test_derivatives_derive_each_prefix_once(monkeypatch):
    tree = parse_regex("(ab)*", "ab")
    derivatives, layer = {tree}, [tree]  # every D_u, closed under the letters
    while layer:
        layer = [t for t in {words._derive(t, ch) for t in layer for ch in "ab"}
                 if t not in derivatives]
        derivatives.update(layer)
    assert len(derivatives) == 3  # (ab)*, b(ab)* and the empty language
    calls = []
    derive = words._derive

    def counting(term, ch):
        calls.append(ch)
        return derive(term, ch)

    monkeypatch.setattr(words, "_derive", counting)
    for pipeline in ("_thompson", "regex_to_min_dfa", "minimize", "_refine",
                     "residual_count_dfa"):
        monkeypatch.setattr(words, pipeline, None)  # the oracle stays off them
    # the residual oracle derives each (derivative, letter) once
    assert residual_count_by_words(tree, ("a", "b"), 6, 7) == 3
    assert len(calls) <= len(derivatives) * 2 == 6
    # regex_member derives each prefix of the words it is asked once
    calls.clear()
    memo = {}
    prefixes = words_upto(("a", "b"), 13)
    for w in prefixes:
        regex_member(tree, w, memo)
    assert len(prefixes) == 16383 and set(memo) == set(prefixes)
    assert len(calls) <= len(prefixes)


def _residual_count_word_by_word(tree, alphabet, prefix_bound, suffix_bound):
    """The definition the residual oracle computes: every prefix u signed by
    membership of uw, word by word, for every suffix w."""
    memo, suffixes = {}, words_upto(alphabet, suffix_bound)
    return len({tuple(regex_member(tree, u + w, memo) for w in suffixes)
                for u in words_upto(alphabet, prefix_bound)})


@pytest.mark.parametrize("expr,alphabet", fixtures.BUNDLED_REGEXES)
def test_residual_oracle_agrees_with_the_word_by_word_definition(expr, alphabet):
    tree, letters = parse_regex(expr, alphabet), tuple(alphabet)
    bounds = [(0, 0), (0, 3), (2, 0), (1, 2), (3, 1)]
    bounds += [(4, 5), (5, 4)] if len(letters) == 2 else [(3, 3), (4, 2)]
    for prefix_bound, suffix_bound in bounds:
        assert residual_count_by_words(tree, letters, prefix_bound, suffix_bound) \
            == _residual_count_word_by_word(tree, letters, prefix_bound, suffix_bound), \
            (expr, prefix_bound, suffix_bound)
    n = regex_to_min_dfa(tree, alphabet).n
    assert residual_count_by_words(tree, letters, 2 * n, 2 * n + 1) == n


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), _regex_trees(alphabet),
                               st.integers(0, 3), st.integers(0, 3))))
def test_residual_oracle_agrees_with_the_word_by_word_definition_on_random_trees(case):
    alphabet, tree, prefix_bound, suffix_bound = case
    assert residual_count_by_words(tree, alphabet, prefix_bound, suffix_bound) \
        == _residual_count_word_by_word(tree, alphabet, prefix_bound, suffix_bound)


def _size(node):
    if isinstance(node, (Concat, Alt)):
        return 1 + _size(node.left) + _size(node.right)
    return 1 + _size(node.inner) if isinstance(node, Star) else 1


@pytest.mark.parametrize("expr,alphabet", fixtures.BUNDLED_REGEXES)
def test_derivative_size_stays_bounded_on_long_words(expr, alphabet):
    tree = parse_regex(expr, alphabet)
    rng = random.Random(f"derivatives {expr}")
    words200 = [ch * 200 for ch in alphabet] + [
        "".join(rng.choice(alphabet) for _ in range(200)) for _ in range(20)]
    words200.append((alphabet * 200)[:200])  # (abc)* keeps all 200 letters live
    for word in words200:
        term, sizes = tree, []
        for ch in word:
            term = words._derive(term, ch)
            sizes.append(_size(term))
        assert max(sizes) <= 2 * _size(tree), (expr, word, max(sizes))
        assert regex_member(tree, word) == regex_to_min_dfa(tree, alphabet).accepts(word)


def test_long_regexes_hash_compare_and_derive_without_recursion():
    # 1500 nested concatenations or alternations are deeper than the
    # interpreter's recursion limit: hashing, equality, repr, nullability
    # and derivatives all walk them without recursing
    tree = parse_regex("a" * 1500, "ab")
    assert repr(tree) == "Concat(Sym('a'), " * 1499 + "Sym('a')" + ")" * 1499
    assert hash(tree) == hash(parse_regex("a" * 1500, "ab"))
    assert tree == parse_regex("a" * 1500, "ab") != parse_regex("a" * 1499 + "b", "ab")
    assert regex_member(tree, "a" * 1500)
    assert not regex_member(tree, "a" * 1499) and not regex_member(tree, "a" * 1501)
    # two equal deep alternatives meet in one derivative's alternation
    twice = parse_regex("a" * 1500 + "|" + "a" * 1500, "ab")
    assert regex_member(twice, "a" * 1500) and not regex_member(twice, "a" * 1501)
    many = parse_regex("|".join(["a"] * 1500), "ab")
    assert regex_member(many, "a") and not regex_member(many, "aa")


def test_regex_repr_is_pinned():
    assert repr(parse_regex("(ab)*|c", "abc")) == "Alt(Star(Concat(Sym('a'), Sym('b'))), Sym('c'))"
    assert (repr(words.Star(words.Concat(words.EmptyWord(), words.EmptyLang())))
            == "Star(Concat(EmptyWord(), EmptyLang()))")


def test_a_memo_serves_one_tree():
    memo = {}
    assert regex_member(parse_regex("a*", "ab"), "aa", memo)
    with pytest.raises(ValueError):
        regex_member(parse_regex("b*", "ab"), "bb", memo)


def test_empty_language_dfa_has_no_accepting_state():
    d = regex_to_min_dfa("#0", "ab")
    assert d.n == 1 and not d.accepting


def test_dfa_validation():
    with pytest.raises(UnknownState):
        Dfa("ab", 2, 5, set(), [[0, 1], [1, 0]])
    with pytest.raises(UnknownState):
        Dfa("ab", 2, 0, {3}, [[0, 1], [1, 0]])
    with pytest.raises(AlphabetMismatch):
        Dfa("aa", 1, 0, set(), [[0, 0]])


@pytest.mark.parametrize("rows", [[[0, -1]], [[0, 5]], [[0, 1], [1, 2]]])
def test_out_of_range_targets_are_unknown_states(rows):
    with pytest.raises(UnknownState):
        RightCongruence("ab", rows)
    with pytest.raises(UnknownState):
        Dfa("ab", len(rows), 0, set(), rows)


def test_dfa_and_congruence_are_never_equal():
    d = regex_to_min_dfa("(ab)*", "ab")
    rc = RightCongruence(d.alphabet, d.delta)
    assert d != rc and rc != d and nerode_congruence(d) == rc
    assert d == Dfa(d.alphabet, d.n, 0, d.accepting, d.delta)
    assert d != Dfa(d.alphabet, d.n, 0, set(), d.delta)


def test_dfa_trims_unreachable_states():
    d = Dfa("ab", 3, 0, {2}, [[0, 0], [1, 1], [2, 2]])
    assert d.n == 1 and not d.accepting


# --- nerode congruences ---------------------------------------------------------------

def test_nerode_indices():
    assert nerode_congruence(regex_to_min_dfa("(ab)*", "ab")).index == 3
    assert nerode_congruence(regex_to_min_dfa("(a|b)*a", "ab")).index == 2
    assert nerode_congruence(regex_to_min_dfa("(a|b)*", "ab")) == \
        top_congruence("ab")


def test_nerode_minimizes_internally():
    # (ab)* with the accepting state duplicated: q3 mirrors q0
    bloated = Dfa("ab", 4, 0, {0, 3}, [[1, 2], [2, 3], [2, 2], [1, 2]])
    assert bloated.accepts("") and bloated.accepts("abab") and not bloated.accepts("a")
    assert bloated.n == 4
    assert nerode_congruence(bloated).index == 3


def test_state_congruence_examples():
    rc = nerode_congruence(regex_to_min_dfa("(ab)*", "ab"))
    # initial state gives back the congruence itself
    assert state_congruence(rc, 0) == rc
    # the sink has all self-loops: the total congruence
    sink = rc.run("aa")
    assert state_congruence(rc, sink) == top_congruence("ab")
    # the state after a is the nerode congruence of the residual b(ab)*
    after_a = rc.run("a")
    assert state_congruence(rc, after_a) == \
        nerode_congruence(regex_to_min_dfa("b(ab)*", "ab"))
    with pytest.raises(UnknownState):
        state_congruence(rc, 17)


def test_congruence_action():
    rc = nerode_congruence(regex_to_min_dfa("(ab)*", "ab"))
    assert congruence_action(rc, "") == rc
    assert congruence_action(rc, "a") == \
        nerode_congruence(regex_to_min_dfa("b(ab)*", "ab"))
    top = top_congruence("ab")
    assert congruence_action(top, "abba") == top
    with pytest.raises(SymbolOutsideAlphabet):
        congruence_action(rc, "xyz")


# --- the lattice ------------------------------------------------------------------------

def test_meet_is_idempotent_and_bounded():
    rc = nerode_congruence(regex_to_min_dfa("(ab)*", "ab"))
    assert congruence_meet(rc, rc) == rc
    top = top_congruence("ab")
    assert congruence_meet(rc, top) == rc
    assert congruence_leq(rc, top)


def test_meet_of_ends_in_a_and_ends_in_b():
    rc1 = nerode_congruence(regex_to_min_dfa("(a|b)*a", "ab"))
    rc2 = nerode_congruence(regex_to_min_dfa("(a|b)*b", "ab"))
    met = congruence_meet(rc1, rc2)
    assert met.index == 3
    assert congruence_leq(met, rc1) and congruence_leq(met, rc2)
    # the two factors are incomparable
    assert not congruence_leq(rc1, rc2) and not congruence_leq(rc2, rc1)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        congruence_meet(top_congruence("ab"), top_congruence("abc"))


# --- syntactic congruences ------------------------------------------------------------------

def test_syntactic_monoid_of_ab_star():
    d = regex_to_min_dfa("(ab)*", "ab")
    tm = transition_monoid(d.alphabet, d.delta)
    syn = tm.cayley_congruence()
    assert tm.order == 6
    assert tm.witnesses == ("", "a", "b", "aa", "ab", "ba")
    assert syn.index == 6
    # monoid laws on the composition table
    table = tm.table()
    assert all(table[0][j] == j == table[j][0] for j in range(6))
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def test_syntactic_monoid_orders():
    for expr, order in (("(a|b)*a", 3), ("(a|b)*", 1), ("a*", 2)):
        d = regex_to_min_dfa(expr, "ab")
        assert transition_monoid(d.alphabet, d.delta).order == order


def test_syntactic_congruence_agrees_with_two_sided_bruteforce():
    for expr in ("(ab)*", "(a|b)*a", "a*"):
        d = regex_to_min_dfa(expr, "ab")
        syn = transition_monoid(d.alphabet, d.delta).cayley_congruence()
        for u in words_upto(("a", "b"), 2):
            for v in words_upto(("a", "b"), 2):
                assert syn.related(u, v) == \
                    syntactically_equivalent_bruteforce(d, u, v), (expr, u, v)


def _two_sided_by_words(d, u, v, bound):
    """The two-sided test over the context words of length <= bound, left
    contexts deduplicated through the state they reach."""
    contexts = words_upto(d.alphabet, bound)
    for p in {d.run(w) for w in contexts}:
        pu, pv = d.run(u, start=p), d.run(v, start=p)
        if pu != pv and any((d.run(w, start=pu) in d.accepting)
                            != (d.run(w, start=pv) in d.accepting) for w in contexts):
            return False
    return True


def test_layered_two_sided_oracle_matches_word_enumeration():
    rng = random.Random("two-sided oracle")
    dfas = [regex_to_min_dfa(expr, "ab") for expr in ("(ab)*", "(a|b)*a")]
    dfas += [random_min_dfa(rng, 6, "ab") for _ in range(20)]
    short = words_upto(("a", "b"), 2)
    for d in dfas:
        syn = transition_monoid(d.alphabet, d.delta).cayley_congruence()
        # n - 1 letters reach every state of a minimal DFA and tell any two
        # states apart, so past that the verdict no longer depends on the bound
        full = d.n * d.n if d.n <= 3 else d.n
        for u in short:
            for v in short:
                assert syntactically_equivalent_bruteforce(d, u, v) == syn.related(u, v) \
                    == _two_sided_by_words(d, u, v, full), (d, u, v)
                for bound in (0, 1, 2):
                    assert syntactically_equivalent_bruteforce(d, u, v, bound) \
                        == _two_sided_by_words(d, u, v, bound), (d, u, v, bound)


def test_syntactic_refines_nerode():
    for expr in ("(ab)*", "(a|b)*a", "a*b*"):
        d = regex_to_min_dfa(expr, "ab")
        rc = nerode_congruence(d)
        syn = transition_monoid(d.alphabet, d.delta).cayley_congruence()
        assert congruence_leq(syn, rc), expr


# --- orbit infimum ---------------------------------------------------------------------------

def test_orbit_meet_equals_syntactic_on_fixtures():
    for expr in ("(ab)*", "(a|b)*a", "(a|b)*", "a*b*", "(a|b)*abb"):
        d = regex_to_min_dfa(expr, "ab")
        rc = nerode_congruence(d)
        syn = transition_monoid(d.alphabet, d.delta).cayley_congruence()
        met, agrees = orbit_meet_check(rc, syn)
        assert agrees, expr
        assert met == syn


def test_orbit_of_ab_star_has_three_elements():
    rc = nerode_congruence(regex_to_min_dfa("(ab)*", "ab"))
    assert words_normalization_operator(rc).index == 3
    top = top_congruence("ab")
    assert orbit_meet_check(top, top) == (top, True)


def _count_calls(monkeypatch, name):
    """Record what each call of words.<name> returns, from words itself or
    from reports.  A class is counted at its __init__, so it stays a class."""
    calls = []
    real = getattr(words, name)
    if isinstance(real, type):
        init = real.__init__

        def counting_init(self, *args):
            init(self, *args)
            calls.append(self)

        monkeypatch.setattr(real, "__init__", counting_init)
        return calls

    def counting(*args):
        calls.append(real(*args))
        return calls[-1]

    for module in (words, reports):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_words_report_builds_one_transition_monoid(monkeypatch):
    built = _count_calls(monkeypatch, "transition_monoid")
    words_report(regex_to_min_dfa("(ab)*", "ab"))
    assert len(built) == 1


def test_words_report_minimizes_once(monkeypatch):
    d = regex_to_min_dfa("(ab)*", "ab")
    calls = _count_calls(monkeypatch, "minimize")
    words_report(d)
    assert len(calls) == 1


def test_words_verdicts_fail_when_minimize_merges_nerode_classes(monkeypatch):
    # the Nerode index is read off the input DFA, not off minimize's output,
    # so a minimize that collapses every DFA to one state cannot agree with itself
    d = io.load_dfa(ROOT / "demos" / "data" / "ends_in_a.dfa")
    assert d.n == 2
    monkeypatch.setattr(reports, "minimize",
                        lambda d: Dfa(d.alphabet, 1, 0, {0}, [[0] * len(d.alphabet)]))
    verdicts = {c.name: c.passed for c in reports.words_analysis(d)[-1].checks}
    assert not verdicts["nerode-index-equals-minimal-states"]
    assert not verdicts["residual-oracle-agreement"]


def test_words_report_classifies_states_once(monkeypatch):
    # 300 states with a 300-element monoid: one RightCongruence per congruence
    # the report names (Nerode, syntactic, orbit meet, normalization image),
    # not one per state, whether its rows are checked or trusted; the Nerode
    # congruence of a chain is two-sided, so the orbit fold takes no product
    d = regex_to_min_dfa("a" * 298, "a")
    assert d.n == 300
    built = _count_calls(monkeypatch, "RightCongruence")
    trusted = _count_calls(monkeypatch, "_from_explored")
    classified = _count_calls(monkeypatch, "state_classes")
    products = _count_calls(monkeypatch, "_product_rows")
    words_report(d)
    assert len(classified) == 1
    assert len(built) + len(trusted) <= 4
    assert products == []


def test_orbit_size_and_monoid_table_on_random_dfas():
    rng = random.Random(2718)
    for i in range(30):
        d = random_min_dfa(rng, 4, "ab" if i % 2 else "abc")
        rc = nerode_congruence(d)
        # the orbit {rc * w}: every state is reached by a word shorter than rc.index
        orbit = {congruence_action(rc, w) for w in words_upto(d.alphabet, rc.index - 1)}
        assert len(orbit) == words_normalization_operator(rc).index
        tm = transition_monoid(d.alphabet, d.delta)
        syn = tm.cayley_congruence()
        # the Cayley structure reads each witness back to its own element
        assert [syn.run(w) for w in tm.witnesses] == list(range(tm.order))
        table = tm.table()
        for i, wi in enumerate(tm.witnesses):
            for j, wj in enumerate(tm.witnesses):
                reached = tuple(d.run(wi + wj, start=s) for s in range(d.n))
                assert tm.elements[table[i][j]] == reached


def test_orbit_meet_scales_to_a_large_transition_monoid(monkeypatch):
    # two transformations of a 6-state machine generating 32262 elements;
    # the orbit infimum must still match the transition-monoid route quickly
    delta = [[0, 5], [5, 2], [1, 0], [4, 1], [5, 3], [3, 4]]
    d = minimize(Dfa("ab", 6, 0, {0, 3}, delta))
    assert d.n == 6
    rc = nerode_congruence(d)
    tm = transition_monoid(d.alphabet, d.delta)
    syn = tm.cayley_congruence()
    products = _count_calls(monkeypatch, "_product_rows")
    meet, agrees = orbit_meet_check(rc, syn)
    assert agrees
    assert meet.index == 32262
    assert meet.index == tm.order
    # meeting the smallest pending meets first explores fewer product rows
    # than folding rc * (rc at 1) * ... * (rc at 5) in turn, which takes 41586
    assert len(products) == 5
    assert sum(map(len, products)) == 33666 < 41586


def test_orbit_fold_stops_once_the_meet_is_two_sided(monkeypatch):
    # rc met with rc at state 1 is the whole 511-element meet and is
    # two-sided, so the other 254 members are not met
    products = _count_calls(monkeypatch, "_product_rows")
    words_report(regex_to_min_dfa(ends_regex(7), "ab"))
    assert [len(rows) for rows in products] == [511]


# --- normalization on words ----------------------------------------------------------------------

def test_normalization_groups_isomorphic_futures():
    rc = nerode_congruence(regex_to_min_dfa("a(a|b)*", "ab"))
    assert rc.index == 3
    image = words_normalization_operator(rc)
    assert image.index == 2


def test_incompatible_state_classes_are_an_internal_error(monkeypatch):
    # the guard is a raise, not an assert, so it also holds under `python -O`
    # (ab)*: state 0 goes to classes 0, 1 and state 1 to classes 1, 0
    monkeypatch.setattr(words, "state_classes", lambda rc: [0, 0, 1])
    rc = nerode_congruence(regex_to_min_dfa("(ab)*", "ab"))
    with pytest.raises(RuntimeError, match="not transition-compatible"):
        words_normalization_operator(rc)
    script = ("from toposlsc import cli, words\n"
              "words.state_classes = lambda rc: [0, 0, 1]\n"
              "raise SystemExit(cli.main(['words', '--regex', '(ab)*', '--alphabet', 'ab']))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr == ("internal error: RuntimeError: "
                             "state classes are not transition-compatible\n")


def test_normalization_fixes_top():
    top = top_congruence("ab")
    assert words_normalization_operator(top) == top


def test_normalization_inflationary_on_random_dfas():
    rng = random.Random(4096)
    for i in range(50):
        d = random_min_dfa(rng, 6, "ab" if i % 2 else "abc")
        rc = nerode_congruence(d)
        assert congruence_leq(rc, words_normalization_operator(rc))


# --- state classes ----------------------------------------------------------------------------------

def _random_system(rng, k):
    n = rng.randint(1, 12)
    return [[rng.randrange(n) for _ in range(k)] for _ in range(n)]


def _de_bruijn(rng, k):
    # the ends-m automata: the state is the last m letters, one block holds all
    size = k ** rng.randint(1, 4)
    return [[(s * k + a) % size for a in range(k)] for s in range(size)]


def _tree_into_sink(rng, k):
    # a complete k-ary tree of depth 1-3 whose leaves go to a sink
    rows, level = [None], [0]
    for _ in range(rng.randint(1, 3)):
        children = []
        for s in level:
            rows[s] = list(range(len(rows), len(rows) + k))
            children += rows[s]
            rows += [None] * k
        level = children
    sink = len(rows)
    for s in level:
        rows[s] = [sink] * k
    return rows + [[sink] * k]


def _chained_copies(rng, k):
    # copies of one random strongly connected system (a cycle on the first
    # letter plus random transitions), each copy's state 0 leaving for the
    # next copy by the last letter
    size, count = rng.randint(1, 4), rng.randint(2, 4)
    base = [[(s + 1) % size] + [rng.randrange(size) for _ in range(k - 1)]
            for s in range(size)]
    rows = []
    for i in range(count):
        rows += [[i * size + t for t in row] for row in base]
        if i + 1 < count:
            rows[i * size][k - 1] = (i + 1) * size
    return rows


def _cyclic_shifts(rng, k):
    # letter a adds c_a modulo the size: every rotation is an automorphism
    size = rng.randint(1, 7)
    shifts = [rng.randrange(size) for _ in range(k)]
    return [[(s + c) % size for c in shifts] for s in range(size)]


STATE_CLASS_FAMILIES = {
    "random": _random_system,
    "de-bruijn": _de_bruijn,
    "tree-into-sink": _tree_into_sink,
    "chained-copies": _chained_copies,
    "cyclic-shifts": _cyclic_shifts,
}


def _under_a_root(rng, rows, k):
    """A new initial state whose letters enter random states of disjoint
    copies of ``rows``: copies of one state have isomorphic futures."""
    size = len(rows)
    copies = [[c * size + 1 + t for t in row] for c in range(k) for row in rows]
    return [[c * size + 1 + rng.randrange(size) for c in range(k)]] + copies


def _accessible_part(rows, q):
    """The states reachable from q in increasing original order (not the
    canonical numbering), as (rows, initial)."""
    seen, todo = {q}, [q]
    while todo:
        for t in rows[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    order = sorted(seen)
    position = {s: i for i, s in enumerate(order)}
    return [[position[t] for t in rows[s]] for s in order], position[q]


@pytest.mark.parametrize("letters", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(STATE_CLASS_FAMILIES))
def test_state_classes_are_the_pointed_isomorphism_classes(family, letters):
    rng = random.Random(f"{family} {letters}")
    for i in range(40):
        rows = STATE_CLASS_FAMILIES[family](rng, letters)
        if i % 2:
            rows = _under_a_root(rng, rows, letters)
        rc = RightCongruence("abc"[:letters], rows)
        classes = state_classes(rc)
        by_form = {}
        assert classes == [by_form.setdefault(state_congruence(rc, q), len(by_form))
                           for q in range(rc.n)]
        if rc.n <= 8:
            for q in range(rc.n):
                for p in range(q):
                    iso = find_pointed_isomorphism(_accessible_part(rc.delta, p),
                                                   _accessible_part(rc.delta, q))
                    assert (iso is not None) == (classes[p] == classes[q])


def test_state_classes_of_one_state_and_of_the_empty_alphabet():
    assert state_classes(top_congruence("")) == [0]
    assert state_classes(top_congruence("ab")) == [0]
    assert words_normalization_operator(top_congruence("")) == top_congruence("")


def test_state_classes_need_a_bijection_not_a_homomorphism():
    # states 1 and 2 share a block, and 1's future (two sinks) maps onto 2's
    # (one sink), but the two futures are not isomorphic
    rc = RightCongruence("ab", [[1, 2], [3, 4], [5, 5], [3, 3], [4, 4], [5, 5]])
    assert state_classes(rc) == [0, 1, 2, 3, 3, 3]


# --- canonical forms ------------------------------------------------------------------------------

def test_canonicalization_agrees_with_backtracking_iso_search():
    rng = random.Random(123)
    for i in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randrange(n) for _ in "ab"] for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [None] * n
        for s in range(n):
            relabeled[perm[s]] = [perm[t] for t in rows[s]]
        init = rng.randrange(n)
        a = RightCongruence("ab", rows, init)
        b = RightCongruence("ab", relabeled, perm[init])
        assert a == b
        other_rows = [[rng.randrange(n) for _ in "ab"] for _ in range(n)]
        c = RightCongruence("ab", other_rows, init)
        assert (a == c) == (find_pointed_isomorphism((a.delta, 0), (c.delta, 0)) is not None)


def test_witnesses_are_shortlex():
    rc = nerode_congruence(regex_to_min_dfa("(ab)*", "ab"))
    assert rc.witnesses() == ("", "a", "b")


# --- hypothesis properties -------------------------------------------------------------------------

small_seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(small_seeds, small_seeds)
def test_action_commutes_with_meet(seed1, seed2):
    rng = random.Random(seed1)
    rc1 = nerode_congruence(random_min_dfa(rng, 4, "ab"))
    rc2 = nerode_congruence(random_min_dfa(rng, 4, "ab"))
    word = "".join(random.Random(seed2).choice("ab") for _ in range(3))
    lhs = congruence_action(congruence_meet(rc1, rc2), word)
    rhs = congruence_meet(congruence_action(rc1, word), congruence_action(rc2, word))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_seeds, st.sampled_from(["ab", "abc"]))
def test_leq_is_the_meet_order(seed, alphabet):
    rng = random.Random(seed)
    rc1, rc2 = (nerode_congruence(random_min_dfa(rng, 5, alphabet)) for _ in range(2))
    for a, b in [(rc1, rc2), (rc2, rc1), (congruence_meet(rc1, rc2), rc2)]:
        assert congruence_leq(a, b) == (congruence_meet(a, b) == a)


@settings(max_examples=40, deadline=None)
@given(small_seeds)
def test_action_never_raises_index(seed):
    rng = random.Random(seed)
    rc = nerode_congruence(random_min_dfa(rng, 5, "ab"))
    for w in ("", "a", "ab", "bba"):
        assert congruence_action(rc, w).index <= rc.index


@settings(max_examples=25, deadline=None)
@given(small_seeds)
def test_orbit_meet_identity_on_random_dfas(seed):
    rng = random.Random(seed)
    d = random_min_dfa(rng, 5, "ab")
    syn = transition_monoid(d.alphabet, d.delta).cayley_congruence()
    assert orbit_meet_check(nerode_congruence(d), syn)[1]


@settings(max_examples=30, deadline=None)
@given(small_seeds, st.sampled_from(["a", "ab", "abc"]))
def test_explored_rows_are_canonical_already(seed, alphabet):
    # rows of a minimal Dfa, of a Cayley graph and of pointed products are
    # numbered breadth-first already: checking and renumbering them changes
    # neither the value nor its hash
    rng = random.Random(seed)
    d, e = (random_min_dfa(rng, 5, alphabet) for _ in range(2))
    tm = transition_monoid(d.alphabet, d.delta)
    q = rng.randrange(d.n)
    for rows in (d.delta, e.delta, tm.cayley_congruence().delta,
                 words._product_rows(d.delta, e.delta, (0, 0)),
                 words._product_rows(d.delta, d.delta, (q, 0)),
                 words._product_rows(e.delta, d.delta, (0, q))):
        trusted = words._from_explored(d.alphabet, rows)
        checked = RightCongruence(d.alphabet, rows)
        assert trusted == checked
        assert hash(trusted) == hash(checked)


def _orbit_fold_examples(test):
    """Run ``test`` first on congruences that decide the fold's stop every
    way: chains and cycles (rc alone is two-sided), ends_regex(k) (the first
    product is), permutation DFAs (the meet is a group's Cayley graph), roots
    over copies, and b(a|b)*a.  There the sink's member is the total
    congruence, so a meet without rc is two-sided, and rc's first product
    does not grow; both are coarser than the orbit meet."""
    regexes = [("a" * k or "#e", "a") for k in range(5)]
    regexes += [(f"({'a' * k})*", "a") for k in range(1, 5)]
    regexes += [(ends_regex(k), "ab") for k in range(5)] + [("b(a|b)*a", "ab")]
    inputs = [nerode_congruence(regex_to_min_dfa(expr, alphabet)) for expr, alphabet in regexes]
    for n in (3, 4, 5):
        # a rotates; b swaps states 0 and 1 (the symmetric group) or reflects
        for b in ((1, 0, *range(2, n)), [-s % n for s in range(n)]):
            inputs.append(nerode_congruence(
                Dfa("ab", n, 0, {0}, [[(s + 1) % n, b[s]] for s in range(n)])))
    rng = random.Random("orbit fold")
    for rows in ([[(s + 1) % 3, s] for s in range(3)], _tree_into_sink(rng, 2)):
        inputs.append(RightCongruence("ab", _under_a_root(rng, rows, 2)))
    for rc in inputs:
        test = example(rc)(test)
    return test


def _random_nerode_congruence(seed, alphabet):
    return nerode_congruence(random_min_dfa(random.Random(seed), 5, alphabet))


@settings(max_examples=30, deadline=None)
@given(st.builds(_random_nerode_congruence, small_seeds, st.sampled_from(["a", "ab", "abc"])))
@_orbit_fold_examples
def test_orbit_fold_equals_the_meet_of_the_state_congruences(rc):
    reference = functools.reduce(congruence_meet,
                                 [state_congruence(rc, q) for q in range(rc.n)])
    assert orbit_meet_check(rc, reference) == (reference, True)


@settings(max_examples=25, deadline=None)
@given(small_seeds)
def test_myhill_nerode_on_random_dfas(seed):
    rng = random.Random(seed)
    d = random_min_dfa(rng, 6, "ab")
    assert nerode_congruence(d).index == d.n == residual_count_dfa(d)


@settings(max_examples=30, deadline=None)
@given(small_seeds)
def test_minimization_preserves_language_and_matches_refinement_oracle(seed):
    # raw, usually non-minimal DFAs: Hopcroft against the Moore-style oracle
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    delta = [[rng.randrange(n) for _ in "ab"] for _ in range(n)]
    accepting = {s for s in range(n) if rng.random() < 0.4}
    d = Dfa("ab", n, 0, accepting, delta)
    m = minimize(d)
    assert m.n == residual_count_dfa(d)
    for w in words_upto(("a", "b"), 6):
        assert d.accepts(w) == m.accepts(w)


def _residual_count_by_rounds(d):
    """Moore's refinement round by round over all n states until nothing
    splits: the reference for the propagating residual_count_dfa."""
    classes = [1 if s in d.accepting else 0 for s in range(d.n)]
    k = len(d.alphabet)
    for _ in range(2 * d.n):
        keys = {}
        nxt = []
        for s in range(d.n):
            key = (classes[s], tuple(classes[d.delta[s][a]] for a in range(k)))
            nxt.append(keys.setdefault(key, len(keys)))
        if nxt == classes:
            break
        classes = nxt
    return len(set(classes))


@st.composite
def _non_minimal_dfas(draw):
    """Raw random DFAs, chains into a sink and cycles, each with an arbitrary
    accepting set: mostly not minimal, so the residual count is below n."""
    k = draw(st.integers(0, 3))
    n = draw(st.integers(1, 40))
    family = draw(st.sampled_from(["random", "chain", "cycle"]))
    if family == "random" or k == 0:
        rows = [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)]
    elif family == "chain":
        rows = [[min(s + 1, n - 1)] + [n - 1] * (k - 1) for s in range(n)]
    else:
        rows = [[(s + 1) % n] + [draw(st.integers(0, n - 1)) for _ in range(k - 1)]
                for s in range(n)]
    period = draw(st.integers(1, 5))
    accepting = draw(st.one_of(st.just({s for s in range(n) if s % period == 0}),
                               st.sets(st.integers(0, n - 1))))
    return Dfa("abc"[:k], n, 0, accepting, rows)


@settings(max_examples=150, deadline=None)
@given(_non_minimal_dfas())
def test_propagating_residual_oracle_agrees_with_moore_rounds(d):
    assert residual_count_dfa(d) == _residual_count_by_rounds(d) == minimize(d).n


class _CountingRows(list):
    """A transition table that counts the rows read by index: one per
    signature in residual_count_dfa, one per signature and letter in the
    round-by-round reference."""

    reads = 0

    def __getitem__(self, s):
        self.reads += 1
        return list.__getitem__(self, s)


def _signatures(oracle, d):
    rows = _CountingRows(d.delta)
    fake = types.SimpleNamespace(n=d.n, delta=rows, accepting=d.accepting, alphabet=d.alphabet)
    count = oracle(fake)
    return count, rows.reads


@pytest.mark.parametrize("alphabet", ["a", "ab"])
def test_residual_oracle_signs_a_chain_a_few_times_per_state(alphabet):
    # the 1502-state chain needs 1501 Moore rounds; re-signing only the
    # predecessors of states that changed block signs each state about once
    d = regex_to_min_dfa("a" * 1500, alphabet)
    count, signed = _signatures(residual_count_dfa, d)
    assert count == d.n == 1502
    assert signed <= 4 * d.n
    # n rounds over all n states read about n^2 rows per letter, here on a
    # shorter chain
    short = regex_to_min_dfa("a" * 98, alphabet)
    count, signed = _signatures(_residual_count_by_rounds, short)
    assert count == short.n == 100
    assert signed >= short.n ** 2 / 2


def _same_language(d1, d2):
    """Exact language equality: every reachable state pair agrees on acceptance."""
    seen, todo = {(0, 0)}, [(0, 0)]
    while todo:
        p, q = todo.pop()
        if (p in d1.accepting) != (q in d2.accepting):
            return False
        for pair in zip(d1.delta[p], d2.delta[q]):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=300), small_seeds)
def test_minimize_large_random_dfas_against_the_refinement_oracle(n, seed):
    d = connected_dfa(random.Random(seed), n)
    m = minimize(d)
    assert m.n == residual_count_dfa(d)
    assert _same_language(d, m)


@pytest.mark.parametrize("family", sorted(STATE_CLASS_FAMILIES))
def test_minimize_structured_dfas_against_the_refinement_oracle(family):
    # copies of one system split blocks that are still waiting as splitters
    rng = random.Random(f"minimize {family}")
    for i in range(60):
        k = 1 + i % 3
        rows = _under_a_root(rng, STATE_CLASS_FAMILIES[family](rng, k), k)
        accepting = {s for s in range(len(rows)) if rng.random() < 0.5}
        d = Dfa("abc"[:k], len(rows), 0, accepting, rows)
        m = minimize(d)
        assert m.n == residual_count_dfa(d)
        assert _same_language(d, m)


# --- degenerate alphabets ------------------------------------------------------------------------------

def test_empty_alphabet():
    top = top_congruence("")
    assert top.index == 1
    d = regex_to_min_dfa("#e", "")
    assert d.n == 1 and d.accepts("")
    d0 = regex_to_min_dfa("#0", "")
    assert d0.n == 1 and not d0.accepts("")
    assert words_upto((), 5) == [""]


def test_transition_monoid_of_top_is_trivial():
    tm = transition_monoid(("a", "b"), top_congruence("ab").delta)
    assert tm.order == 1 and tm.witnesses == ("",)


def _monoid_by_tuples(alphabet, delta_rows):
    """The closure with one tuple(map(a.__getitem__, f)) per element and
    letter and its own breadth-first search: the reference for
    transition_monoid.  Returns (elements, rows, witnesses)."""
    letters = list(zip(*delta_rows))
    elements = [tuple(range(len(delta_rows)))]
    index, rows, witnesses = {elements[0]: 0}, [], [""]
    for i, f in enumerate(elements):
        row = []
        for ch, a in zip(alphabet, letters):
            g = tuple(map(a.__getitem__, f))
            if g not in index:
                index[g] = len(elements)
                elements.append(g)
                witnesses.append(witnesses[i] + ch)
            row.append(index[g])
        rows.append(tuple(row))
    return tuple(elements), rows, tuple(witnesses)


def _dihedral(n):
    """The n-cycle and the reflection i -> n-1-i: a group of order 2n for n >= 3."""
    return [[(i + 1) % n, n - 1 - i] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                       min_size=n, max_size=n))))
# one state, and both sides of the 256 states that byte strings can hold
@example(_dihedral(1))
@example(_dihedral(2))
@example(_dihedral(255))
@example(_dihedral(256))
@example(_dihedral(257))
def test_transition_monoid_matches_the_tuple_closure(delta):
    alphabet = "abc"[:len(delta[0])]
    tm = transition_monoid(alphabet, delta)
    assert (tm.elements, tm._rows, tm.witnesses) == _monoid_by_tuples(alphabet, delta)
    rng = random.Random(len(delta))
    for _ in range(200):
        i, j = rng.randrange(tm.order), rng.randrange(tm.order)
        assert tm.elements[tm.mult(i, j)] == tuple(tm.elements[j][x] for x in tm.elements[i])


@pytest.mark.parametrize("n", [5, 257])  # both encodings of the transition monoid
def test_exploration_rows_are_untracked_by_the_collector(n):
    # rows are tuples of ints, which a collection stops tracking; list rows
    # would stay tracked and lengthen every later full collection
    delta = _dihedral(n)
    rc = RightCongruence("ab", delta)
    tm = transition_monoid("ab", delta)
    meet, agrees = orbit_meet_check(rc, tm.cayley_congruence())
    assert agrees and meet.index == tm.order == 2 * n
    explored = {
        "monoid rows": tm._rows,
        "meet": congruence_meet(rc, state_congruence(rc, 1)).delta,
        "orbit meet": meet.delta,
        "minimal DFA": regex_to_min_dfa("(a|b)*a(a|b)(a|b)", "ab").delta,
    }
    gc.collect()
    for name, rows in explored.items():
        assert not any(map(gc.is_tracked, rows)), name


def test_exploration_cap_is_the_largest_allowed_size():
    # D_5 has 10 elements and (a|b)*a(a|b) 4 subsets
    delta = _dihedral(5)
    assert transition_monoid("ab", delta, cap=10).order == 10
    assert regex_to_min_dfa("(a|b)*a(a|b)", "ab", cap=4).n == 4
    for run, size, what in [
            (lambda: transition_monoid("ab", delta, cap=9), 10, "transition monoid"),
            (lambda: regex_to_min_dfa("(a|b)*a(a|b)", "ab", cap=3), 4, "subset construction")]:
        with pytest.raises(BudgetExceeded) as err:
            run()
        assert (err.value.size, err.value.cap, err.value.what) == (size, size - 1, what)


def test_monoid_cap_counts_cells_above_256_states():
    # an element of a 512-state monoid holds 512 cells, so a cap of 1500
    # admits 750 elements and one of 2046 admits 1023, this monoid's order
    d = regex_to_min_dfa("(a|b)*a" + "(a|b)" * 8, "ab")
    assert d.n == 512
    assert transition_monoid(d.alphabet, d.delta, cap=2046).order == 1023
    with pytest.raises(BudgetExceeded, match="transition monoid"):
        transition_monoid(d.alphabet, d.delta, cap=1500)
