"""A run under the benchmark's tracer reports what an untraced run does.

The tracer wraps every public function and method of the layer modules,
classmethods included, so a layer that only works unwrapped fails the
traced benchmark run while every untraced test stays green.  The verify
suites and the report entry points of the sites and automata workloads are
run both ways; entry points are called through their module attributes, as
the benchmark's jobs call them, so the tracer's wrappers are the ones run.
"""

import pytest

from perfbench.tracing import Tracer
from toposlsc import filters, fixtures, io, lsc, normalize, reports, verify, words


def _suite(name):
    cert = verify.run_suite(name)
    return reports.make_report(f"verify-{name}", {"checks": len(cert.checks)}, [cert])


def _lsc_graph():
    site = io.load_category(io.dump_category(fixtures.graph_site()))
    return reports.lsc_report(lsc.build_lsc(site))


def _group_d4():
    G = io.load_group(io.dump_group(fixtures.dihedral_4()))
    return reports.group_report(G, lsc.build_lsc(G.site()))


def _words_abstar():
    d = words.regex_to_min_dfa("(ab)*", "ab")
    return reports.words_report(d, source={"regex": "(ab)*", "alphabet": "ab"})


def _filter_d4_s2():
    G = fixtures.dihedral_4()
    L = lsc.build_lsc(G.site())
    q = normalize.subgroup_to_congruence(G, fixtures.d4_named_subgroups(G)["<s2>"])
    F = filters.filter_generated_by(L, {"*": [q]})
    cert = filters.certify_quotient_classifier(F)
    return reports.make_report("filter", {"selection_size": F.size()}, [cert])


def _filter_s4_full():
    # the sites workload's filter job: a core-free subgroup generates all of Xi(S4)
    from perfbench.inputs import filter_candidates

    G = io.load_group(io.dump_group(fixtures.symmetric_4()))
    L = lsc.build_lsc(G.site())
    selection = io.load_filter_selection(L, {"*": filter_candidates(G)[:1]})
    F = filters.filter_generated_by(L, selection)
    assert F == filters.full_filter(L)
    cert = filters.certify_quotient_classifier(F)
    return reports.make_report("filter", {"selection_size": F.size()}, [cert])


ENTRY_POINTS = {"lsc graph": _lsc_graph, "group D4": _group_d4,
                "words (ab)*": _words_abstar, "filter D4 <s2>": _filter_d4_s2,
                "filter S4 full": _filter_s4_full}


def _traced_equals_untraced(run):
    untraced = reports.render_machine(run())
    tracer = Tracer()
    try:
        tracer.install()
        tracer.enable()
        traced = reports.render_machine(run())
    finally:
        tracer.disable()
        tracer.uninstall()
    assert len(tracer.name) > 0  # the spans were recorded
    assert traced == untraced


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_traced_suite_reports_equal_untraced(name):
    _traced_equals_untraced(lambda: _suite(name))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_traced_entry_point_reports_equal_untraced(name):
    _traced_equals_untraced(ENTRY_POINTS[name])
