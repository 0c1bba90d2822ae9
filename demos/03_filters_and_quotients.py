#!/usr/bin/env python3
"""Internal filters, the induced full subcategory, and its comonad.

An internal filter is an action-closed, upward-closed, meet-closed selection
of congruences containing top.  It carves out the full subcategory of
presheaves whose elements all classify into the filter; the comonad G keeps
exactly those elements.  The certificate checks that the corestricted
classifying maps really behave as the classifier of that quotient, and the
famous graph counterexample shows why upward closure cannot be dropped.
"""

from toposlsc import fixtures
from toposlsc.fincat import Presheaf
from toposlsc.filters import (
    InternalFilter,
    certify_quotient_classifier,
    comonad_apply,
    filter_generated_by,
    top_filter,
    validate_filter,
)
from toposlsc.errors import NotUpwardClosed
from toposlsc.lsc import build_lsc
from toposlsc.normalize import subgroup_to_congruence

graph = fixtures.graph_site()
L = build_lsc(graph)

# The top filter keeps only the total congruence: its subcategory is the
# graphs in which every edge is a loop.
F = top_filter(L)
single_edge = Presheaf(graph, {"V": ("p", "q"), "E": ("e",)},
                       {"id_V": {"p": "p", "q": "q"}, "id_E": {"e": "e"},
                        "s": {"e": "p"}, "t": {"e": "q"}})
GX, counit = comonad_apply(F, single_edge)
print("single edge in the all-loops subcategory?", GX.carrier == single_edge.carrier)
print("comonad keeps", GX.carrier["V"], "and drops the edge:", GX.carrier["E"])

# The counterexample: select only the non-loop congruence.  It is a perfectly
# good subpresheaf, but not upward closed, and it fails self-membership:
# inside the classifier, the non-loop congruence is itself a loop.
discrete_e = next(q for q in L.elements("E") if q.is_discrete())
bad = InternalFilter(L, {"V": set(L.elements("V")), "E": {discrete_e}})
try:
    validate_filter(L, bad)
except NotUpwardClosed as exc:
    print("\nvalidation rejects the non-loop selection:", exc)

cert = certify_quotient_classifier(bad)
for check in cert.checks:
    status = "pass" if check.passed else f"FAIL (witness {check.witness})"
    print(f"  clause {check.name}: {status}")

# A genuine filter on the D4 site: everything above the center.
G = fixtures.dihedral_4()
LG = build_lsc(G.site())
q_center = subgroup_to_congruence(G, fixtures.d4_named_subgroups(G)["<s2>"])
F_center = filter_generated_by(LG, {"*": [q_center]})
print("\nD4 filter generated by the center has",
      len(F_center.selection["*"]), "congruences")
cert = certify_quotient_classifier(F_center)
print("certificate:", "all four clauses pass" if cert.ok else cert.failures())
