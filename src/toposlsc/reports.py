"""Structured analysis reports with a stable schema.

Reports are plain dicts rendered either as canonical JSON (machine) or as
text (human).  Given identical inputs and tool version the bytes are
identical: no timestamps, sorted keys, deterministic orderings throughout.
"""

import json

from .certificates import Certificate
from .io import dump_dfa
from .lsc import verify_meet_compatibility
from .normalize import (
    _normalizer_counterexamples,
    check_normalization_inflationary,
    normalization_is_top,
    normalization_operator,
    normalization_table,
)
from .words import (
    _from_explored,
    congruence_leq,
    minimize,
    orbit_meet_check,
    residual_count_dfa,
    transition_monoid,
    words_normalization_operator,
)

SCHEMA_VERSION = 1

MONOID_TABLE_LIMIT = 64


def make_report(kind, payload, certificates=()):
    verdicts = []
    for cert in certificates:
        verdicts.extend(cert.as_verdicts())
    return {"kind": kind, "schema_version": SCHEMA_VERSION,
            "payload": payload, "verdicts": verdicts}


def _congruence_blocks(q):
    return {c: [list(b) for b in bs] for c, bs in q.blocks.items() if bs}


def lsc_report(L):
    """Xi per object, the action table, the normalization table and the
    semilattice tables, all by canonical congruence index."""
    cat = L.site
    op = normalization_operator(L)
    xi = {c: [_congruence_blocks(q) for q in L.elements(c)] for c in cat.objects}
    action = {}
    for name, s, d in cat.morphisms:
        action[name] = [L.index_of(s, L.act(q, name)) for q in L.elements(d)]
    normalization = {c: [L.index_of(c, op.components[c][q]) for q in L.elements(c)]
                     for c in cat.objects}
    meet = {c: [[L.index_of(c, q1.meet(q2)) for q2 in L.elements(c)]
                for q1 in L.elements(c)]
            for c in cat.objects}
    leq = {c: [[q1.leq(q2) for q2 in L.elements(c)] for q1 in L.elements(c)]
           for c in cat.objects}
    payload = {
        "objects": list(cat.objects),
        "xi": xi,
        "top_index": {c: L.index_of(c, L.top_at(c)) for c in cat.objects},
        "action": action,
        "normalization": normalization,
        "meet": meet,
        "leq": leq,
    }
    certs = [check_normalization_inflationary(L), verify_meet_compatibility(L, [])]
    return make_report("lsc", payload, certs)


def group_report(G, L):
    """Subgroup lattice with its covering edges, the normalization arrows of
    the categorical operator, and the Dedekind verdict; L is the classifier
    of G's site."""
    table = normalization_table(G, L)
    subs = list(table)  # the subgroups read off Xi(*), in the order of subgroups(G)
    pretty = lambda e: G.display.get(e, e)
    label = {H: "{" + ",".join(pretty(e) for e in H.sorted_members) + "}"
             for H in subs}
    edges = []
    for H in subs:
        for K in subs:
            if H.members < K.members and not any(
                    H.members < J.members < K.members for J in subs):
                edges.append([label[H], label[K]])
    arrows = [[label[H], label[table[H]]] for H in subs]
    cert = Certificate("group")
    cert.check("normalizer-oracle-agreement", _normalizer_counterexamples(G, table))
    cert.merge(check_normalization_inflationary(L))
    payload = {
        "group": G.label,
        "order": G.order,
        "subgroups": [label[H] for H in subs],
        "lattice_edges": sorted(edges),
        "normalization_arrows": arrows,
        "dedekind": normalization_is_top(L),
    }
    return make_report("group", payload, [cert])


def words_analysis(d, cap=None):
    """Minimize d once and derive, from the minimal DFA m, the Nerode
    congruence rc, the syntactic monoid tm (at most ``cap`` elements) with its
    two-sided congruence syn, the normalization image of rc, and a
    certificate of the five standard verdicts: (m, rc, tm, syn, normalized, cert)."""
    m = minimize(d)
    # m is minimal: its states are the Nerode classes and its transition
    # monoid is the syntactic monoid, so neither is minimized again
    rc = _from_explored(m.alphabet, m.delta)
    tm = transition_monoid(m, cap)
    syn = tm.cayley_congruence()
    _, agrees = orbit_meet_check(rc, syn)
    normalized = words_normalization_operator(rc)
    # the Nerode index of d itself, by Moore's refinement, not read off m
    n = residual_count_dfa(d)
    cert = Certificate("words")
    cert.record("nerode-index-equals-minimal-states", n == m.n)
    cert.record("residual-oracle-agreement", n == rc.index)
    cert.record("orbit-meet-equals-syntactic", agrees)
    cert.record("syntactic-refines-nerode", congruence_leq(syn, rc))
    cert.record("normalization-inflationary", congruence_leq(rc, normalized))
    return m, rc, tm, syn, normalized, cert


def words_report(d, source=None, cap=None):
    """Minimal DFA, Nerode index, syntactic monoid data, orbit size,
    normalization image, and the standard verdicts, under `words_analysis`'s cap."""
    m, rc, tm, _, normalized, cert = words_analysis(d, cap)
    payload = {
        "source": source,
        "alphabet": list(m.alphabet),
        "minimal_dfa": dump_dfa(m),
        "nerode_index": rc.index,
        "class_witnesses": list(rc.witnesses()),
        "syntactic_monoid": {
            "order": tm.order,
            "witnesses": list(tm.witnesses),
            "table": tm.table() if tm.order <= MONOID_TABLE_LIMIT else None,
        },
        # the image's classes are the orbit's members: one per future up to
        # pointed isomorphism
        "orbit_size": normalized.index,
        "normalization_image_index": normalized.index,
    }
    return make_report("words", payload, [cert])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_machine(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _human_lines(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                yield f"{pad}{k}:"
                yield from _human_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {_flat(v)}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                yield f"{pad}-"
                yield from _human_lines(v, indent + 1)
            else:
                yield f"{pad}- {_flat(v)}"
    else:
        yield f"{pad}{_flat(value)}"


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    if v is None:
        return "-"
    return str(v)


def render_human(report):
    lines = [f"{report['kind']} report (schema {report['schema_version']})"]
    lines.extend(_human_lines(report["payload"]))
    if report["verdicts"]:
        lines.append("checks:")
        for v in report["verdicts"]:
            mark = "PASS" if v["pass"] else "FAIL"
            extra = "" if v["witness"] is None else f"  [{v['witness']}]"
            lines.append(f"  {mark} {v['check']}{extra}")
    return "\n".join(lines) + "\n"


def render(report, fmt="human"):
    return render_machine(report) if fmt == "machine" else render_human(report)
