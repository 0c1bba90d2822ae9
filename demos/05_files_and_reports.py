#!/usr/bin/env python3
"""File formats and machine-readable reports.

Everything the CLI consumes lives in demos/data; this script loads each kind
of file through the library and prints the reports the CLI would emit.  The
equivalent shell commands are shown alongside.
"""

import json
from pathlib import Path

from toposlsc import io
from toposlsc.filters import InternalFilter, validate_filter
from toposlsc.lsc import build_lsc
from toposlsc.reports import group_report, lsc_report, render, words_report

DATA = Path(__file__).parent / "data"

# topos-lsc lsc demos/data/graph.cat
site = io.load_category(DATA / "graph.cat")
L = build_lsc(site)
report = lsc_report(L)
print("# topos-lsc lsc demos/data/graph.cat --format machine")
print(render(report, "machine")[:400], "...\n")

# filter files index into the serialized classifier order
selection = io.load_filter_selection(L, json.loads((DATA / "graph_top.filter").read_text()))
F = validate_filter(L, InternalFilter(L, selection))
print("loaded filter selects", F.size(), "congruences\n")

# topos-lsc group demos/data/d4.group
G = io.load_group(DATA / "d4.group")
print("# topos-lsc group demos/data/d4.group")
report = group_report(G, build_lsc(G.site()))
print(render(report, "human").split("normalization_arrows")[0])

# topos-lsc words --dfa demos/data/abstar.dfa
d = io.load_dfa(DATA / "abstar.dfa")
print("# topos-lsc words --dfa demos/data/abstar.dfa")
print(render(words_report(d, source={"dfa": "abstar.dfa"}), "human"))
