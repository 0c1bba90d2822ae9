#!/usr/bin/env python3
"""Regenerate the input files under demos/data from the bundled fixtures."""

import json
from pathlib import Path

from toposlsc import fixtures, io
from toposlsc.words import regex_to_min_dfa

DATA = Path(__file__).parent / "data"


def write(name, payload):
    path = DATA / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote", path)


def main():
    DATA.mkdir(exist_ok=True)
    write("graph.cat", io.dump_category(fixtures.graph_site()))
    write("idempotent.cat", io.dump_category(fixtures.idempotent_monoid_site()))
    write("chain3.cat", io.dump_category(fixtures.chain_site(3)))
    write("d4.group", io.dump_group(fixtures.dihedral_4()))
    write("q8.group", io.dump_group(fixtures.quaternion_8()))
    write("s3.group", io.dump_group(fixtures.symmetric_3()))
    write("z4.group", io.dump_group(fixtures.cyclic_group(4)))
    write("abstar.dfa", io.dump_dfa(regex_to_min_dfa("(ab)*", "ab")))
    write("ends_in_a.dfa", io.dump_dfa(regex_to_min_dfa("(a|b)*a", "ab")))
    # indices refer to the canonical congruence order of the graph classifier
    write("graph_top.filter", {"V": [0], "E": [1]})


if __name__ == "__main__":
    main()
