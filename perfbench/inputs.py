"""Input files of each workload, made from the workload seed.

Everything a job reads is written here, into a fresh directory, so jobs go
through the ``io.load_*`` parsers as the CLI does.  The drawing rules keep
the cost of a job (nearly) independent of the seed: the seed changes which
input is drawn, not how much work it takes.
"""

import itertools
import json
import random
import shutil
from pathlib import Path

from toposlsc import fixtures, io
from toposlsc.normalize import FiniteGroup, monoid_site, subgroup_to_congruence, subgroups
from toposlsc.words import Dfa, random_min_dfa

DEMO_SITES = ("graph.cat", "chain3.cat", "idempotent.cat")
DEMO_GROUPS = ("d4.group", "q8.group", "s3.group", "z4.group")
# many small reports, so that the median job of a sites pass is one of a crowd
SMALL_CYCLIC = (2, 3, 5, 6)

# (a|b)*a(a|b){k}: the k-th letter from the end is an a; 2^(k+1) minimal states
ENDS_K = (6, 7)

# syntactic monoid order bands of the DFA reports: (name, target order, states);
# band_pool.json holds DFAs of that many states within 5% of the target
BANDS = (("band1e3", 1000, 6), ("band1e4", 10000, 8), ("band5e4", 50000, 9))
BAND_POOL = Path(__file__).with_name("band_pool.json")

PIPELINE_STATES = (250, 500, 1000)

# the words suite's extra fixtures: fixed DFAs and regexes that the seed
# relabels (state names, the letters a and b), so their cost does not vary
VERIFY_FILES = 3
VERIFY_REGEXES = ("(a|ba)*b", "(ab|b)*(a|bb)", "a*(ba*ba*)*")


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def ends_regex(k):
    return "(a|b)*a" + "(a|b)" * k


def elementary_abelian_16():
    """(Z2)^4: 67 subgroups, so 67 congruences on its one-object site."""
    names = ["".join(bits) for bits in itertools.product("01", repeat=4)]
    mult = {(a, b): "".join("1" if x != y else "0" for x, y in zip(a, b))
            for a in names for b in names}
    return FiniteGroup(names, mult, label="E16")


def filter_candidates(G):
    """Canonical Xi indices of the core-free subgroups' congruences.

    The filter generated by such a congruence holds the meet of its
    conjugates, which is the discrete congruence, and so all of Xi.  Whichever
    one the seed draws, the certificate checks the same congruences.
    """
    subs = subgroups(G)
    congruences = sorted((subgroup_to_congruence(G, H) for H in subs),
                         key=lambda q: q.sort_key())
    core_free = {subgroup_to_congruence(G, H) for H in subs
                 if set.intersection(*(set(H.conjugate(g).members) for g in G.elements))
                 == {G.identity}}
    return [i for i, q in enumerate(congruences) if q in core_free]


def pool_dfa(states, member):
    return Dfa("ab", states, 0, member["accepting"], member["delta"])


def connected_dfa(rng, n):
    """A random complete DFA over {a, b} whose n states are all reachable:
    state i > 0 is first entered from a random earlier state, the other
    transitions are uniform, and each state accepts with probability 1/2."""
    delta = [[None, None] for _ in range(n)]
    open_slots = [(0, 0), (0, 1)]
    for s in range(1, n):
        p, a = open_slots.pop(rng.randrange(len(open_slots)))
        delta[p][a] = s
        open_slots += [(s, 0), (s, 1)]
    for p, a in open_slots:
        delta[p][a] = rng.randrange(n)
    accepting = {s for s in range(n) if rng.random() < 0.5}
    return Dfa("ab", n, 0, accepting, delta)


def verify_dfas():
    """Three fixed minimal DFAs of 4 states for the words suite's fixtures."""
    rng = random.Random("verify dfas")
    found = []
    while len(found) < VERIFY_FILES:
        d = random_min_dfa(rng, max_states=4)
        if d.n == 4:
            found.append(d)
    return found


def relabelled_dfa(d, rng):
    """``d`` with shuffled state names and, half the time, a and b swapped:
    other bytes, the same work."""
    names = [f"q{i}" for i in range(d.n)]
    rng.shuffle(names)
    letters = "ba" if rng.random() < 0.5 else "ab"
    return {"alphabet": ["a", "b"], "states": sorted(names), "initial": names[d.initial],
            "accepting": sorted(names[s] for s in d.accepting),
            "transitions": [[names[s], letters[a], names[d.delta[s][a]]]
                            for s in range(d.n) for a in range(2)]}


def small_sites():
    """Name -> category: every monoid table of order 3, chains of 2 and 4
    objects, and the vee poset."""
    sites = {f"monoid3-{i:02d}.cat": monoid_site(elements, lambda a, b, m=mult: m[(a, b)])
             for i, (elements, mult) in enumerate(fixtures.all_monoids(3))}
    sites.update({"chain2.cat": fixtures.chain_site(2), "chain4.cat": fixtures.chain_site(4),
                  "vee.cat": fixtures.vee_site()})
    return sites


def make_sites(rng, demos, out):
    for name in DEMO_SITES + DEMO_GROUPS:
        shutil.copyfile(demos / name, out / name)
    for name, cat in small_sites().items():
        write_json(out / name, io.dump_category(cat))
    for n in SMALL_CYCLIC:
        write_json(out / f"Z{n}.group", io.dump_group(fixtures.cyclic_group(n)))
    S4 = fixtures.symmetric_4()
    write_json(out / "S4.group", io.dump_group(S4))
    write_json(out / "Z24.group", io.dump_group(fixtures.cyclic_group(24)))
    write_json(out / "E16.group", io.dump_group(elementary_abelian_16()))
    write_json(out / "S4.filter", {"*": [rng.choice(filter_candidates(S4))]})


def make_automata(rng, demos, out):
    for k in ENDS_K:
        write_json(out / f"ends{k}.regex", {"regex": ends_regex(k), "alphabet": "ab"})
    for i, (expr, alphabet) in enumerate(fixtures.BUNDLED_REGEXES):
        write_json(out / f"bundled{i:02d}.regex", {"regex": expr, "alphabet": alphabet})
    pool = json.loads(BAND_POOL.read_text())
    for name, _, states in BANDS:
        write_json(out / f"{name}.dfa", io.dump_dfa(pool_dfa(states, rng.choice(pool[name]))))
    for n in PIPELINE_STATES:
        write_json(out / f"random{n}.dfa", io.dump_dfa(connected_dfa(rng, n)))


def make_verify(rng, demos, out):
    for path in sorted(demos.iterdir()):
        shutil.copyfile(path, out / path.name)
    for i, d in enumerate(verify_dfas()):
        write_json(out / f"seeded{i}.dfa", relabelled_dfa(d, rng))
    for i, regex in enumerate(VERIFY_REGEXES):
        swap = str.maketrans("ab", "ba") if rng.random() < 0.5 else {}
        write_json(out / f"seeded{i}.regex", {"regex": regex.translate(swap), "alphabet": "ab"})


MAKERS = {"sites": make_sites, "automata": make_automata, "verify": make_verify}


def make_inputs(workload, seed, demos, out):
    """Write the inputs of ``workload`` for ``seed`` into the directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    MAKERS[workload](random.Random(f"{workload}:{seed}"), Path(demos), out)
