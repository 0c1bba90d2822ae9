"""Bundled sites, groups and regexes used by the verification suites.

All fixtures are built programmatically; the demo data files under demos/data
are dumps of these same objects.
"""

import itertools

from .fincat import FiniteCategory
from .normalize import FiniteGroup, generated_subgroup, monoid_site


# ---------------------------------------------------------------------------
# small sites
# ---------------------------------------------------------------------------

def graph_site():
    """Two parallel arrows V => E; presheaves on it are directed graphs."""
    morphisms = [("id_V", "V", "V"), ("id_E", "E", "E"),
                 ("s", "V", "E"), ("t", "V", "E")]
    composition = {
        ("id_V", "id_V"): "id_V",
        ("id_E", "id_E"): "id_E",
        ("s", "id_V"): "s", ("id_E", "s"): "s",
        ("t", "id_V"): "t", ("id_E", "t"): "t",
    }
    return FiniteCategory(["V", "E"], morphisms, {"V": "id_V", "E": "id_E"},
                          composition)


def idempotent_monoid_site():
    """The two-element monoid {1, x} with x*x = x."""
    def mult(a, b):
        return "x" if "x" in (a, b) else "1"
    return monoid_site(["1", "x"], mult)


def poset_site(objects, relation):
    """The category of a finite poset: one arrow a -> b per related pair.

    ``relation`` lists the pairs a <= b with a != b; reflexive arrows are the
    identities and transitivity must already hold in the list.
    """
    morphisms = [(f"id_{c}", c, c) for c in objects]
    morphisms += [(f"le_{a}_{b}", a, b) for a, b in relation]
    arrows = {(a, b): f"le_{a}_{b}" for a, b in relation}
    for c in objects:
        arrows[(c, c)] = f"id_{c}"
    composition = {}
    for (a, b), f in arrows.items():
        for (b2, c), g in arrows.items():
            if b2 == b:
                composition[(g, f)] = arrows[(a, c)]
    identities = {c: f"id_{c}" for c in objects}
    return FiniteCategory(objects, morphisms, identities, composition)


def chain_site(n):
    objects = [f"c{i}" for i in range(n)]
    relation = [(f"c{i}", f"c{j}") for i in range(n) for j in range(i + 1, n)]
    return poset_site(objects, relation)


def vee_site():
    """a <= b and a <= c, with b and c incomparable."""
    return poset_site(["a", "b", "c"], [("a", "b"), ("a", "c")])


BUNDLED_POSETS = {
    "chain2": chain_site(2),
    "chain3": chain_site(3),
    "vee": vee_site(),
}


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def cyclic_group(n):
    elements = [str(i) for i in range(n)]
    mult = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return FiniteGroup(elements, mult, label=f"Z{n}")


def dihedral_4():
    """D4 = <s, t | s^4 = t^2 = e, t s = s^3 t>, elements s^i t^j."""
    def name(i, j):
        base = {0: "e", 1: "s", 2: "s2", 3: "s3"}[i]
        if j == 0:
            return base
        return "t" if i == 0 else base + "t"

    def mul(p, q):
        (i, j), (k, l) = p, q
        if j == 0:
            return ((i + k) % 4, l)
        return ((i - k) % 4, (j + l) % 2)

    pairs = [(i, j) for j in (0, 1) for i in range(4)]
    mult = {(name(*p), name(*q)): name(*mul(p, q)) for p in pairs for q in pairs}
    display = {"s": "σ", "s2": "σ²", "s3": "σ³", "t": "τ",
               "st": "στ", "s2t": "σ²τ", "s3t": "σ³τ"}
    return FiniteGroup([name(*p) for p in pairs], mult, label="D4",
                       display=display)


def quaternion_8():
    """Q8 = {+-1, +-i, +-j, +-k}."""
    units = ["1", "i", "j", "k"]
    basemul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def name(sign, u):
        return u if sign == 1 else "-" + u

    elements = [name(s, u) for u in units for s in (1, -1)]

    def mul(a, b):
        sa, ua = (-1, a[1:]) if a.startswith("-") else (1, a)
        sb, ub = (-1, b[1:]) if b.startswith("-") else (1, b)
        s, u = basemul[(ua, ub)]
        return name(sa * sb * s, u)

    mult = {(a, b): mul(a, b) for a in elements for b in elements}
    return FiniteGroup(elements, mult, label="Q8")


def _perm_name(p):
    """Cycle-notation name for a permutation tuple, e.g. (021) -> '(01)(2)'."""
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        if len(cyc) > 1:
            cycles.append("(" + "".join(str(k) for k in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group(n):
    perms = sorted(itertools.permutations(range(n)))
    names = {p: _perm_name(p) for p in perms}

    def mul(p, q):
        # p after q, acting on points on the left
        return tuple(p[q[i]] for i in range(n))

    mult = {(names[p], names[q]): names[mul(p, q)] for p in perms for q in perms}
    return FiniteGroup([names[p] for p in perms], mult, label=f"S{n}")


def symmetric_3():
    return symmetric_group(3)


def symmetric_4():
    return symmetric_group(4)


def bundled_groups():
    """The group fixtures: dihedral, quaternion, symmetric, cyclic <= 6."""
    out = {"D4": dihedral_4(), "Q8": quaternion_8(),
           "S3": symmetric_3(), "S4": symmetric_4()}
    for n in range(1, 7):
        out[f"Z{n}"] = cyclic_group(n)
    return out


def d4_named_subgroups(G=None):
    """The ten subgroups of D4 keyed by generator notation, <s> etc."""
    G = G or dihedral_4()

    def gen(*xs):
        return generated_subgroup(G, xs)

    return {
        "<>": gen(),
        "<s2>": gen("s2"),
        "<t>": gen("t"),
        "<s2t>": gen("s2t"),
        "<st>": gen("st"),
        "<s3t>": gen("s3t"),
        "<s>": gen("s"),
        "<t,s2>": gen("t", "s2"),
        "<st,s2>": gen("st", "s2"),
        "D4": gen("s", "t"),
    }


# ---------------------------------------------------------------------------
# monoid tables (for exhaustive small-site sweeps)
# ---------------------------------------------------------------------------

def all_monoids(order):
    """All associative unital tables on {m0, ..., m_{order-1}} with identity m0.

    Returned as (elements, mult-dict) pairs; isomorphic duplicates are kept,
    which is harmless for exhaustive law checks.
    """
    elements = [f"m{i}" for i in range(order)]
    free = [(a, b) for a in elements[1:] for b in elements[1:]]
    out = []
    for values in itertools.product(elements, repeat=len(free)):
        mult = {}
        for a in elements:
            mult[(elements[0], a)] = a
            mult[(a, elements[0])] = a
        mult.update({pair: v for pair, v in zip(free, values)})
        if all(mult[(mult[(a, b)], c)] == mult[(a, mult[(b, c)])]
               for a in elements for b in elements for c in elements):
            out.append((elements, mult))
    return out


# ---------------------------------------------------------------------------
# regexes
# ---------------------------------------------------------------------------

BUNDLED_REGEXES = (
    ("(ab)*", "ab"),
    ("(a|b)*a", "ab"),
    ("a*", "ab"),
    ("#e", "ab"),
    ("#0", "ab"),
    ("a(a|b)*", "ab"),
    ("(a|b)*abb", "ab"),
    ("(aa)*", "ab"),
    ("a*b*", "ab"),
    ("(a|b)(a|b)", "ab"),
    ("b(ab)*", "ab"),
    ("(abc)*", "abc"),
)


def bundled_sites():
    sites = {"graph": graph_site(), "idempotent": idempotent_monoid_site()}
    sites.update(BUNDLED_POSETS)
    return sites
