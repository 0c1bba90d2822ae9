"""The normalization operator, its order properties, and the group oracle.

The operator itself is nothing group-specific: it is the cocone component of
the classifier at the classifier, computed once by the generic `xi_component`
when the classifier is built.  For a one-object site coming from a group G,
elements of Xi are the right-coset partitions of subgroups, the action is
conjugation, and the operator sends the partition of H to the partition of
its normalizer.  So the subgroup lattice is read off Xi(*) through that
coset bijection, not enumerated a second time.  `normalizer_direct` is the
brute-force group-theoretic computation kept as an independent oracle.
"""

from .certificates import Certificate
from .errors import (
    NotACongruenceOfSubgroupForm,
    NotAGroup,
    NotASubgroup,
)
from .fincat import FiniteCategory, RepCongruence, enumerate_quotient_objects


def monoid_site(elements, mult):
    """Deloop a finite monoid: one object, the elements as endomorphisms.

    ``mult(a, b)`` is the monoid product; composition is a*b = mult(a, b), so
    right compatibility of congruences is closure under right multiplication.
    The two-sided identity is searched for here (NotAGroup if there is none);
    the site's own validation then checks the unit and associativity laws.
    """
    elements = list(elements)
    identity = next((e for e in elements
                     if all(mult(e, a) == a == mult(a, e) for a in elements)), None)
    if identity is None:
        raise NotAGroup("monoid table has no identity element")
    morphisms = [(a, "*", "*") for a in elements]
    composition = {(g, f): mult(g, f) for g in elements for f in elements}
    return FiniteCategory(["*"], morphisms, {"*": identity}, composition)


class FiniteGroup:
    """A finite group given by its multiplication table.

    Element names double as morphism names of the one-object site, so keep
    them short and distinct; like the site, the group reads them through
    ``str``.  The monoid laws are the site's category laws: once every pair
    has a product, the site is built, and checked, once here, and the group
    itself checks only that every element has a unique two-sided inverse.
    """

    def __init__(self, elements, mult_table, label=None, display=None):
        self.elements = tuple(map(str, elements))
        self.label = label or "G"
        self.display = {str(a): name for a, name in dict(display or {}).items()}  # reports
        self._mult = {(str(a), str(b)): str(ab) for (a, b), ab in dict(mult_table).items()}
        missing = [(a, b) for a in self.elements for b in self.elements
                   if (a, b) not in self._mult]
        if missing:
            raise NotAGroup(f"{self.label}: no product given for {missing[0]!r}")
        self._site = monoid_site(self.elements, self.mult)
        self.identity = self._site.identity("*")
        self.inverse = {}
        for a in self.elements:
            inv = [b for b in self.elements if self._mult[(a, b)] == self.identity]
            if len(inv) != 1 or self._mult[(inv[0], a)] != self.identity:
                raise NotAGroup(f"{self.label}: {a!r} has no two-sided inverse")
            self.inverse[a] = inv[0]

    @classmethod
    def from_table(cls, elements, rows, label=None, display=None):
        """Row-major index table: rows[i][j] is the index of e_i * e_j."""
        elements = list(elements)
        n = len(elements)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise NotAGroup("table is not square")
        mult = {}
        for i, row in enumerate(rows):
            for j, k in enumerate(row):
                if type(k) is not int or not 0 <= k < n:
                    raise NotAGroup(f"table entry {k!r} is not a valid index")
                mult[(elements[i], elements[j])] = elements[k]
        return cls(elements, mult, label=label, display=display)

    def mult(self, a, b):
        return self._mult[(a, b)]

    def inv(self, a):
        return self.inverse[a]

    def conjugate(self, x, g):
        """g^-1 x g."""
        return self.mult(self.mult(self.inv(g), x), g)

    @property
    def order(self):
        return len(self.elements)

    def site(self):
        return self._site

    def index_table(self):
        pos = {a: i for i, a in enumerate(self.elements)}
        return [[pos[self._mult[(a, b)]] for b in self.elements] for a in self.elements]

    def __repr__(self):
        return f"FiniteGroup({self.label}, order {self.order})"


class Subgroup:
    def __init__(self, group, members):
        self.group = group
        self.members = frozenset(members)
        if group.identity not in self.members:
            raise NotASubgroup("missing identity")
        for a in self.members:
            if group.inv(a) not in self.members:
                raise NotASubgroup(f"not closed under inverse: {a!r}")
            for b in self.members:
                if group.mult(a, b) not in self.members:
                    raise NotASubgroup(f"not closed under product: {a!r}*{b!r}")
        self.sorted_members = tuple(sorted(self.members,
                                           key=group.elements.index))

    @property
    def order(self):
        return len(self.members)

    def conjugate(self, g):
        return Subgroup(self.group, {self.group.conjugate(h, g) for h in self.members})

    def is_normal(self):
        return all(self.conjugate(g).members == self.members for g in self.group.elements)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.group is self.group
                and other.members == self.members)

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "{" + ",".join(self.sorted_members) + "}"


def generated_subgroup(G, gens):
    members = {G.identity}
    frontier = list(gens)
    while frontier:
        a = frontier.pop()
        if a in members:
            continue
        members.add(a)
        for b in list(members):
            for c in (G.mult(a, b), G.mult(b, a)):
                if c not in members:
                    frontier.append(c)
    return Subgroup(G, members)


def _lattice_order(subs):
    """Subgroups sorted by order, then by members in element order."""
    return tuple(sorted(subs, key=lambda H: (H.order, H.sorted_members)))


def subgroups(G):
    """All subgroups, read off Xi(*) of G's site through the coset bijection.

    Enumerating Xi(*) is capped by DEFAULT_BUDGET, so a huge group raises
    BudgetExceeded.
    """
    return _lattice_order(congruence_to_subgroup(G, q)
                          for q in enumerate_quotient_objects(G.site(), "*"))


def subgroup_to_congruence(G, H):
    """Right-coset partition of H: u ~ v iff H u = H v."""
    site = G.site()
    return RepCongruence.from_labels(
        site, "*", lambda u: frozenset(G.mult(h, u) for h in H.members))


def congruence_to_subgroup(G, q):
    """The block of the identity, which must be a subgroup."""
    members = q.block_members(G.identity)
    try:
        return Subgroup(G, members)
    except NotASubgroup as exc:
        raise NotACongruenceOfSubgroupForm(
            f"identity block {members!r} is not a subgroup: {exc}") from exc


def normalizer_direct(G, H):
    """Brute force N_G(H) = { g | g^-1 H g = H }: the independent oracle."""
    if not isinstance(H, Subgroup) or H.group is not G:
        raise NotASubgroup("normalizer_direct needs a subgroup of G")
    members = {g for g in G.elements
               if {G.conjugate(h, g) for h in H.members} == H.members}
    return Subgroup(G, members)


# ---------------------------------------------------------------------------
# the operator itself
# ---------------------------------------------------------------------------

def normalization_operator(L):
    """The self-referential cocone component xi_Xi: Xi -> Xi.

    The classifier computed it once, by the generic recipe `xi_component`
    applied to Xi itself: at each object it sends q to the congruence
    relating u, v whenever q.u = q.v.  No group-specific shortcut is taken.
    """
    return L.normalization


def check_normalization_inflationary(L):
    """Certify q <= xi_Xi(q) for every congruence of every object."""
    cert = Certificate("normalization-inflationary")
    op = normalization_operator(L)
    cert.check("id-below-normalization",
               ((c, q, op.components[c][q])
                for c in L.site.objects for q in L.elements(c)
                if not q.leq(op.components[c][q])))
    return cert


def normalization_is_top(L):
    """True iff xi_Xi is constantly top (for groups: every subgroup normal)."""
    op = normalization_operator(L)
    return all(op.components[c][q].is_total()
               for c in L.site.objects for q in L.elements(c))


def is_dedekind(G):
    """Group-theoretic check that every subgroup is normal."""
    return all(H.is_normal() for H in subgroups(G))


def normalization_table(G, L):
    """Subgroup -> normalizer subgroup via the categorical route, both read
    off the classifier L of G's site, in the order of `subgroups`."""
    op = normalization_operator(L).components["*"]
    sub = {q: congruence_to_subgroup(G, q) for q in L.elements("*")}
    normalizer = {sub[q]: sub[op[q]] for q in L.elements("*")}
    return {H: normalizer[H] for H in _lattice_order(normalizer)}


def _normalizer_counterexamples(G, table):
    """(H, N, N_G(H)) for each H whose normalizer N in ``table`` is not the oracle's."""
    return ((H, N, direct) for H, N in table.items()
            for direct in [normalizer_direct(G, H)] if N != direct)
