"""The local state classifier of a finite presheaf topos.

For a finite site C, the classifier Xi is the presheaf whose elements at c are
the quotient objects of the representable y(c), encoded as right-compatible
congruences.  A morphism f: a -> b acts by precomposition.  Xi carries the
canonical cocone { xi_X: X -> Xi } sending an element to the kernel congruence
of its classifying morphism, and a meet-semilattice structure given by
intersection of congruences with the total congruence on top.

`LocalStateClassifier` is that presheaf, not a wrapper around one: a `Presheaf`
that sets its own tables unchecked, as `Presheaf.derived` does, and carries
its own component xi_Xi, the normalization operator, computed once when built.

Every value of the action and of a cocone component is looked up in Xi(c) and
is the carrier's own instance; a congruence missing from Xi(c) raises.  The
functoriality of the action and the naturality of each component hold by
construction (they are identities of `precompose` and of kernel partitions),
so they are not re-checked here: the tests check them once per site.
"""

from .certificates import Certificate
from .errors import SiteMismatch
from .fincat import (
    DEFAULT_BUDGET,
    Presheaf,
    PresheafMorphism,
    RepCongruence,
    enumerate_quotient_objects,
    product,
)


class LocalStateClassifier(Presheaf):
    """Xi itself, with its order structure, its distinguished top and its
    own cocone component xi_Xi, built from the carrier Xi(c) of each object."""

    def __init__(self, site, carrier):
        self.site, self.carrier = site, carrier
        self._index = {c: {q: i for i, q in enumerate(qs)} for c, qs in carrier.items()}
        self.action = {f: {q: self._intern(a, q.precompose(f)) for q in carrier[d]}
                       for f, a, d in site.morphisms}
        self.top = {c: self._intern(c, RepCongruence.total(site, c)) for c in site.objects}
        self.normalization = xi_component(self, self)

    def _intern(self, c, q):
        """The carrier's instance of q; q missing from Xi(c) is a defect."""
        i = self._index[c].get(q)
        if i is None:
            raise RuntimeError(f"{q!r} is not in Xi({c!r})")
        return self.carrier[c][i]

    def index_of(self, c, q):
        return self._index[c][q]

    def contains(self, c, q):
        return q in self._index[c]

    def top_at(self, c):
        return self.top[c]


def build_lsc(cat, cap=DEFAULT_BUDGET):
    """Enumerate Xi(c) for every object and assemble the classifier presheaf.

    Element order at each object is the canonical congruence order, so
    rebuilding is deterministic; each action value is the carrier's instance.
    """
    return LocalStateClassifier(
        cat, {c: enumerate_quotient_objects(cat, c, cap) for c in cat.objects})


def xi_component(L, X):
    """The cocone component xi_X: X -> Xi.

    At c it sends x to the congruence relating u, v: a -> c whenever
    x.u = x.v; that is the kernel congruence of the classifying morphism
    y(c) -> X of x, returned as the instance of Xi(c).
    """
    if not L.site.same_site(X.site):
        raise SiteMismatch("presheaf does not live on the classifier's site")
    cat = L.site
    columns = {}
    for c in cat.objects:
        # the action columns into c, transposed: one row of values x.u per x
        into = cat.morphisms_into(c)
        rows = zip(*(map(X.action[u].__getitem__, X.carrier[c]) for u in into))
        srcs = [cat.src[u] for u in into]
        columns[c] = {x: L._intern(c, RepCongruence._from_keys(cat, c, zip(srcs, row)))
                      for x, row in zip(X.carrier[c], rows)}
    return PresheafMorphism.derived(X, L, columns)


def verify_meet_compatibility(L, presheaves):
    """Check that classifying a tuple is the meet of classifying its parts.

    For the product P = X1 x ... x Xn this tests, pointwise and exhaustively,
    xi_P(x1, ..., xn) = xi_X1(x1) /\\ ... /\\ xi_Xn(xn); the empty case n = 0
    checks that the terminal presheaf classifies to the top congruence.
    """
    cert = Certificate("meet-compatibility")
    cat = L.site
    factors = list(presheaves)
    P = product(cat, factors)
    xi_p = xi_component(L, P)
    parts = [xi_component(L, X) for X in factors]

    def meet_of_parts(c, xs):
        q = L.top_at(c)
        for part, x in zip(parts, xs):
            q = q.meet(part.components[c][x])
        return q

    name = "xi-of-product-is-meet" if factors else "xi-of-terminal-is-top"
    cert.check(name, ((c, xs, xi_p.components[c][xs], meet_of_parts(c, xs))
                      for c in cat.objects for xs in P.elements(c)
                      if xi_p.components[c][xs] != meet_of_parts(c, xs)))
    return cert
