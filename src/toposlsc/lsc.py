"""The local state classifier of a finite presheaf topos.

For a finite site C, the classifier Xi is the presheaf whose elements at c are
the quotient objects of the representable y(c), encoded as right-compatible
congruences.  A morphism f: a -> b acts by precomposition.  Xi carries the
canonical cocone { xi_X: X -> Xi } sending an element to the kernel congruence
of its classifying morphism, and a meet-semilattice structure given by
intersection of congruences with the total congruence on top.
"""

from .certificates import Certificate
from .errors import ObjectMismatch, SiteMismatch
from .fincat import (
    DEFAULT_BUDGET,
    Presheaf,
    PresheafMorphism,
    RepCongruence,
    enumerate_quotient_objects,
    product,
    terminal,
)


class LocalStateClassifier:
    """Xi together with its site, order structure and distinguished top."""

    def __init__(self, site, xi, top):
        self.site = site
        self.xi = xi          # Presheaf whose elements are RepCongruence values
        self.top = top        # object -> total congruence
        self._index = {c: {q: i for i, q in enumerate(xi.elements(c))}
                       for c in site.objects}

    def elements(self, c):
        return self.xi.elements(c)

    def index_of(self, c, q):
        return self._index[c][q]

    def contains(self, c, q):
        return q in self._index[c]

    def top_at(self, c):
        return self.top[c]

    def act(self, q, f):
        return self.xi.act(q, f)

    def _check_pair(self, q1, q2):
        if q1.base_object != q2.base_object:
            raise ObjectMismatch(
                f"congruences live at {q1.base_object!r} and {q2.base_object!r}")
        return q1.base_object

    def meet(self, q1, q2):
        self._check_pair(q1, q2)
        return q1.meet(q2)

    def leq(self, q1, q2):
        self._check_pair(q1, q2)
        return q1.leq(q2)

    def size(self):
        return self.xi.size()

    def __repr__(self):
        sizes = ", ".join(f"{c}:{len(self.elements(c))}" for c in self.site.objects)
        return f"LocalStateClassifier({sizes})"


def build_lsc(cat, cap=DEFAULT_BUDGET):
    """Enumerate Xi(c) for every object and assemble the classifier presheaf.

    The action is verified functorial on construction; element order at each
    object is the canonical congruence order, so rebuilding is deterministic.
    """
    carrier = {c: enumerate_quotient_objects(cat, c, cap) for c in cat.objects}
    action = {}
    for name, s, d in cat.morphisms:
        action[name] = {q: q.precompose(name) for q in carrier[d]}
    xi = Presheaf(cat, carrier, action, check=True)
    top = {c: RepCongruence.total(cat, c) for c in cat.objects}
    return LocalStateClassifier(cat, xi, top)


def xi_component(L, X):
    """The cocone component xi_X: X -> Xi.

    At c it sends x to the congruence relating u, v: a -> c whenever
    x.u = x.v; that is the kernel congruence of the classifying morphism
    y(c) -> X of x.
    """
    if not L.site.same_site(X.site):
        raise SiteMismatch("presheaf does not live on the classifier's site")
    cat = L.site
    comps = {}
    for c in cat.objects:
        comps[c] = {x: RepCongruence.from_labels(cat, c, lambda u: X.act(x, u))
                    for x in X.elements(c)}
    return PresheafMorphism(X, L.xi, comps, check=True)


def verify_meet_compatibility(L, presheaves):
    """Check that classifying a tuple is the meet of classifying its parts.

    For the product P = X1 x ... x Xn this tests, pointwise and exhaustively,
    xi_P(x1, ..., xn) = xi_X1(x1) /\\ ... /\\ xi_Xn(xn); the empty case n = 0
    checks that the terminal presheaf classifies to the top congruence.
    """
    cert = Certificate("meet-compatibility")
    cat = L.site
    factors = list(presheaves)
    P = product(cat, factors) if factors else terminal(cat)
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
