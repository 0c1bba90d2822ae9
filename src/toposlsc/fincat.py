"""Finite categories, presheaves on them, and quotients of representables.

Everything here is small and exhaustively checkable: categories are given by
explicit composition tables, presheaves by explicit carrier sets and action
maps.  All values are immutable after construction and safe to share.

Conventions:
  - ``compose(g, f)`` is g after f; it is defined when ``dst(f) == src(g)``.
  - A presheaf acts on the right: for ``f: a -> b`` and ``x in X(b)``,
    ``X.act(x, f)`` is the element of X(a) usually written ``x . f``.
  - The representable at ``c`` has ``y(c)(a) = Hom(a, c)`` with action by
    precomposition.
"""

import itertools

from .errors import (
    AssociativityViolation,
    BudgetExceeded,
    ElementNotInCarrier,
    FunctorialityViolation,
    IdentityViolation,
    IllTypedComposite,
    NaturalityViolation,
    NonRepresentableSource,
    NotParallel,
    ObjectMismatch,
    SiteMismatch,
    UnknownMorphism,
    UnknownObject,
)

DEFAULT_BUDGET = 5000


class FiniteCategory:
    """A finite category presented by an explicit composition table.

    ``objects`` is an ordered list of object names, ``morphisms`` an ordered
    list of ``(name, src, dst)`` triples, ``identities`` a map object ->
    morphism name, and ``composition`` a map ``(g, f) -> g*f`` defined on
    exactly the composable pairs.  Morphism names are globally unique; their
    position in ``morphisms`` fixes the canonical order used everywhere else.
    """

    def __init__(self, objects, morphisms, identities, composition, *, check=True):
        self.objects = tuple(objects)
        self.morphisms = tuple((str(n), s, d) for n, s, d in morphisms)
        self.identities = dict(identities)
        self.composition = {(g, f): h for (g, f), h in dict(composition).items()}

        self._obj_index = {c: i for i, c in enumerate(self.objects)}
        if len(self._obj_index) != len(self.objects):
            raise UnknownObject("duplicate object names")
        self.src = {}
        self.dst = {}
        self.mor_index = {}
        for i, (name, s, d) in enumerate(self.morphisms):
            if name in self.mor_index:
                raise UnknownMorphism(f"duplicate morphism name {name!r}")
            if s not in self._obj_index or d not in self._obj_index:
                raise UnknownObject(f"morphism {name!r} has endpoint outside the object list")
            self.mor_index[name] = i
            self.src[name] = s
            self.dst[name] = d

        self._hom = {}
        for name, s, d in self.morphisms:
            self._hom.setdefault((s, d), []).append(name)
        self._into = {c: tuple(n for n, _, d in self.morphisms if d == c)
                      for c in self.objects}

        if check:
            self.validate()

    # -- structure access ------------------------------------------------

    def hom(self, a, b):
        """Morphisms a -> b in canonical order."""
        if a not in self._obj_index or b not in self._obj_index:
            raise UnknownObject(f"unknown object in hom({a!r}, {b!r})")
        return tuple(self._hom.get((a, b), ()))

    def compose(self, g, f):
        """g after f."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise IllTypedComposite(g, f, None, "pair is not composable") from None

    def identity(self, c):
        return self.identities[c]

    def morphisms_into(self, c):
        """All morphisms with target c: the total carrier of y(c)."""
        if c not in self._obj_index:
            raise UnknownObject(f"unknown object {c!r}")
        return self._into[c]

    def signature(self):
        return (self.objects, self.morphisms, tuple(sorted(self.identities.items())),
                tuple(sorted(self.composition.items())))

    def same_site(self, other):
        return self is other or (isinstance(other, FiniteCategory)
                                 and self.signature() == other.signature())

    # -- law checking ------------------------------------------------------

    def violations(self):
        """All category-law violations, as error instances (empty if valid)."""
        out = []
        for c in self.objects:
            i = self.identities.get(c)
            if i is None or i not in self.src or self.src[i] != c or self.dst[i] != c:
                out.append(IdentityViolation(i, None, "typing", f"no identity on {c!r}"))
        for (g, f), h in self.composition.items():
            if g not in self.src or f not in self.src or h not in self.src:
                out.append(IllTypedComposite(g, f, h, "unknown morphism in table entry"))
                continue
            if self.dst[f] != self.src[g]:
                out.append(IllTypedComposite(g, f, h, "pair is not composable"))
            elif self.src[h] != self.src[f] or self.dst[h] != self.dst[g]:
                out.append(IllTypedComposite(g, f, h, "result has the wrong endpoints"))
        for g, f in itertools.product(self.src, repeat=2):
            if self.dst[f] == self.src[g] and (g, f) not in self.composition:
                out.append(IllTypedComposite(g, f, None, "missing table entry"))
        if out:
            return out

        for m in self.src:
            left = self.composition[(self.identities[self.dst[m]], m)]
            if left != m:
                out.append(IdentityViolation(self.identities[self.dst[m]], m, "left", left))
            right = self.composition[(m, self.identities[self.src[m]])]
            if right != m:
                out.append(IdentityViolation(self.identities[self.src[m]], m, "right", right))
        for h in self.src:
            for g in self.src:
                if self.dst[g] != self.src[h]:
                    continue
                hg = self.composition[(h, g)]
                for f in self.src:
                    if self.dst[f] != self.src[g]:
                        continue
                    left = self.composition[(hg, f)]
                    right = self.composition[(h, self.composition[(g, f)])]
                    if left != right:
                        out.append(AssociativityViolation(h, g, f, left, right))
        return out

    def validate(self):
        bad = self.violations()
        if bad:
            raise bad[0]
        return self

    def __repr__(self):
        return (f"FiniteCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


def validate_category(raw, *, check=True):
    """Build and law-check a category from parsed file data (or re-check one).

    ``raw`` is either a FiniteCategory or a dict with the category-file fields
    ``objects``, ``morphisms``, ``identities``, ``composition``.
    """
    if isinstance(raw, FiniteCategory):
        return raw.validate()
    morphisms = [(m["name"], m["src"], m["dst"]) for m in raw["morphisms"]]
    composition = {(e["g"], e["f"]): e["result"] for e in raw["composition"]}
    return FiniteCategory(raw["objects"], morphisms, raw["identities"], composition,
                          check=check)


class Presheaf:
    """A finite presheaf: a finite set per object plus a contravariant action.

    ``carrier`` maps each object to an ordered tuple of (hashable) elements;
    ``action`` maps each morphism ``f: a -> b`` to a dict sending X(b) to X(a).
    """

    def __init__(self, site, carrier, action, *, check=True, representing=None):
        self.site = site
        self.carrier = {c: tuple(carrier.get(c, ())) for c in site.objects}
        self.action = {m: dict(action.get(m, {})) for m, _, _ in site.morphisms}
        self.representing = representing  # object name when this is y(c)
        if check:
            self.check_functorial()

    def elements(self, c):
        if c not in self.carrier:
            raise UnknownObject(f"unknown object {c!r}")
        return self.carrier[c]

    def act(self, x, f):
        """x . f for x in X(dst f); lands in X(src f)."""
        try:
            return self.action[f][x]
        except KeyError:
            raise ElementNotInCarrier(f"{x!r} is not acted on by {f!r}") from None

    def size(self):
        return sum(len(v) for v in self.carrier.values())

    def check_functorial(self):
        site = self.site
        for name, s, d in site.morphisms:
            table = self.action[name]
            if set(table) != set(self.carrier[d]):
                raise FunctorialityViolation(
                    f"action of {name!r} is not defined on exactly X({d!r})")
            targets = set(self.carrier[s])
            for x in self.carrier[d]:
                if table[x] not in targets:
                    raise FunctorialityViolation(
                        f"action of {name!r} sends {x!r} outside X({s!r})")
        for c in site.objects:
            i = site.identity(c)
            for x in self.carrier[c]:
                if self.action[i][x] != x:
                    raise FunctorialityViolation(
                        f"identity of {c!r} moves {x!r}")
        for (g, f), h in site.composition.items():
            for x in self.carrier[site.dst[g]]:
                if self.action[f][self.action[g][x]] != self.action[h][x]:
                    raise FunctorialityViolation(
                        f"contravariance fails on ({g!r},{f!r}) at {x!r}")
        return self

    def __eq__(self, other):
        return (isinstance(other, Presheaf) and self.site.same_site(other.site)
                and self.carrier == other.carrier and self.action == other.action)

    def __hash__(self):
        return hash((tuple(sorted((c, v) for c, v in self.carrier.items())),))

    def __repr__(self):
        sizes = ", ".join(f"{c}:{len(self.carrier[c])}" for c in self.site.objects)
        return f"Presheaf({sizes})"


class PresheafMorphism:
    """A natural transformation between presheaves on the same site."""

    def __init__(self, source, target, components, *, check=True):
        self.source = source
        self.target = target
        self.components = {c: dict(components.get(c, {})) for c in source.site.objects}
        if check:
            self.check_natural()

    def is_mono(self):
        return all(len(set(comp.values())) == len(comp)
                   for comp in self.components.values())

    def check_natural(self):
        site = self.source.site
        for c in site.objects:
            comp = self.components[c]
            if set(comp) != set(self.source.elements(c)):
                raise NaturalityViolation(f"component at {c!r} not defined on X({c!r})")
            targets = set(self.target.elements(c))
            for x in self.source.elements(c):
                if comp[x] not in targets:
                    raise NaturalityViolation(f"component at {c!r} escapes Y({c!r})")
        for name, s, d in site.morphisms:
            for x in self.source.elements(d):
                lhs = self.components[s][self.source.act(x, name)]
                rhs = self.target.act(self.components[d][x], name)
                if lhs != rhs:
                    raise NaturalityViolation(
                        f"naturality fails at {name!r} on {x!r}")
        return self

    def __eq__(self, other):
        return (isinstance(other, PresheafMorphism)
                and self.source == other.source and self.target == other.target
                and self.components == other.components)

    def __repr__(self):
        return f"PresheafMorphism({self.source!r} -> {self.target!r})"


class RepCongruence:
    """A right-compatible partition of a representable y(c).

    Stored in canonical form: per object, blocks of morphism names, each block
    sorted by the site's morphism order and blocks sorted by their least
    member.  Structural equality of canonical forms is equality of the
    corresponding quotient objects of y(c).
    """

    __slots__ = ("site", "base_object", "blocks", "_block_of", "_hash")

    def __init__(self, site, base_object, blocks):
        if base_object not in site._obj_index:
            raise UnknownObject(f"unknown object {base_object!r}")
        self.site = site
        self.base_object = base_object
        idx = site.mor_index
        canon = {}
        block_of = {}
        for c in site.objects:
            raw = [tuple(sorted(b, key=idx.__getitem__)) for b in blocks.get(c, ())]
            raw.sort(key=lambda b: idx[b[0]])
            canon[c] = tuple(raw)
        self.blocks = canon
        bid = 0
        for c in site.objects:
            for b in canon[c]:
                for u in b:
                    block_of[u] = bid
                bid += 1
        self._block_of = block_of
        self._hash = hash((base_object, tuple((c, canon[c]) for c in site.objects)))
        covered = set(block_of)
        expected = set(site.morphisms_into(base_object))
        if covered != expected:
            raise UnknownMorphism(
                f"partition does not cover y({base_object!r}) exactly")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_labels(cls, site, c, label):
        """Partition each Hom(a, c) by the value of ``label`` on its members."""
        blocks = {}
        for a in site.objects:
            groups = {}
            for u in site.hom(a, c):
                groups.setdefault(label(u), []).append(u)
            blocks[a] = list(groups.values())
        return cls(site, c, blocks)

    @classmethod
    def from_pairs(cls, site, c, pairs):
        """The least equivalence relation on y(c) relating each pair of
        parallel arrows in ``pairs``."""
        parent = {u: u for u in site.morphisms_into(c)}

        def find(u):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            return u

        for u, v in pairs:
            if u not in parent or v not in parent or site.src[u] != site.src[v]:
                raise UnknownMorphism(f"{u!r}, {v!r} are not parallel arrows into {c!r}")
            parent[find(u)] = find(v)
        return cls.from_labels(site, c, find)

    @classmethod
    def discrete(cls, site, c):
        return cls.from_labels(site, c, lambda u: u)

    @classmethod
    def total(cls, site, c):
        return cls.from_labels(site, c, lambda u: 0)

    # -- relation view ------------------------------------------------------------

    def related(self, u, v):
        return self._block_of[u] == self._block_of[v]

    def block_id(self, u):
        try:
            return self._block_of[u]
        except KeyError:
            raise UnknownMorphism(f"{u!r} is not an element of y({self.base_object!r})") from None

    def block_members(self, u):
        bid = self.block_id(u)
        for c in self.site.objects:
            for b in self.blocks[c]:
                if self._block_of[b[0]] == bid:
                    return b
        raise AssertionError("unreachable")

    def block_count(self):
        return sum(len(self.blocks[c]) for c in self.site.objects)

    def is_total(self):
        return all(len(self.blocks[c]) <= 1 for c in self.site.objects)

    def is_discrete(self):
        return all(all(len(b) == 1 for b in self.blocks[c]) for c in self.site.objects)

    def check_right_compatible(self):
        site = self.site
        for u in site.morphisms_into(self.base_object):
            for v in site.morphisms_into(self.base_object):
                if site.src[u] != site.src[v] or not self.related(u, v):
                    continue
                for g in site.morphisms_into(site.src[u]):
                    if not self.related(site.compose(u, g), site.compose(v, g)):
                        raise FunctorialityViolation(
                            f"congruence not right-compatible: {u}~{v} but not "
                            f"{u}*{g} ~ {v}*{g}")
        return self

    # -- operations -----------------------------------------------------------------

    def precompose(self, f):
        """The congruence on y(src f) relating u, v iff f*u ~ f*v here."""
        site = self.site
        if site.dst[f] != self.base_object:
            raise ObjectMismatch(
                f"{f!r} does not land in {self.base_object!r}")
        return RepCongruence.from_labels(
            site, site.src[f], lambda u: self._block_of[site.compose(f, u)])

    def meet(self, other):
        """Common refinement (intersection of the relations)."""
        if other.base_object != self.base_object:
            raise ObjectMismatch(
                f"meet of congruences at {self.base_object!r} and {other.base_object!r}")
        return RepCongruence.from_labels(
            self.site, self.base_object,
            lambda u: (self._block_of[u], other._block_of[u]))

    def join(self, other):
        """Least common coarsening: the equivalence closure of the union.

        It is right-compatible with no further closure, since a chain
        u ~ w ~ ... ~ v of related arrows stays a chain after composing each
        link with g on the right; so the join of two congruences in Xi(c)
        is the plain partition join, their least upper bound under ``leq``.
        """
        if other.base_object != self.base_object:
            raise ObjectMismatch(
                f"join of congruences at {self.base_object!r} and {other.base_object!r}")
        return RepCongruence.from_pairs(
            self.site, self.base_object,
            [(b[0], u) for q in (self, other)
             for c in self.site.objects for b in q.blocks[c] for u in b[1:]])

    def leq(self, other):
        """Relation inclusion: self is a refinement of other."""
        if other.base_object != self.base_object:
            raise ObjectMismatch(
                f"comparing congruences at {self.base_object!r} and {other.base_object!r}")
        for c in self.site.objects:
            for b in self.blocks[c]:
                tgt = other._block_of[b[0]]
                if any(other._block_of[u] != tgt for u in b[1:]):
                    return False
        return True

    def sort_key(self):
        idx = self.site.mor_index
        return tuple(tuple(tuple(idx[u] for u in b) for b in self.blocks[c])
                     for c in self.site.objects)

    def __eq__(self, other):
        return (isinstance(other, RepCongruence)
                and self.base_object == other.base_object
                and self.blocks == other.blocks)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        merged = [b for c in self.site.objects for b in self.blocks[c] if len(b) > 1]
        if not merged:
            return f"Cong({self.base_object}: discrete)"
        body = " ".join("~".join(b) for b in merged)
        return f"Cong({self.base_object}: {body})"


# ---------------------------------------------------------------------------
# representables and images
# ---------------------------------------------------------------------------

def representable(cat, c):
    """The Yoneda presheaf y(c): Hom(-, c) with action by precomposition."""
    if c not in cat._obj_index:
        raise UnknownObject(f"unknown object {c!r}")
    carrier = {a: cat.hom(a, c) for a in cat.objects}
    action = {}
    for name, s, d in cat.morphisms:
        action[name] = {u: cat.compose(u, name) for u in carrier[d]}
    return Presheaf(cat, carrier, action, check=False, representing=c)


def yoneda_morphism(X, c, x):
    """The morphism y(c) -> X classifying x: u |-> x . u."""
    cat = X.site
    if x not in set(X.elements(c)):
        raise ElementNotInCarrier(f"{x!r} is not in X({c!r})")
    y = representable(cat, c)
    comps = {a: {u: X.act(x, u) for u in y.elements(a)} for a in cat.objects}
    return PresheafMorphism(y, X, comps, check=False)


def image_quotient(m):
    """Kernel congruence of a morphism out of a representable.

    Two elements of y(c) are identified iff m sends them to the same element;
    right-compatibility is automatic by naturality.
    """
    if m.source.representing is None:
        raise NonRepresentableSource("morphism source is not a representable")
    c = m.source.representing
    return RepCongruence.from_labels(m.source.site, c,
                                     lambda u: m.components[m.source.site.src[u]][u])


def quotient_of_representable(q):
    """The quotient presheaf y(c)/q; elements are the blocks of q."""
    cat = q.site
    c = q.base_object
    carrier = {a: q.blocks[a] for a in cat.objects}
    action = {}
    for name, s, d in cat.morphisms:
        action[name] = {b: q.block_members(cat.compose(b[0], name))
                        for b in carrier[d]}
    return Presheaf(cat, carrier, action, check=False)


# ---------------------------------------------------------------------------
# enumeration of quotient objects
# ---------------------------------------------------------------------------

def enumerate_quotient_objects(cat, c, cap=DEFAULT_BUDGET):
    """All right-compatible partitions of y(c), canonical and deterministic.

    Every right congruence is the join of the principal congruences
    theta(u, v) of the pairs it relates, so Xi(c) is the closure of the
    discrete congruence under joins with the principals.  theta(u, v) is the
    equivalence closure of the pairs (u*g, v*g), which are already closed
    under right composition, and a join needs no re-closure either: each
    principal is computed once and the search only joins partitions.
    """
    elems = cat.morphisms_into(c)
    if len(elems) > cap:
        raise BudgetExceeded(len(elems), cap)
    principals = dict.fromkeys(
        RepCongruence.from_pairs(cat, c, [(cat.compose(u, g), cat.compose(v, g))
                                          for g in cat.morphisms_into(a)])
        for a in cat.objects
        for hom in [cat.hom(a, c)]
        for i, u in enumerate(hom) for v in hom[i + 1:])
    discrete = RepCongruence.discrete(cat, c)
    seen = {discrete}
    queue = [discrete]
    while queue:
        q = queue.pop()
        for p in principals:
            if p.leq(q):
                continue
            q2 = q.join(p)
            if q2 not in seen:
                seen.add(q2)
                queue.append(q2)
                if len(seen) > cap:
                    raise BudgetExceeded(len(seen), cap,
                                         what=f"quotient objects of y({c!r})")
    return tuple(sorted(seen, key=RepCongruence.sort_key))


# ---------------------------------------------------------------------------
# finite limits and colimits
# ---------------------------------------------------------------------------

def product(site, factors):
    """Pointwise product; elements are tuples.  Empty product = terminal."""
    factors = list(factors)
    carrier = {c: tuple(itertools.product(*(X.elements(c) for X in factors)))
               for c in site.objects}
    action = {}
    for name, s, d in site.morphisms:
        action[name] = {xs: tuple(X.act(x, name) for X, x in zip(factors, xs))
                        for xs in carrier[d]}
    return Presheaf(site, carrier, action, check=False)


def terminal(site):
    return product(site, [])


def projections(site, factors, prod=None):
    prod = prod if prod is not None else product(site, factors)
    out = []
    for i, X in enumerate(factors):
        comps = {c: {xs: xs[i] for xs in prod.elements(c)} for c in site.objects}
        out.append(PresheafMorphism(prod, X, comps, check=False))
    return out


def pairing(morphisms, prod=None):
    """<f1, ..., fn>: common source into the product of the targets."""
    src = morphisms[0].source
    site = src.site
    targets = [m.target for m in morphisms]
    prod = prod if prod is not None else product(site, targets)
    comps = {c: {x: tuple(m.components[c][x] for m in morphisms)
                 for x in src.elements(c)}
             for c in site.objects}
    return PresheafMorphism(src, prod, comps, check=False)


def equalizer(f, g):
    """The subpresheaf where f and g agree, with its inclusion."""
    if f.source != g.source or f.target != g.target:
        raise NotParallel("equalizer needs a parallel pair")
    X = f.source
    site = X.site
    carrier = {c: tuple(x for x in X.elements(c)
                        if f.components[c][x] == g.components[c][x])
               for c in site.objects}
    action = {}
    for name, s, d in site.morphisms:
        action[name] = {x: X.act(x, name) for x in carrier[d]}
    E = Presheaf(site, carrier, action, check=False)
    incl = PresheafMorphism(E, X, {c: {x: x for x in carrier[c]} for c in site.objects},
                            check=False)
    return E, incl


def coproduct(X, Y):
    """Disjoint union, with both injections."""
    site = X.site
    carrier = {c: tuple(("l", x) for x in X.elements(c))
               + tuple(("r", y) for y in Y.elements(c))
               for c in site.objects}
    action = {}
    for name, s, d in site.morphisms:
        table = {}
        for tag, z in carrier[d]:
            table[(tag, z)] = (tag, (X if tag == "l" else Y).act(z, name))
        action[name] = table
    P = Presheaf(site, carrier, action, check=False)
    inl = PresheafMorphism(X, P, {c: {x: ("l", x) for x in X.elements(c)}
                                  for c in site.objects}, check=False)
    inr = PresheafMorphism(Y, P, {c: {y: ("r", y) for y in Y.elements(c)}
                                  for c in site.objects}, check=False)
    return P, inl, inr


# ---------------------------------------------------------------------------
# brute-force morphism enumeration (small presheaves only)
# ---------------------------------------------------------------------------

def enumerate_morphisms(X, Y, *, injective_only=False, limit=None):
    """All natural transformations X -> Y by backtracking with propagation.

    Intended for the small sample presheaves used in certificates.  The
    search assigns images element by element; choosing x |-> y fixes
    x.f |-> y.f for every f into c, and since (x.f).g = x.(f*g) those images
    already form the subpresheaf x generates, so one pass over the arrows
    into c propagates the choice and dead branches are cut early.
    """
    if not X.site.same_site(Y.site):
        raise SiteMismatch("presheaves live on different sites")
    site = X.site
    items = [(c, x) for c in site.objects for x in X.elements(c)]
    results = []
    assign = {}

    def propagate(c, x, y, trail):
        for f in site.morphisms_into(c):
            key = (site.src[f], X.act(x, f))
            image = Y.act(y, f)
            cur = assign.get(key)
            if cur is None:
                assign[key] = image
                trail.append(key)
            elif cur != image:
                return False
        return True

    def extend(i):
        if limit is not None and len(results) >= limit:
            return
        while i < len(items) and items[i] in assign:
            i += 1
        if i == len(items):
            m = PresheafMorphism(X, Y, {c: {x: assign[(c, x)] for x in X.elements(c)}
                                        for c in site.objects}, check=False)
            if not injective_only or m.is_mono():
                results.append(m)
            return
        c, x = items[i]
        for y in Y.elements(c):
            trail = []
            if propagate(c, x, y, trail):
                extend(i + 1)
            for key in trail:
                del assign[key]
            if limit is not None and len(results) >= limit:
                return

    extend(0)
    return results
