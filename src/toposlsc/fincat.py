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
    exactly the composable pairs.  Morphism names are globally unique and
    read through ``str`` in all three inputs; their position in
    ``morphisms`` fixes the canonical order used everywhere else.
    """

    def __init__(self, objects, morphisms, identities, composition):
        self.objects = tuple(objects)
        self.morphisms = tuple((str(n), s, d) for n, s, d in morphisms)
        self.identities = {c: str(i) for c, i in dict(identities).items()}
        self.composition = {(str(g), str(f)): str(h) for (g, f), h in dict(composition).items()}

        self._obj_index = {c: i for i, c in enumerate(self.objects)}
        if len(self._obj_index) != len(self.objects):
            raise UnknownObject("duplicate object names")
        for c in self.identities:
            if c not in self._obj_index:
                raise UnknownObject(f"identity given for {c!r}, which is not an object")
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
        # arrow -> its position in morphisms_into(dst): RepCongruence's index
        self.into_index = {u: i for into in self._into.values() for i, u in enumerate(into)}
        self.validate()
        # f: a -> d -> the positions in y(d) of f*u for u in y(a), in y(a)'s order
        self.after = {f: tuple(self.into_index[self.composition[(f, u)]] for u in self._into[a])
                      for f, a, _ in self.morphisms}

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

    def _violations(self):
        """Category-law violations as error instances, typing problems first;
        `validate` stops at the first, so the laws only read a typed table."""
        for c in self.objects:
            i = self.identities.get(c)
            if i is None or i not in self.src or self.src[i] != c or self.dst[i] != c:
                yield IdentityViolation(i, None, "typing", f"no identity on {c!r}")
        for (g, f), h in self.composition.items():
            if g not in self.src or f not in self.src or h not in self.src:
                yield IllTypedComposite(g, f, h, "unknown morphism in table entry")
            elif self.dst[f] != self.src[g]:
                yield IllTypedComposite(g, f, h, "pair is not composable")
            elif self.src[h] != self.src[f] or self.dst[h] != self.dst[g]:
                yield IllTypedComposite(g, f, h, "result has the wrong endpoints")
        for g, f in itertools.product(self.src, repeat=2):
            if self.dst[f] == self.src[g] and (g, f) not in self.composition:
                yield IllTypedComposite(g, f, None, "missing table entry")

        for m in self.src:
            left = self.composition[(self.identities[self.dst[m]], m)]
            if left != m:
                yield IdentityViolation(self.identities[self.dst[m]], m, "left", left)
            right = self.composition[(m, self.identities[self.src[m]])]
            if right != m:
                yield IdentityViolation(self.identities[self.src[m]], m, "right", right)
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
                        yield AssociativityViolation(h, g, f, left, right)

    def validate(self):
        bad = next(self._violations(), None)
        if bad is not None:
            raise bad
        return self

    def __repr__(self):
        return (f"FiniteCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


class Presheaf:
    """A finite presheaf: a finite set per object plus a contravariant action.

    ``carrier`` maps each object to an ordered tuple of (hashable) elements;
    ``action`` maps each morphism ``f: a -> b`` to a dict sending X(b) to X(a).
    """

    representing = None  # the object c when this presheaf is y(c)

    def __init__(self, site, carrier, action):
        self.site = site
        self.carrier = {c: tuple(carrier.get(c, ())) for c in site.objects}
        self.action = {m: dict(action.get(m, {})) for m, _, _ in site.morphisms}
        self.check_functorial()

    @classmethod
    def derived(cls, site, carrier, action):
        """``Presheaf(site, carrier, action)`` for tables whose laws hold by
        construction, taken as given: every object has a tuple, every arrow a column."""
        X = cls.__new__(cls)
        X.site, X.carrier, X.action = site, carrier, action
        return X

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
        for c, xs in self.carrier.items():
            if len(set(xs)) != len(xs):
                x = next(x for i, x in enumerate(xs) if x in xs[:i])
                raise FunctorialityViolation(f"X({c!r}) lists {x!r} twice")
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
        return f"{type(self).__name__}({sizes})"


class PresheafMorphism:
    """A natural transformation between presheaves on the same site."""

    def __init__(self, source, target, components):
        self.source, self.target = source, target
        self.components = {c: dict(components.get(c, {})) for c in source.site.objects}
        self.check_natural()

    @classmethod
    def derived(cls, source, target, components):
        """``PresheafMorphism(...)`` for components natural by construction, unchecked."""
        m = cls.__new__(cls)
        m.source, m.target, m.components = source, target, components
        return m

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
    """A partition of a representable y(c) that respects objects: each block
    lies in one Hom(a, c).  Xi(c) holds the right-compatible ones, those where
    u ~ v implies u*g ~ v*g.

    Stored as one tuple ``labels``: ``labels[i]`` is the block of the i-th
    arrow of ``site.morphisms_into(c)``, blocks numbered by first occurrence.
    That tuple is the canonical form, so equal labels are the same quotient
    object of y(c), and every operation works on the ints.  ``blocks`` (per
    object, blocks of names by least member), ``sort_key`` and ``repr`` are
    derived from it for reports.
    """

    __slots__ = ("site", "base_object", "labels", "_hash")

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_keys(cls, site, c, keys):
        """Number ``keys`` (one per arrow into c, differing across objects) by first occurrence."""
        ids = {}
        q = cls.__new__(cls)
        q.site, q.base_object = site, c
        q.labels = tuple(ids.setdefault(k, len(ids)) for k in keys)
        q._hash = hash((c, q.labels))
        return q

    @classmethod
    def from_labels(cls, site, c, label):
        """Partition each Hom(a, c) by the value of ``label`` on its members."""
        src = site.src
        return cls._from_keys(site, c, [(src[u], label(u)) for u in site.morphisms_into(c)])

    @classmethod
    def discrete(cls, site, c):
        return cls.from_labels(site, c, lambda u: u)

    @classmethod
    def total(cls, site, c):
        return cls.from_labels(site, c, lambda u: 0)

    # -- derived views ------------------------------------------------------------

    @property
    def blocks(self):
        """Object -> tuple of blocks, each a tuple of morphism names."""
        site = self.site
        members = [[] for _ in range(self.block_count())]
        for u, b in zip(site.morphisms_into(self.base_object), self.labels):
            members[b].append(u)
        out = {c: [] for c in site.objects}
        for b in members:
            out[site.src[b[0]]].append(tuple(b))
        return {c: tuple(bs) for c, bs in out.items()}

    def related(self, u, v):
        return self.block_id(u) == self.block_id(v)

    def block_id(self, u):
        if self.site.dst.get(u) != self.base_object:
            raise UnknownMorphism(f"{u!r} is not an element of y({self.base_object!r})")
        return self.labels[self.site.into_index[u]]

    def block_members(self, u):
        bid = self.block_id(u)
        return tuple(v for v, b in zip(self.site.morphisms_into(self.base_object), self.labels)
                     if b == bid)

    def block_count(self):
        return max(self.labels, default=-1) + 1

    def is_total(self):
        return all(len(bs) <= 1 for bs in self.blocks.values())

    def is_discrete(self):
        return self.block_count() == len(self.labels)

    # -- operations -----------------------------------------------------------------

    def _same_object(self, other, what):
        if other.base_object != self.base_object:
            raise ObjectMismatch(
                f"{what} congruences at {self.base_object!r} and {other.base_object!r}")
        if not self._numbered_alike(other):
            raise SiteMismatch(f"{what} congruences at {self.base_object!r} on different sites")

    def _numbered_alike(self, other):
        """Whether other, at the same object c, reads its labels as this does.
        Labels number the arrows into c, so equal labels on another site are
        the same partition only when that site names those arrows the same way."""
        c = self.base_object
        return (self.site is other.site
                or self.site.morphisms_into(c) == other.site.morphisms_into(c))

    def precompose(self, f):
        """The congruence on y(src f) relating u, v iff f*u ~ f*v here."""
        site = self.site
        if site.dst[f] != self.base_object:
            raise ObjectMismatch(
                f"{f!r} does not land in {self.base_object!r}")
        return RepCongruence._from_keys(site, site.src[f],
                                        map(self.labels.__getitem__, site.after[f]))

    def meet(self, other):
        """Common refinement (intersection of the relations)."""
        self._same_object(other, "meet of")
        return RepCongruence._from_keys(self.site, self.base_object,
                                        zip(self.labels, other.labels))

    def leq(self, other):
        """Relation inclusion: self is a refinement of other."""
        self._same_object(other, "comparing")
        image = {}
        return all(image.setdefault(a, b) == b for a, b in zip(self.labels, other.labels))

    def sort_key(self):
        idx = self.site.mor_index
        return tuple(tuple(tuple(idx[u] for u in b) for b in bs) for bs in self.blocks.values())

    def __eq__(self, other):
        return (isinstance(other, RepCongruence) and self.base_object == other.base_object
                and self.labels == other.labels and self._numbered_alike(other))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        merged = [b for bs in self.blocks.values() for b in bs if len(b) > 1]
        if not merged:
            return f"Cong({self.base_object}: discrete)"
        body = " ".join("~".join(b) for b in merged)
        return f"Cong({self.base_object}: {body})"


def _union_find(n, links):
    """Root of each of 0..n-1 under the equivalence closure of ``links``."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in links:
        parent[find(i)] = find(j)
    return [find(i) for i in range(n)]


# ---------------------------------------------------------------------------
# representables and images
# ---------------------------------------------------------------------------

def representable(cat, c):
    """The Yoneda presheaf y(c): Hom(-, c) with action by precomposition."""
    if c not in cat._obj_index:
        raise UnknownObject(f"unknown object {c!r}")
    carrier, comp = {a: cat.hom(a, c) for a in cat.objects}, cat.composition
    y = Presheaf.derived(cat, carrier, {f: {u: comp[(u, f)] for u in carrier[d]}
                                        for f, _, d in cat.morphisms})
    y.representing = c
    return y


def yoneda_morphism(X, c, x):
    """The morphism y(c) -> X classifying x: u |-> x . u."""
    cat = X.site
    if x not in set(X.elements(c)):
        raise ElementNotInCarrier(f"{x!r} is not in X({c!r})")
    y = representable(cat, c)
    return PresheafMorphism.derived(y, X, {a: {u: X.action[u][x] for u in y.carrier[a]}
                                           for a in cat.objects})


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
    carrier = q.blocks
    block_of = {u: b for bs in carrier.values() for b in bs for u in b}
    comp = cat.composition
    return Presheaf.derived(cat, carrier, {f: {b: block_of[comp[(b[0], f)]] for b in carrier[d]}
                                           for f, _, d in cat.morphisms})


# ---------------------------------------------------------------------------
# enumeration of quotient objects
# ---------------------------------------------------------------------------

def enumerate_quotient_objects(cat, c, cap=DEFAULT_BUDGET):
    """All right-compatible partitions of y(c), canonical and deterministic.

    Every right congruence is the join of the principal congruences
    theta(u, v) of the pairs it relates, so Xi(c) is the closure of the
    discrete congruence under joins with the principals.  theta(u, v) is the
    equivalence closure of the pairs (u*g, v*g), so theta(u*g, v*g) =
    theta(u, v) for g in Aut(a), as (u, v) = (u*g*g^-1, v*g*g^-1): one pair
    per Aut(a)-orbit is enough.  A join needs no re-closure (a chain of
    related arrows composed with g on the right is a chain).  The search is
    Close-by-One (Kuznetsov 1993): from (q, start) it joins q with each
    principal p_k, k >= start, not below q, and keeps the join only if every
    p_j, j < k, below it is below q.  So an element r is made once, from the
    join of the p_j <= r with j < k, for the least k whose p_j <= r with
    j <= k join to r; no set of those seen is needed.  p_j <= q reads one
    pair: theta(u, v) is the least congruence relating u and v.
    """
    elems = cat.morphisms_into(c)
    if len(elems) > cap:
        raise BudgetExceeded(len(elems), cap)
    pairs, links = _principals(cat, c)
    found = [RepCongruence.discrete(cat, c)]
    stack = [(found[0].labels, 0)]
    while stack:
        lab, start = stack.pop()
        for k in range(start, len(pairs)):
            if lab[pairs[k][0]] == lab[pairs[k][1]]:
                continue
            roots = _union_find(max(lab) + 1, [(lab[i], lab[j]) for i, j in links[k]])
            if any(lab[u] != lab[v] and roots[lab[u]] == roots[lab[v]] for u, v in pairs[:k]):
                continue
            found.append(RepCongruence._from_keys(cat, c, [roots[b] for b in lab]))
            if len(found) > cap:
                raise BudgetExceeded(len(found), cap, what=f"quotient objects of y({c!r})")
            stack.append((found[-1].labels, k + 1))
    return tuple(sorted(found, key=RepCongruence.sort_key))


def _principals(cat, c):
    """Each distinct theta(u, v), u, v in one Hom(a, c), in first-seen order, as its
    pair (pos u, pos v) and the links of a spanning forest of its blocks."""
    pos, after, n = cat.into_index, cat.after, len(cat.morphisms_into(c))
    principals = {}
    for a in cat.objects:
        hom, done = cat.hom(a, c), set()
        # positions in y(a) of the g: a -> a with g*h = id_a for some h
        aut = [pos[g] for g in cat.hom(a, a) if pos[cat.identities[a]] in after[g]]
        for i, u in enumerate(hom):
            for v in hom[i + 1:]:
                if frozenset((pos[u], pos[v])) not in done:
                    done.update(frozenset((after[u][g], after[v][g])) for g in aut)
                    roots = _union_find(n, zip(after[u], after[v]))
                    principals.setdefault(RepCongruence._from_keys(cat, c, roots), (
                        (pos[u], pos[v]), [(r, j) for j, r in enumerate(roots) if r != j]))
    return [pair for pair, _ in principals.values()], [ln for _, ln in principals.values()]


# ---------------------------------------------------------------------------
# finite limits and colimits
# ---------------------------------------------------------------------------

def product(site, factors):
    """Pointwise product; elements are tuples in ``itertools.product`` order,
    and so is each column, the product of the factors' columns.  Empty = terminal."""
    factors = list(factors)
    carrier = {c: tuple(itertools.product(*(X.elements(c) for X in factors)))
               for c in site.objects}
    action = {f: dict(zip(carrier[d], itertools.product(
                  *([X.action[f][x] for x in X.carrier[d]] for X in factors))))
              for f, _, d in site.morphisms}
    return Presheaf.derived(site, carrier, action)


def terminal(site):
    return product(site, [])


def subpresheaf(X, keep):
    """The subpresheaf on the elements of X(c) in ``keep[c]`` (closed under the
    action), with X's order and columns restricted to them, and its inclusion."""
    site = X.site
    carrier = {c: tuple(x for x in X.carrier[c] if x in keep[c]) for c in site.objects}
    action = {f: {x: X.action[f][x] for x in carrier[d]} for f, _, d in site.morphisms}
    S = Presheaf.derived(site, carrier, action)
    return S, PresheafMorphism.derived(S, X, {c: dict(zip(xs, xs)) for c, xs in carrier.items()})


def equalizer(f, g):
    """The subpresheaf where f and g agree, with its inclusion."""
    if f.source != g.source or f.target != g.target:
        raise NotParallel("equalizer needs a parallel pair")
    X = f.source
    return subpresheaf(X, {c: {x for x, y in f.components[c].items() if g.components[c][x] == y}
                           for c in X.site.objects})


def coproduct(X, Y):
    """Disjoint union, X's elements tagged "l" and Y's "r", with both injections."""
    site = X.site
    parts = (("l", X), ("r", Y))
    carrier = {c: tuple((t, x) for t, Z in parts for x in Z.carrier[c]) for c in site.objects}
    action = {f: {(t, x): (t, Z.action[f][x]) for t, Z in parts for x in Z.carrier[d]}
              for f, _, d in site.morphisms}
    P = Presheaf.derived(site, carrier, action)
    inl, inr = (PresheafMorphism.derived(Z, P, {c: {x: (t, x) for x in Z.carrier[c]}
                                                for c in site.objects}) for t, Z in parts)
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
    into c propagates the choice and dead branches are cut early.  With
    ``injective_only`` a choice that gives two elements of one object the
    same image is cut the same way, so ``limit`` counts injective maps.
    """
    if not X.site.same_site(Y.site):
        raise SiteMismatch("presheaves live on different sites")
    site = X.site
    if injective_only and any(len(X.carrier[c]) > len(Y.carrier[c]) for c in site.objects):
        return []
    items = [(c, x) for c in site.objects for x in X.elements(c)]
    results = []
    assign = {}
    taken = set()  # (object, image) pairs assigned so far, when injective_only

    def propagate(c, x, y, trail):
        for f in site.morphisms_into(c):
            a = site.src[f]
            key = (a, X.action[f][x])
            image = Y.action[f][y]
            cur = assign.get(key)
            if cur is None:
                if injective_only:
                    if (a, image) in taken:
                        return False
                    taken.add((a, image))
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
            results.append(PresheafMorphism.derived(
                X, Y, {c: {x: assign[(c, x)] for x in X.carrier[c]} for c in site.objects}))
            return
        c, x = items[i]
        for y in Y.elements(c):
            trail = []
            if propagate(c, x, y, trail):
                extend(i + 1)
            for key in trail:
                taken.discard((key[0], assign.pop(key)))
            if limit is not None and len(results) >= limit:
                return

    extend(0)
    return results
