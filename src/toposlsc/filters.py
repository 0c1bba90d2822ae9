"""Internal filters of the classifier and the quotients they induce.

A sub-presheaf F of Xi (an `InternalFilter`) that contains top and is
pointwise upward- and meet-closed picks out a full subcategory E_F (the
presheaves all of whose elements classify into F) together with an
idempotent lex comonad G with GX(c) = { x in X(c) | xi_X(x) in F(c) }.  The
certificate routine checks, exhaustively on sample presheaves, that the
corestricted cocone behaves as the local state classifier of that quotient.
"""

from .certificates import Certificate
from .errors import (
    ElementNotInCarrier,
    MissingTop,
    NotMeetClosed,
    ObjectMismatch,
    NotSubpresheaf,
    NotUpwardClosed,
    SiteMismatch,
    UnknownObject,
)
from .fincat import (
    Presheaf,
    RepCongruence,
    coproduct,
    enumerate_morphisms,
    equalizer,
    product,
    quotient_of_representable,
    subpresheaf,
    terminal,
)
from .lsc import xi_component
from .normalize import normalization_operator

# injective maps enumerated per ordered pair of members in the cocone clause
MONO_LIMIT = 64


def _check_keyed(L, selection):
    """Raise UnknownObject for a key that is no object of the site,
    ObjectMismatch for a congruence selected at another object than the one
    it lives at, and ElementNotInCarrier for anything else not in Xi(c)."""
    for c, qs in selection.items():
        if c not in L.site.objects:
            raise UnknownObject(f"unknown object {c!r}")
        for q in qs:
            if isinstance(q, RepCongruence) and q.base_object != c:
                raise ObjectMismatch(
                    f"{q!r} lives at {q.base_object!r} but is selected at {c!r}")
            if not L.contains(c, q):
                raise ElementNotInCarrier(f"{q!r} is not an element of Xi({c!r})")


class InternalFilter(Presheaf):
    """The sub-presheaf of Xi on a per-object selection of congruences, kept
    as frozensets for `contains`: Xi's order and columns restricted to it.

    Construction checks the keys (`_check_keyed`) and raises NotSubpresheaf
    with the first (q, f), over the arrows and Xi's order, where q.f leaves
    the selection.  `validate_filter` checks the filter laws.
    """

    def __init__(self, lsc, selection):
        chosen = {c: frozenset(qs) for c, qs in selection.items()}
        _check_keyed(lsc, chosen)
        self.lsc = lsc
        self.selection = {c: chosen.get(c, frozenset()) for c in lsc.site.objects}
        S = subpresheaf(lsc, self.selection)[0]
        bad = next(((q, f) for f, s, _ in lsc.site.morphisms
                    for q, p in S.action[f].items() if p not in self.selection[s]), None)
        if bad is not None:
            raise NotSubpresheaf(f"{bad[0]!r} . {bad[1]!r} leaves the selection", witness=bad)
        self.site, self.carrier, self.action = S.site, S.carrier, S.action

    def contains(self, c, q):
        return q in self.selection[c]

    def __eq__(self, other):
        return (isinstance(other, InternalFilter) and self.lsc is other.lsc
                and self.selection == other.selection)


def full_filter(L):
    return InternalFilter(L, {c: L.elements(c) for c in L.site.objects})


def top_filter(L):
    """The principal filter generated by top: just the total congruences."""
    return InternalFilter(L, {c: (L.top_at(c),) for c in L.site.objects})


def validate_filter(L, selection):
    """Check the filter clauses, raising the first violated one with witness.

    Order: sub-presheaf (when the InternalFilter is built), the classifier
    (SiteMismatch unless F was built on L), upward closure, top membership,
    meet closure.  With this order a selection missing top is reported as an
    upward-closure failure whenever it contains anything below top;
    MissingTop is reserved for selections that are empty somewhere.
    """
    F = selection if isinstance(selection, InternalFilter) else InternalFilter(L, selection)
    if F.lsc is not L:
        raise SiteMismatch("the filter lives on another classifier")
    for c in L.site.objects:
        chosen = F.selection[c]
        for q in F.carrier[c]:
            for q2 in L.elements(c):
                if q.leq(q2) and q2 not in chosen:
                    raise NotUpwardClosed(
                        f"{q!r} is selected at {c!r} but {q2!r} above it is not",
                        witness=(c, q, q2))
    for c in L.site.objects:
        if L.top_at(c) not in F.selection[c]:
            raise MissingTop(f"total congruence missing at {c!r}",
                             witness=(c, L.top_at(c)))
    for c in L.site.objects:
        chosen = F.carrier[c]
        for i, q1 in enumerate(chosen):
            for q2 in chosen[i:]:
                if q1.meet(q2) not in F.selection[c]:
                    raise NotMeetClosed(
                        f"meet of {q1!r} and {q2!r} escapes the selection at {c!r}",
                        witness=(c, q1, q2))
    return F


def filter_generated_by(L, seeds):
    """Least internal filter containing the seeds, a map from objects c to
    collections of elements of Xi(c).

    A filter of a finite meet-semilattice is the up-set of its least
    element, and the action preserves order and meets.  So at each c the
    filter is everything above top /\\ q.f for all seeds q at d and f: c -> d.
    Empty seeds give the top filter.
    """
    cat = L.site
    seeds = dict(seeds)
    _check_keyed(L, seeds)
    least = {c: L.top_at(c) for c in cat.objects}
    for d, qs in seeds.items():
        for q in qs:
            for f in cat.morphisms_into(d):
                least[cat.src[f]] = least[cat.src[f]].meet(L.act(q, f))
    return InternalFilter(L, {c: [q for q in L.elements(c) if least[c].leq(q)]
                              for c in cat.objects})


def _classify(F, X):
    """xi_X, and the first (c, x, xi_X(x)) with xi_X(x) outside F or None."""
    L = F.lsc
    if not L.site.same_site(X.site):
        raise SiteMismatch("presheaf does not live on the filter's site")
    xi = xi_component(L, X)
    outside = next(((c, x, q) for c in L.site.objects for x in X.elements(c)
                    for q in [xi.components[c][x]] if not F.contains(c, q)), None)
    return xi, outside


def _coreflect(F, X, xi):
    """GX, the elements of X that xi sends into F, with its counit."""
    return subpresheaf(X, {c: {x for x, q in xi.components[c].items() if F.contains(c, q)}
                           for c in F.site.objects})


def comonad_apply(F, X):
    """GX as the elements classifying into F, with its counit, the inclusion."""
    return _coreflect(F, X, _classify(F, X)[0])


def certify_quotient_classifier(F):
    """Certificate that the corestricted cocone classifies the quotient.

    Clauses, each recorded with a witness on failure:
      F-in-EF             xi sends every selected congruence back into F;
      cocone              xi^F is constant along injective maps of members;
      joint-surjectivity  every selected q is hit by the quotient y(c)/q,
                          which itself belongs to the subcategory;
      comonad             G is idempotent and preserves the terminal
                          object, sampled binary products and sampled
                          equalizers.

    The samples are the terminal presheaf, every y(c)/q and the coproduct of
    the first two.  Each sample is classified once, and the clauses read
    membership, xi and GX from that.

    F is a sub-presheaf of Xi once built, so every clause applies to it;
    one that breaks the filter laws fails clauses here instead of raising.
    """
    cert = Certificate("quotient-classifier")
    cat = F.site
    quotients = [(c, q, quotient_of_representable(q)) for c in cat.objects
                 for q in F.carrier[c]]

    # (a) the filter lives in its own subcategory
    cert.check("F-in-EF", _self_membership_counterexamples(F))

    # sample pool: the terminal presheaf, every y(c)/q, and one coproduct
    quotient_classes = [_classify(F, Q) for _, _, Q in quotients]
    pool = [terminal(cat)] + [Q for _, _, Q in quotients]
    classified = [_classify(F, pool[0])] + quotient_classes
    if len(pool) >= 2:
        P, _, _ = coproduct(pool[0], pool[1])
        pool.append(P)
        classified.append(_classify(F, P))
    members = [(X, xi.components) for X, (xi, outside) in zip(pool, classified)
               if outside is None]

    # (b) cocone property along injective morphisms between members
    maps = 0

    def cocone_counterexamples():
        nonlocal maps
        for Z, xi_z in members:
            for Zp, xi_zp in members:
                for m in enumerate_morphisms(Z, Zp, injective_only=True,
                                             limit=MONO_LIMIT):
                    maps += 1
                    yield from ((c, x, m) for c in cat.objects for x in Z.elements(c)
                                if xi_zp[c][m.components[c][x]] != xi_z[c][x])

    cert.check("cocone", cocone_counterexamples(),
               on_pass=lambda: f"{maps} injective maps checked")

    # (c) joint surjectivity through representable quotients
    cert.check("joint-surjectivity",
               _surjectivity_counterexamples(cat, quotients, quotient_classes))

    # (d) comonad sanity: idempotent, lex on samples
    cert.check("comonad", _comonad_counterexamples(F, pool, classified))
    return cert


def _self_membership_counterexamples(F):
    op = normalization_operator(F.lsc)
    for c in F.lsc.site.objects:
        yield from (q for q in F.carrier[c] if not F.contains(c, op.components[c][q]))


def _surjectivity_counterexamples(cat, quotients, classes):
    for (c, q, _), (xi, outside) in zip(quotients, classes):
        if outside is not None:
            yield (c, q, "quotient not a member", outside)
            continue
        hit = xi.components[c][q.block_members(cat.identity(c))]
        if hit != q:
            yield (c, q, "identity class classifies to", hit)


def _comonad_counterexamples(F, pool, classified):
    """Stages in order: G idempotent per sample, terminal preserved, binary
    products of neighbours, equalizers among the first three samples."""
    cat = F.site
    images = []
    for X, (xi, _) in zip(pool, classified):
        GX = _coreflect(F, X, xi)[0]
        images.append(GX)
        if comonad_apply(F, GX)[0].carrier != GX.carrier:
            yield ("G not idempotent", X)
    if images[0].carrier != pool[0].carrier:  # pool[0] is the terminal presheaf
        yield ("G does not preserve the terminal object",)
    kept = [{c: set(GX.elements(c)) for c in cat.objects} for GX in images]
    for i, (X, Y) in enumerate(zip(pool, pool[1:])):
        P = product(cat, [X, Y])
        expected = {c: tuple(p for p in P.elements(c)
                             if p[0] in kept[i][c] and p[1] in kept[i + 1][c])
                    for c in cat.objects}
        if comonad_apply(F, P)[0].carrier != expected:
            yield ("G does not preserve a binary product", X, Y)
    for GX, X in zip(images, pool[:3]):
        for Y in pool[:3]:
            fs = enumerate_morphisms(X, Y, limit=4)
            for f in fs:
                for g in fs:
                    GE = comonad_apply(F, equalizer(f, g)[0])[0]
                    agree = {(c, x) for c in cat.objects for x in GX.elements(c)
                             if f.components[c][x] == g.components[c][x]}
                    if {(c, x) for c in cat.objects for x in GE.elements(c)} != agree:
                        yield ("G does not preserve an equalizer", f, g)
