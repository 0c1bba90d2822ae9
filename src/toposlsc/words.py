"""Right congruences on words: the free-monoid face of the classifier.

Over an alphabet S, the classifier of the topos of S-sets is the set of all
right congruences on S* acted on by (~ * w) relating u, v iff wu ~ wv.  A
finite-index right congruence is the same thing as a pointed accessible
deterministic transition system, which is how this module represents them:
`RightCongruence` stores the canonical (BFS shortlex) numbering, so
structural equality coincides with pointed isomorphism.  A `Dfa` is the same
type plus a set of accepting states, so validation, canonical numbering,
`letter` and `run` exist once.  One breadth-first exploration, `_explore`,
numbers new states everywhere: the canonical form, the subset construction,
the pointed product behind meets and the orbit fold, and the transition
monoid, whose exploration rows are its right Cayley graph; it composes byte
strings by `bytes.translate` up to 256 states, tuples by `itemgetter` above.
One partition refiner, `_refine` (Hopcroft's smaller-half worklist), serves
minimization, starting from the accepting flags, and `state_classes`,
starting from labels of strongly connected components; each block of the
latter is then split into pointed-isomorphism classes by lockstep isomorphism
attempts, so no state's future is canonicalized on its own.

Only finite-index congruences are representable.  That is exactly the orbit-
finite fragment in which regular languages live; non-regular languages have
no representation here and are out of scope, not approximated.

The pipeline regex -> position automaton -> DFA -> minimal DFA is
deliberately standard (Glushkov, subset construction, Hopcroft); a position
automaton has no ε-transitions, so no subset needs a closure.  The
interesting operations sit on top of it: Nerode congruences, the congruence
action and meets, syntactic monoids via transition monoids, orbit infima,
and the normalization operator that groups states by the pointed-isomorphism
class of their futures.  The word oracles stay off that pipeline: the
residual oracle derives (Brzozowski) each derivative by each letter once and
signs each derivative once, and the two-sided oracle walks bounded
breadth-first layers.
"""

import functools
import heapq
import itertools
from operator import itemgetter

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    RegexSyntaxError,
    SymbolOutsideAlphabet,
    UnknownState,
)

WORDS_SCALE = 100  # a budgeted caller caps each exploration at this many times the budget


def _check_alphabet(alphabet):
    symbols = tuple(alphabet)
    if len(set(symbols)) != len(symbols):
        raise AlphabetMismatch(f"duplicate symbols in alphabet {symbols!r}")
    for s in symbols:
        if not isinstance(s, str) or len(s) != 1:
            raise AlphabetMismatch(f"symbols must be single characters, got {s!r}")
        if s in "#()|*":
            raise AlphabetMismatch(f"symbol {s!r} is reserved by the regex grammar")
    return symbols


# ---------------------------------------------------------------------------
# regular expressions
# ---------------------------------------------------------------------------

class _Node:
    """Base of the regex nodes, values never changed once built.  Each node
    computes its hash and whether it holds the empty word once, from its
    children's, so neither recurses on a deep tree; equality and repr walk
    trees with an explicit stack.  A subclass's own slots are its children."""

    __slots__ = ("nullable", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if type(x) is not type(y) or hash(x) != hash(y):
                return False
            if isinstance(x, _Node):
                todo += ((getattr(x, f), getattr(y, f)) for f in x.__slots__)
            elif x != y:
                return False
        return True

    def __repr__(self):
        out, todo = [], [self]  # todo holds nodes and text already rendered
        while todo:
            x = todo.pop()
            if not isinstance(x, _Node):
                out.append(x)
                continue
            items = [f"{type(x).__name__}("]
            for i, f in enumerate(x.__slots__):
                v = getattr(x, f)
                items += [", "] * (i > 0) + [v if isinstance(v, _Node) else repr(v)]
            todo += reversed(items + [")"])
        return "".join(out)


class EmptyLang(_Node):
    __slots__ = ()

    def __init__(self):
        self.nullable, self._hash = False, hash("EmptyLang")


class EmptyWord(_Node):
    __slots__ = ()

    def __init__(self):
        self.nullable, self._hash = True, hash("EmptyWord")


class Sym(_Node):
    __slots__ = ("ch",)

    def __init__(self, ch):
        self.ch, self.nullable, self._hash = ch, False, hash(("Sym", ch))


class Concat(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.nullable = left.nullable and right.nullable
        self._hash = hash(("Concat", left, right))


class Alt(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.nullable = left.nullable or right.nullable
        self._hash = hash(("Alt", left, right))


class Star(_Node):
    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner, self.nullable, self._hash = inner, True, hash(("Star", inner))


# The parser descends four calls per open group; this bound keeps the
# deepest accepted regex well inside the interpreter's recursion limit.
MAX_GROUP_DEPTH = 100


def parse_regex(src, alphabet):
    """Parse a regex over the given alphabet into a syntax tree.

    Grammar: single-character symbols, juxtaposition for concatenation, `|`
    for alternation, `*` for iteration, parentheses, `#e` for the empty word
    and `#0` for the empty language.  Groups nest at most MAX_GROUP_DEPTH
    deep.  Concatenations nest to the right, so a derivative drops a leading
    letter without rebuilding the rest.
    """
    symbols = set(_check_alphabet(alphabet))
    n = len(src)
    pos = 0
    depth = 0

    def fail(message, at):
        raise RegexSyntaxError(message, at)

    def parse_atom():
        nonlocal pos, depth
        ch = src[pos]
        if ch == "(":
            if depth == MAX_GROUP_DEPTH:
                fail(f"groups nested deeper than {MAX_GROUP_DEPTH}", pos)
            depth += 1
            open_pos = pos
            pos += 1
            if pos >= n:
                fail("unclosed group", open_pos)
            if src[pos] == ")":
                fail("empty group", pos)
            node = parse_alt()
            if pos >= n:
                fail("unclosed group", open_pos)
            if src[pos] != ")":
                fail(f"unexpected {src[pos]!r}", pos)
            pos += 1
            depth -= 1
            return node
        if ch == "#":
            if pos + 1 < n and src[pos + 1] == "e":
                pos += 2
                return EmptyWord()
            if pos + 1 < n and src[pos + 1] == "0":
                pos += 2
                return EmptyLang()
            fail("expected #e or #0", pos)
        if ch in symbols:
            pos += 1
            return Sym(ch)
        if ch in ")|*":
            fail(f"unexpected {ch!r}", pos)
        raise SymbolOutsideAlphabet(ch, sorted(symbols), position=pos)

    def parse_starred():
        nonlocal pos
        node = parse_atom()
        while pos < n and src[pos] == "*":
            node = Star(node)
            pos += 1
        return node

    def parse_concat():
        nonlocal pos
        if pos >= n or src[pos] in ")|":
            fail("expected an expression", pos)
        parts = [parse_starred()]
        while pos < n and src[pos] not in ")|":
            parts.append(parse_starred())
        node = parts.pop()
        while parts:
            node = Concat(parts.pop(), node)
        return node

    def parse_alt():
        nonlocal pos
        node = parse_concat()
        while pos < n and src[pos] == "|":
            pos += 1
            node = Alt(node, parse_concat())
        return node

    tree = parse_alt()
    if pos != n:
        fail(f"unexpected {src[pos]!r}", pos)
    return tree


_EMPTY = EmptyLang()


def _cat(left, right):
    """left right, with the empty language absorbing and the empty word a unit."""
    if isinstance(left, EmptyLang) or isinstance(right, EmptyLang):
        return _EMPTY
    if isinstance(left, EmptyWord):
        return right
    return left if isinstance(right, EmptyWord) else Concat(left, right)


def _alts(node):
    out, todo = [], [node]
    while todo:
        node = todo.pop()
        if isinstance(node, Alt):
            todo += [node.right, node.left]
        elif not isinstance(node, EmptyLang):
            out.append(node)
    return out


def _alt(left, right):
    """left | right as a right-nested chain of its distinct alternatives other
    than the empty language, in first-occurrence order."""
    *rest, out = dict.fromkeys(_alts(left) + _alts(right)) or [_EMPTY]
    for node in reversed(rest):
        out = Alt(node, out)
    return out


def _derive(term, ch):
    """Brzozowski's derivative of term by the letter ch, the words w with ch w
    in term.  The smart constructors keep a tree's derivatives finitely many.
    Children are derived before their parent off an explicit stack, each
    node of term once; a Concat's right side only if its left is nullable."""
    out = {}  # id of a node of term -> its derivative
    todo = [(term, False)]
    while todo:
        node, ready = todo.pop()
        if id(node) in out:
            continue
        if not ready and isinstance(node, Star):
            todo += [(node, True), (node.inner, False)]
        elif not ready and isinstance(node, (Concat, Alt)):
            todo.append((node, True))
            if isinstance(node, Alt) or node.left.nullable:
                todo.append((node.right, False))
            todo.append((node.left, False))
        elif isinstance(node, Sym):
            out[id(node)] = EmptyWord() if node.ch == ch else _EMPTY
        elif isinstance(node, Concat):
            head = _cat(out[id(node.left)], node.right)
            out[id(node)] = _alt(head, out[id(node.right)]) if node.left.nullable else head
        elif isinstance(node, Alt):
            out[id(node)] = _alt(out[id(node.left)], out[id(node.right)])
        elif isinstance(node, Star):
            out[id(node)] = _cat(out[id(node.inner)], node)
        elif isinstance(node, (EmptyLang, EmptyWord)):
            out[id(node)] = _EMPTY
        else:
            raise TypeError(f"not a regex node: {node!r}")
    return out[id(term)]


def regex_member(tree, word, _memo=None):
    """Membership by Brzozowski's derivatives (J. ACM 11(4), 1964): the
    independent oracle.  ``_memo``, one per tree, maps each prefix derived
    so far to its derivative; a call derives on from the longest prefix of
    its word found there, so calls sharing it derive each prefix once."""
    memo = {} if _memo is None else _memo
    term = memo.get(word)
    if term is None:
        if memo.setdefault("", tree) is not tree:
            raise ValueError("this memo of regex_member belongs to another tree")
        i = len(word)
        while word[:i] not in memo:
            i -= 1
        term = memo[word[:i]]
        for j in range(i, len(word)):
            term = memo[word[:j + 1]] = _derive(term, word[j])
    return term.nullable


def words_upto(alphabet, bound):
    """All words of length <= bound, in shortlex order."""
    out = [""]
    for length in range(1, bound + 1):
        out.extend("".join(w) for w in itertools.product(alphabet, repeat=length))
    return out


# ---------------------------------------------------------------------------
# pointed transition systems: right congruences and DFAs
# ---------------------------------------------------------------------------

def _explore(start, successors, cap=None, what=None):
    """Breadth-first exploration from `start`.

    ``successors(s)`` lists the states reached from s by each letter, in
    alphabet order.  Returns ``(number, rows)``: ``number`` maps each reached
    state to its first-visit number (its insertion order is that order) and
    ``rows[i][a]`` is the number of the state the a-th letter leads to from
    the i-th.  Rows are tuples of ints, which the garbage collector stops
    tracking (lists stay tracked), so many rows do not lengthen full
    collections.  A state numbered ``cap`` raises BudgetExceeded for ``what``.
    """
    number = {start: 0}
    get = number.get
    states = [start]
    rows = []
    for s in states:
        row = []
        for t in successors(s):
            j = get(t)
            if j is None:
                j = number[t] = len(states)
                if j == cap:
                    raise BudgetExceeded(cap + 1, cap, what)
                states.append(t)
            row.append(j)
        rows.append(tuple(row))
    return number, rows


def _witnesses(rows, symbols):
    """Shortlex-least word reaching each state of a breadth-first numbered
    system: the first transition into a state, scanning rows in order, comes
    from the state that discovered it."""
    out = [""] + [None] * (len(rows) - 1)
    for s, row in enumerate(rows):
        for ch, t in zip(symbols, row):
            if out[t] is None:
                out[t] = out[s] + ch
    return tuple(out)


class RightCongruence:
    """A finite-index right congruence on S*, i.e. a pointed accessible
    deterministic transition system in canonical (BFS shortlex) numbering.

    The initial state is always 0, so two values are structurally equal iff
    the pointed automata are isomorphic.  ``index`` (= the number of states)
    is the number of congruence classes.
    """

    __slots__ = ("alphabet", "delta", "_letter", "_hash")

    initial = 0

    def __init__(self, alphabet, delta_rows, initial=0):
        self._canonize(alphabet, delta_rows, initial)

    def _canonize(self, alphabet, delta_rows, initial):
        """Validate the table and keep the part reachable from `initial`,
        renumbered breadth-first; returns the new number of each old state."""
        symbols = _check_alphabet(alphabet)
        rows = list(map(tuple, delta_rows))
        if not rows or set(map(len, rows)) != {len(symbols)}:
            raise UnknownState("transition table is empty or does not match the alphabet")
        if not 0 <= initial < len(rows):
            raise UnknownState(f"initial state {initial!r} out of range")
        if symbols:
            lo, hi = min(map(min, rows)), max(map(max, rows))
            if lo < 0 or hi >= len(rows):
                raise UnknownState(f"transition target {lo if lo < 0 else hi!r} out of range")
        number, canon = _explore(initial, rows.__getitem__)
        self._adopt(symbols, canon)
        return number

    def _adopt(self, symbols, rows):
        """Set the fields from rows in canonical numbering; returns self."""
        self.alphabet = symbols
        self.delta = tuple(rows)
        self._letter = {ch: a for a, ch in enumerate(symbols)}
        self._hash = hash((symbols, self.delta))
        return self

    @property
    def n(self):
        return len(self.delta)

    index = n

    def letter(self, sym):
        try:
            return self._letter[sym]
        except KeyError:
            raise SymbolOutsideAlphabet(sym, self.alphabet) from None

    def run(self, word, start=0):
        s = start
        for ch in word:
            s = self.delta[s][self.letter(ch)]
        return s

    def related(self, u, v):
        return self.run(u) == self.run(v)

    def witnesses(self):
        """Shortlex-least word reaching each state; state i gets the i-th."""
        return _witnesses(self.delta, self.alphabet)

    def is_total(self):
        return self.n == 1

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.alphabet == other.alphabet and self.delta == other.delta)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RightCongruence(index={self.n}, alphabet={''.join(self.alphabet)!r})"


def _from_explored(symbols, rows):
    """The congruence of ``rows`` numbered breadth-first from state 0, as
    `_explore` numbers them; a minimal Dfa's rows are such rows.  They are
    canonical already, so they are taken unchecked and not renumbered."""
    return object.__new__(RightCongruence)._adopt(symbols, rows)


class Dfa(RightCongruence):
    """A complete DFA: a right congruence (its reachable part, canonically
    numbered) plus a set of accepting states.

    States are 0..n-1 with 0 initial; `delta` is a state-major tuple of
    tuples indexed by letter position.  A Dfa never equals a RightCongruence.
    """

    __slots__ = ("accepting",)

    def __init__(self, alphabet, n, initial, accepting, delta):
        rows = list(delta)
        number = self._canonize(alphabet, rows, initial)
        if len(rows) != n:
            raise UnknownState(f"transition table has {len(rows)} rows for {n} states")
        for s in accepting:
            if not 0 <= s < n:
                raise UnknownState(f"accepting state {s!r} out of range")
        self.accepting = frozenset(number[s] for s in accepting if s in number)
        self._hash = hash((self.alphabet, self.delta, self.accepting))

    def accepts(self, word):
        return self.run(word) in self.accepting

    def __eq__(self, other):
        return super().__eq__(other) and self.accepting == other.accepting

    __hash__ = RightCongruence.__hash__

    def __repr__(self):
        return f"Dfa({self.n} states over {''.join(self.alphabet)!r})"


def _refine(n, delta, labels):
    """The coarsest partition of the states 0..n-1 that refines ``labels``
    and is stable under every letter: two states of one block go to one
    block by each letter.  Returns a block id per state.

    Hopcroft's algorithm with the smaller-half worklist.  Each block is a
    contiguous range of ``elems`` whose marked states are moved to its
    front, so a split costs the size of the marked part, not of the block
    (Valmari and Lehtinen, STACS 2008).  O(kn log n) for k letters.
    """
    ids = {}
    block = [ids.setdefault(label, len(ids)) for label in labels]
    elems = sorted(range(n), key=block.__getitem__)
    loc = [0] * n
    first, end = [0] * len(ids), [0] * len(ids)
    for i, s in enumerate(elems):
        loc[s] = i
        end[block[s]] = i + 1
    for b in range(1, len(ids)):
        first[b] = end[b - 1]
    marked = first[:]  # block b's marked states are elems[first[b]:marked[b]]
    preimages = [[[] for _ in range(n)] for _ in delta[0]]
    for s, row in enumerate(delta):
        for pre, t in zip(preimages, row):
            pre[t].append(s)
    # with a total transition function, stability under all blocks but one
    # implies stability under the last, so the largest never waits
    largest = max(range(len(ids)), key=lambda b: end[b] - first[b], default=0)
    waiting = [b != largest for b in range(len(ids))]
    work = [b for b in range(len(ids)) if waiting[b]]
    while work:
        c = work.pop()
        waiting[c] = False
        splitter = elems[first[c]:end[c]]
        for pre in preimages:
            touched = []
            for t in splitter:
                for s in pre[t]:
                    b = block[s]
                    i, j = loc[s], marked[b]
                    if i >= j:
                        if j == first[b]:
                            touched.append(b)
                        u = elems[j]
                        elems[i], elems[j] = u, s
                        loc[u], loc[s] = i, j
                        marked[b] = j + 1
            for b in touched:
                lo, hi = first[b], marked[b]
                if hi == end[b]:
                    marked[b] = lo
                    continue
                # the marked part becomes a new block; b keeps the rest
                new = len(first)
                first.append(lo)
                end.append(hi)
                marked.append(lo)
                first[b] = marked[b] = hi
                for i in range(lo, hi):
                    block[elems[i]] = new
                if waiting[b] or hi - lo <= end[b] - hi:
                    waiting.append(True)
                    work.append(new)
                else:
                    waiting.append(False)
                    waiting[b] = True
                    work.append(b)
    return block


def minimize(d):
    """The minimal complete DFA of the same language, canonically numbered."""
    block = _refine(d.n, d.delta, [s in d.accepting for s in range(d.n)])
    rows = [None] * (max(block) + 1)
    for s, row in enumerate(d.delta):
        rows[block[s]] = [block[t] for t in row]
    return Dfa(d.alphabet, len(rows), block[0], {block[s] for s in d.accepting}, rows)


# ---------------------------------------------------------------------------
# regex -> minimal DFA
# ---------------------------------------------------------------------------

def _follow(tree):
    """Glushkov's position automaton: returns (letters, follow, first).
    Position p is the p-th `Sym` from the left and reads letters[p];
    follow[p] holds the positions that may be read next, first those read
    first, and the end marker -1 joins either where a word may end.  Built
    bottom-up with explicit stacks, so a deep tree meets no recursion limit;
    `built` holds sets per occurrence, as subtrees may share node objects."""
    letters, follow = [], []
    built = []  # (first, last) of each finished subtree, innermost last
    todo = [(tree, False)]
    while todo:
        node, ready = todo.pop()
        if not ready and isinstance(node, (Concat, Alt)):
            todo += [(node, True), (node.right, False), (node.left, False)]
        elif not ready and isinstance(node, Star):
            todo += [(node, True), (node.inner, False)]
        elif isinstance(node, (EmptyLang, EmptyWord)):
            built.append((set(), set()))
        elif isinstance(node, Sym):
            built.append(({len(letters)}, {len(letters)}))
            letters.append(node.ch)
            follow.append(set())
        elif isinstance(node, Concat):
            first2, last2 = built.pop()
            first1, last1 = built.pop()
            for p in last1:
                follow[p] |= first2
            if node.left.nullable:
                first1 |= first2
            if node.right.nullable:
                last2 |= last1
            built.append((first1, last2))
        elif isinstance(node, Alt):
            first2, last2 = built.pop()
            built[-1][0].update(first2)
            built[-1][1].update(last2)
        elif isinstance(node, Star):
            first, last = built[-1]
            for p in last:
                follow[p] |= first
        else:
            raise TypeError(f"not a regex node: {node!r}")
    first, last = built.pop()
    for p in last:
        follow[p].add(-1)
    if tree.nullable:
        first.add(-1)
    return letters, follow, first


def regex_to_min_dfa(tree, alphabet, cap=None):
    """Compile to the minimal complete DFA (sink state included).

    Accepts a parse tree or a source string.  Subset construction over the
    position automaton, at most ``cap`` subsets, then Hopcroft minimization.
    """
    symbols = _check_alphabet(alphabet)
    if isinstance(tree, str):
        tree = parse_regex(tree, symbols)
    letters, follow, first = _follow(tree)
    steps = [{p: frozenset(follow[p]) for p, c in enumerate(letters) if c == ch}
             for ch in symbols]

    def successors(subset):
        return [frozenset().union(*map(step.get, subset, itertools.repeat(frozenset())))
                for step in steps]

    number, rows = _explore(frozenset(first), successors, cap, "subset construction")
    accepting = {i for i, subset in enumerate(number) if -1 in subset}
    return minimize(Dfa(symbols, len(rows), 0, accepting, rows))


# ---------------------------------------------------------------------------
# right congruences
# ---------------------------------------------------------------------------

def top_congruence(alphabet):
    """The total congruence: one class, every letter a self-loop."""
    symbols = _check_alphabet(alphabet)
    return RightCongruence(symbols, [(0,) * len(symbols)])


def nerode_congruence(d):
    """States of the minimal DFA with acceptance forgotten but kept distinct:
    u ~ v iff the residuals after u and v coincide."""
    m = minimize(d)
    return _from_explored(m.alphabet, m.delta)


def state_congruence(x, q):
    """The congruence relating u, v iff q.u = q.v: the accessible part of x
    pointed at q.  Accepts a Dfa or a RightCongruence."""
    return RightCongruence(x.alphabet, x.delta, q)


def congruence_action(rc, word):
    """rc * word: relates u, v iff (word u) ~ (word v).  Never raises the
    index."""
    return state_congruence(rc, rc.run(word))


def _check_same_alphabet(a, b):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet!r} vs {b.alphabet!r}")


def _product_rows(rows1, rows2, start):
    """Rows of the part of the product of two transition systems reachable
    from the pair ``start``, numbered breadth-first: its canonical form."""
    return _explore(start, lambda pq: zip(rows1[pq[0]], rows2[pq[1]]))[1]


def congruence_meet(rc1, rc2):
    """Intersection of the relations: reachable part of the pointed product."""
    _check_same_alphabet(rc1, rc2)
    return _from_explored(rc1.alphabet, _product_rows(rc1.delta, rc2.delta, (0, 0)))


def _refines(rows1, s1, rows2, s2):
    """Whether rows1 pointed at s1 refines rows2 pointed at s2: the map
    sending s1.u to s2.u is a function.  Built from s1 |-> s2 along the
    transitions of rows1 and checked to commute with every letter on every
    one of them."""
    image = [None] * len(rows1)
    image[s1] = s2
    stack = [s1]
    while stack:
        p = stack.pop()
        for np, nq in zip(rows1[p], rows2[image[p]]):
            q = image[np]
            if q is None:
                image[np] = nq
                stack.append(np)
            elif q != nq:
                return False
    return True


def congruence_leq(rc1, rc2):
    """Relation inclusion rc1 <= rc2, i.e. [u]_1 |-> [u]_2 is well-defined."""
    _check_same_alphabet(rc1, rc2)
    return _refines(rc1.delta, 0, rc2.delta, 0)


# ---------------------------------------------------------------------------
# transition monoids and syntactic congruences
# ---------------------------------------------------------------------------

class TransitionMonoid:
    """The monoid of state transformations realized by words, numbered
    breadth-first from the identity (element 0), each element stored with its
    shortlex-least witness word.  ``rows[i][a]`` is the element realized by
    witness i followed by the a-th letter: the right Cayley graph, whose
    rows are tuples of ints, so the garbage collector stops tracking them.
    The tuples of ``elements`` are built from their encoding on first access."""

    def __init__(self, alphabet, number, rows):
        self.alphabet = tuple(alphabet)
        self.witnesses = _witnesses(rows, self.alphabet)
        self._index = number
        self._rows = rows

    @functools.cached_property
    def elements(self):
        return tuple(map(tuple, self._index))

    @property
    def order(self):
        return len(self._rows)

    def mult(self, i, j):
        """Index of witness_i followed by witness_j, read along the Cayley graph."""
        for ch in self.witnesses[j]:
            i = self._rows[i][self.alphabet.index(ch)]
        return i

    def table(self):
        """Full composition table; quadratic, built on each call."""
        return [[self.mult(i, j) for j in range(self.order)] for i in range(self.order)]

    def cayley_congruence(self):
        """Right-multiplication Cayley structure pointed at the identity."""
        return _from_explored(self.alphabet, self._rows)

    def __repr__(self):
        return f"TransitionMonoid(order={self.order})"


def transition_monoid(x, cap=None):
    """The transition monoid of x, a Dfa or a RightCongruence: its letter
    transformations closed under composition, breadth-first in shortlex
    order so the recorded witnesses are least.  Up to 256 states f then a
    letter is f.translate(the letter's column padded to 256 bytes); above
    that, tuples compose through itemgetters.  Each element holds one cell
    per state, so ``cap`` bounds elements times max(states, 256) by ``cap``
    times 256: up to 256 states it caps the elements."""
    letters = list(zip(*x.delta))
    states = range(x.n)
    if len(states) <= 256:
        tables = [bytes(a).ljust(256, b"\0") for a in letters]
        start, step = bytes(states), lambda f: map(f.translate, tables)
    else:
        start, step = tuple(states), lambda f: map(itemgetter(*f), letters)
        if cap is not None:  # never 0: new elements number from 1, so 0 would never fire
            cap = max(1, cap * 256 // len(states))
    number, rows = _explore(start, step, cap, "transition monoid")
    return TransitionMonoid(x.alphabet, number, rows)


def _two_sided(rows):
    """Whether the congruence of ``rows`` (pointed at 0) refines its own
    action by every letter a: u ~ v implies au ~ av."""
    return all(_refines(rows, 0, rows, t) for t in rows[0])


def orbit_meet_check(rc, syn):
    """Fold the meet over the orbit of rc and compare it with syn, the
    syntactic congruence the caller computed through the transition monoid.
    Returns the meet and whether the two routes agree.  The fold needs no
    cap: each product's index is at most the transition monoid's order.

    The orbit's members are rc pointed at each state q.  If a meet theta of
    some of them has theta <= rc and theta <= theta * a for every letter a,
    then theta <= theta * w <= rc * w for every word w, so theta is below
    every member: it is the orbit meet.  rc itself is tested first.  Else
    the pending meets wait in a heap keyed by (index, creation order), each
    member keyed (n, q); the two smallest are replaced by their pointed
    product, numbered breadth-first from its root, which is already the
    canonical form.  A product that includes rc is tested while other meets
    are still pending, and the fold stops at the first that passes.
    """
    rows = rc.delta
    if not _two_sided(rows):
        pending = [(rc.n, q, rows, q, q == 0) for q in range(rc.n)]
        made = itertools.count(rc.n)
        while len(pending) > 1:
            _, _, rows1, s1, has_rc1 = heapq.heappop(pending)
            _, _, rows2, s2, has_rc2 = heapq.heappop(pending)
            rows = _product_rows(rows1, rows2, (s1, s2))
            has_rc = has_rc1 or has_rc2
            if has_rc and pending and _two_sided(rows):
                break
            heapq.heappush(pending, (len(rows), next(made), rows, 0, has_rc))
    meet = _from_explored(rc.alphabet, rows)
    return meet, meet == syn


def _sccs(delta):
    """Strongly connected components of the states reachable from 0, each a
    list, in the order Tarjan's algorithm completes them: a component comes
    after every component it reaches."""
    index = [-1] * len(delta)
    low = [0] * len(delta)
    on_stack = [False] * len(delta)
    stack, comps, todo = [], [], []
    visited = 0

    def enter(v):
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True
        todo.append((v, iter(delta[v])))

    enter(0)
    while todo:
        v, successors = todo[-1]
        for w in successors:
            if index[w] < 0:
                enter(w)
                break
            if on_stack[w] and index[w] < low[v]:
                low[v] = index[w]
        else:
            todo.pop()
            if todo and low[v] < low[todo[-1][0]]:
                low[todo[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = []
                while not comp or comp[-1] != v:
                    comp.append(stack.pop())
                    on_stack[comp[-1]] = False
                comps.append(comp)
    return comps


def state_classes(rc):
    """The pointed-isomorphism classes of the states' accessible futures:
    a class id per state, numbered by first occurrence.

    1. Label each state by its strongly connected component's size, its
       in-degree per letter from inside the component, and whether each
       letter stays in the component.  A pointed isomorphism of accessible
       parts preserves these labels, because the components of a
       successor-closed part are components of the whole system.
    2. Refine the labels with `_refine`.  Isomorphic futures are a stable
       partition refining the labels, so each block is a union of classes.
    3. Confirm: for each component, in completion order, try its least state
       r unless r is already merged with another state.  Step r in lockstep
       with every state q of its block not yet merged with r; if the pairs
       (r.w, q.w) form a bijection, merge every pair.  A pointed isomorphism
       is fixed by where its root goes, and all states of a component share
       one accessible part, so merging is closed under stepping and each
       component's states meet all their partners.  A merged r was paired
       with a state of a component completed earlier, which met all of r's
       partners already: completion order is what makes skipping r safe.
    4. Number the merged classes by first occurrence.
    """
    delta = rc.delta
    n = rc.n
    comp_of = [0] * n
    size = [0] * n
    comps = _sccs(delta)
    for c, comp in enumerate(comps):
        for s in comp:
            comp_of[s], size[s] = c, len(comp)
    indegree = [[0] * len(rc.alphabet) for _ in range(n)]
    for s, row in enumerate(delta):
        for a, t in enumerate(row):
            if comp_of[t] == comp_of[s]:
                indegree[t][a] += 1
    block = _refine(n, delta, [
        (size[s], tuple(indegree[s]), tuple(comp_of[t] == comp_of[s] for t in delta[s]))
        for s in range(n)])
    members = {}
    for s in range(n):
        members.setdefault(block[s], []).append(s)

    parent = list(range(n))

    def find(s):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    def lockstep(r, q):
        image, preimage = {r: q}, {q: r}
        todo = [r]
        while todo:
            x = todo.pop()
            for x2, y2 in zip(delta[x], delta[image[x]]):
                y = image.get(x2)
                if y is None:
                    if y2 in preimage:
                        return None
                    image[x2], preimage[y2] = y2, x2
                    todo.append(x2)
                elif y != y2:
                    return None
        return image

    merged = [False] * n
    for comp in comps:
        r = min(comp)
        if merged[r]:
            continue
        for q in members[block[r]]:
            if find(q) == find(r):
                continue
            image = lockstep(r, q)
            if image is not None:
                for x, y in image.items():
                    if x != y:
                        parent[find(x)] = find(y)
                        merged[x] = merged[y] = True
    ids = {}
    return [ids.setdefault(find(s), len(ids)) for s in range(n)]


def words_normalization_operator(rc):
    """xi_Xi on words: relates u, v iff rc * u = rc * v.

    States are grouped by the pointed-isomorphism class of their accessible
    futures (`state_classes`); the quotient transition structure is
    well-defined because pointed isomorphism commutes with stepping, and
    that is checked on every transition.  The result is always finite,
    witnessing that the image stays orbit-finite.
    """
    cls = state_classes(rc)
    rows = {}
    for q, row in enumerate(rc.delta):
        image = [cls[t] for t in row]
        if rows.setdefault(cls[q], image) != image:
            raise RuntimeError("state classes are not transition-compatible")
    return RightCongruence(rc.alphabet, [rows[c] for c in range(len(rows))])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def residual_count_by_words(tree, alphabet, prefix_bound, suffix_bound):
    """Number of distinct residuals L*u over prefixes |u| <= prefix_bound,
    where residuals are told apart on words |w| <= suffix_bound.

    uw is in L iff D_w(D_u) is nullable (Brzozowski), so the residual of u
    is fixed by D_u and each distinct D_u is signed once, by nullability
    along every suffix in shortlex order; each term is derived by each letter
    once.  With generous bounds this is the brute-force side of the
    minimal-state-count equality.
    """
    rows = {}  # term -> its derivative by each letter, in alphabet order

    def layer_after(layer):
        for term in set(layer) - rows.keys():
            rows[term] = [_derive(term, ch) for ch in alphabet]
        return [t for term in layer for t in rows[term]]

    reached, layer = {tree}, {tree}
    for _ in range(prefix_bound):
        layer = set(layer_after(layer))
        reached |= layer
    signatures = set()
    for term in reached:
        signature, layer = [term.nullable], [term]
        for _ in range(suffix_bound):
            layer = layer_after(layer)
            signature += (t.nullable for t in layer)
        signatures.add(tuple(signature))
    return len(signatures)


def residual_count_dfa(d):
    """Residual count of L(d): the blocks of Moore's coarsest partition that
    refines acceptance and is stable under every letter, by change
    propagation, sharing no code with the Hopcroft route `_refine`.  Each
    round splits blocks by signature, the blocks of a state's successors.
    Block ids stay stable, so only predecessors of states that changed block
    are re-signed, and only those whose signature moved leave their block,
    grouped by signature (a block all its members leave keeps its largest
    group).  Acceptance is the first split, of block 0."""
    n, delta = d.n, d.delta
    block = [int(s in d.accepting) for s in range(n)]
    size = [n - len(d.accepting), len(d.accepting)]
    preds = [[] for _ in range(n)]
    for s, row in enumerate(delta):
        for t in row:
            preds[t].append(s)
    changed = list(d.accepting)
    while changed:
        moved = {}
        for s in {p for t in changed for p in preds[t]}:
            signature = tuple(map(block.__getitem__, delta[s]))
            moved.setdefault(block[s], {}).setdefault(signature, []).append(s)
        changed = []
        for b, groups in moved.items():
            parts = list(groups.values())
            if sum(map(len, parts)) == size[b]:
                parts.remove(max(parts, key=len))
            for part in parts:
                size[b] -= len(part)
                for s in part:
                    block[s] = len(size)
                size.append(len(part))
                changed += part
    return len(set(block))


def _ball(start, successors, radius):
    """What start reaches in at most radius steps, by breadth-first layers."""
    seen, layer = {start}, [start]
    for _ in range(radius):
        layer = [t for t in dict.fromkeys(t for s in layer for t in successors(s))
                 if t not in seen]
        if not layer:
            break
        seen.update(layer)
    return seen


def syntactically_equivalent_bruteforce(d, u, v, bound=None):
    """Two-sided check: w u w' in L iff w v w' in L for all |w|, |w'| <= bound.

    The default bound n*n is far larger than needed.  The same quantifier is
    taken by breadth-first layers: over the states p some w reaches, the
    pairs some w' reaches from (p.u, p.v) must agree on acceptance."""
    bound = d.n * d.n if bound is None else bound
    delta, accepting = d.delta, d.accepting
    for p in _ball(0, delta.__getitem__, bound):
        start = (d.run(u, start=p), d.run(v, start=p))
        pairs = _ball(start, lambda xy: zip(delta[xy[0]], delta[xy[1]]), bound)
        if any((x in accepting) != (y in accepting) for x, y in pairs):
            return False
    return True


def find_pointed_isomorphism(a, b):
    """Backtracking search for a pointed isomorphism between two transition
    systems, independent of canonical numbering.

    Inputs are (delta_rows, initial) pairs over the same alphabet size.
    Returns the state mapping or None.
    """
    (da, ia), (db, ib) = a, b
    if len(da) != len(db) or (da and db and len(da[0]) != len(db[0])):
        return None
    k = len(da[0]) if da else 0
    count = len(da)

    def consistent(mapping):
        for s, t in mapping.items():
            for l in range(k):
                s2 = da[s][l]
                t2 = db[t][l]
                if s2 in mapping:
                    if mapping[s2] != t2:
                        return False
                elif t2 in mapping.values():
                    return False
        return True

    def backtrack(mapping, used):
        if len(mapping) == count:
            return dict(mapping)
        s = next(i for i in range(count) if i not in mapping)
        for t in range(count):
            if t in used:
                continue
            mapping[s] = t
            used.add(t)
            if consistent(mapping):
                found = backtrack(mapping, used)
                if found is not None:
                    return found
            del mapping[s]
            used.remove(t)
        return None

    start = {ia: ib}
    if not consistent(start):
        return None
    return backtrack(start, {ib})


# ---------------------------------------------------------------------------
# random fixtures
# ---------------------------------------------------------------------------

def random_min_dfa(rng, max_states=6, alphabet="ab"):
    """A random minimal complete DFA with at most max_states states."""
    symbols = _check_alphabet(alphabet)
    count = rng.randint(1, max_states)
    delta = [[rng.randrange(count) for _ in symbols] for _ in range(count)]
    accepting = {s for s in range(count) if rng.random() < 0.5}
    return minimize(Dfa(symbols, count, 0, accepting, delta))
