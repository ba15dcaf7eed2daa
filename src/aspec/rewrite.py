"""Noncommutative rewriting: normal forms of words modulo a two-sided ideal.

One engine serves quiver paths, commutative monomials (`polyquot`: the
commutator rule x.y -> y.x beside the relations) and hull words.  Words
are tuples of letter indices under the degree-lexicographic order.  A
rule replaces its lead word by a tail of words further from the lead
end; once every overlap and inclusion ambiguity is resolved (Bergman's
diamond lemma, Adv. Math. 1978), the normal form is unique and the
irreducible words are a basis of the quotient.

The one parameter is the truncation order:

- `order=None` (quivers and polynomial quotients): the highest word
  leads each rule and words are never cut, and `basis_words` decides
  finiteness from the leads;
- `order=N` (hulls, the adic convention): the lowest word leads each
  rule and words longer than N are zero.  Lowest leads terminate only
  under a truncation, and the truncation is compatible with them: if
  u.lead.v is longer than N, so is every u.tail.v.

Once the rules are complete, k<X>/(leads) has the same irreducible
words, so `basis_words` reads finiteness off the leads: the quotient is
finite exactly when their Ufnarovski graph has no cycle (Ufnarovski,
Math. Notes 1982).  Its work is bounded by REWRITE_BUDGET, and the
words it lists by BASIS_BUDGET.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from math import inf

from .errors import InfiniteDimensionalError, InputError


# words longer than this are reduced through their halves
SPLIT = 128

# work units `basis_words` may spend: per term a reduction pushes, one
# plus one per 64 bits of numerator and denominator plus the square of
# their 1024-bit blocks (gcds cost the square); per overlap position
# tried, one plus one per 64 letters; per word listed, one a letter
REWRITE_BUDGET = 2_000_000

# basis elements a quotient may have, its vertices' trivial paths and
# its irreducible words; sized for dense tables of dim^3 entries.  With
# the sparse `Algebra.products`, building k[x,y]/(x^16, y^16) over F5
# (dim 256) peaks at 30 MB resident and k[x,y]/(x^20, y^20) (dim 400)
# at 53 MB, against 165 MB and 559 MB dense (2-CPU x86-64, CPython
# 3.11, one build in a fresh interpreter, imports 17 MB)
BASIS_BUDGET = 256


def deglex(word):
    return (len(word), word)


def _highest_first(word):
    return (-len(word), tuple(-g for g in word))


class Rewriter:
    """Rules keyed by lead word, completed up to a length."""

    def __init__(self, field, order=None):
        self.field = field
        self.order = order
        self.rules = {}           # lead word -> tail {word: coeff}
        self._lengths = set()     # lengths of the leads
        self._done = set()        # ambiguities already resolved
        self._degree = 0          # degree of the last completion
        self._fresh = set()       # leads added since it
        self.budget = None        # work left, while basis_words runs
        # heap key: the lead end of the order comes first
        self._key = _highest_first if order is None else deglex

    def find(self, word):
        """(lead, position) of a rule lead inside word, or None."""
        for n in self._lengths:
            for pos in range(len(word) - n + 1):
                if word[pos:pos + n] in self.rules:
                    return word[pos:pos + n], pos
        return None

    def reduce(self, poly):
        """Normal form of {word: coeff}.  One pass from the lead end: a
        rewrite only moves words away from it, so each word is visited
        once.  A word longer than SPLIT is rewritten as the product of
        its halves' normal forms when either half reduces: x^100000 by
        x^2 -> x then takes 17 halvings, not 99999 rewrites of a long
        word."""
        return self._reduce(poly, {})

    def _reduce(self, poly, halves):
        """reduce, with the normal forms of the halves met so far."""
        f = self.field

        def half(word):
            if word not in halves:
                halves[word] = self._reduce({word: f.one}, halves)
            return halves[word]

        pending = {}
        heap = []

        def push(word, c):
            if self.order is not None and len(word) > self.order:
                return
            if self.budget is not None:
                bits = c.bit_length() if type(c) is int else \
                    c.numerator.bit_length() + c.denominator.bit_length()
                self._spend(1 + bits // 64 + (bits // 1024) ** 2)
            if word in pending:
                pending[word] = f.add(pending[word], c)
            else:
                pending[word] = c
                heappush(heap, (self._key(word), word))

        for w, c in poly.items():
            push(w, c)
        out = {}
        while heap:
            w = heappop(heap)[1]
            c = pending.pop(w)
            if f.is_zero(c):
                continue
            hit = self.find(w)
            if hit is None:
                out[w] = c
                continue
            if len(w) > SPLIT:
                h = len(w) // 2
                left, right = half(w[:h]), half(w[h:])
                if left != {w[:h]: f.one} or right != {w[h:]: f.one}:
                    # every product is below w, as a reduced half is
                    for a, ca in left.items():
                        for b, cb in right.items():
                            push(a + b, f.mul(c, f.mul(ca, cb)))
                    continue
            lead, pos = hit
            u, v = w[:pos], w[pos + len(lead):]
            for t, tc in self.rules[lead].items():
                push(u + t + v, f.mul(c, tc))
        return out

    def add_relation(self, poly):
        """Reduce poly and, unless it vanishes, make it a rule; returns
        the new lead word or None."""
        poly = self.reduce(poly)
        if not poly:
            return None
        f = self.field
        lead = min(poly, key=self._key)
        inv = f.neg(f.inv(poly[lead]))
        self.rules[lead] = {w: f.mul(inv, c) for w, c in poly.items()
                            if w != lead}
        self._lengths.add(len(lead))
        self._fresh.add(lead)
        return lead

    def complete(self, degree=None):
        """Resolve every ambiguity of length at most degree (by default
        the truncation order), adding the rules that takes.  Of two
        leads that the last completion met, only the ambiguities longer
        than its degree are new."""
        degree = self.order if degree is None else degree
        f = self.field
        leads = list(self.rules)
        pending = deque()
        for k, a in enumerate(leads):
            for b in leads[:k + 1]:
                met = a not in self._fresh and b not in self._fresh
                pending.extend(self._overlaps(
                    a, b, self._degree if met else 0, degree))
        while pending:
            amb = pending.popleft()
            if amb in self._done:
                continue
            self._done.add(amb)
            # the difference of its two one-step rewrites
            word, x, px, y, py = amb
            diff = self._rewrite(word, x, px)
            for w, c in self._rewrite(word, y, py).items():
                diff[w] = f.sub(diff.get(w, f.zero), c)
            lead = self.add_relation(diff)
            if lead is not None:
                for b in list(self.rules):
                    pending.extend(self._overlaps(lead, b, 0, degree))
        self._fresh.clear()
        self._degree = degree

    def _spend(self, units):
        """Take work units off the budget, if one is set."""
        if self.budget is not None:
            self.budget -= units
            if self.budget < 0:
                raise InfiniteDimensionalError(
                    "quotient not shown finite-dimensional within the "
                    f"rewriting budget of {REWRITE_BUDGET} steps")

    def _overlaps(self, a, b, above, upto):
        """Every overlap or inclusion (word, x, px, y, py) of the leads a
        and b longer than above and at most upto letters, lazily: word
        has the lead x at px and y at py."""
        for x, y in ((a, b),) if a == b else ((a, b), (b, a)):
            # an overlap of k letters is len(x) + len(y) - k long: only
            # the ones within the lengths are tried
            n = len(x) + len(y)
            for k in range(max(1, n - upto), min(len(x), len(y), n - above)):
                self._spend(1 + k // 64)
                if x[-k:] == y[:k]:
                    yield (x + y[k:], x, 0, y, len(x) - k)
            if len(y) < len(x) and above < len(x) <= upto:
                for pos in range(len(x) - len(y) + 1):
                    self._spend(1 + len(y) // 64)
                    if x[pos:pos + len(y)] == y:
                        yield (x, x, 0, y, pos)

    def _rewrite(self, word, lead, pos):
        u, v = word[:pos], word[pos + len(lead):]
        return {u + t + v: c for t, c in self.rules[lead].items()}

    def _settle_long_leads(self, degree):
        """Reduce each rule whose lead is longer than degree by the other
        rules and put it back.  complete(degree) never meets such a lead,
        yet shorter rules may reduce it: x^2 -> 0 turns x^70 -> -x into
        x -> 0.  Returns whether a rule with a lead within degree came of
        it, whose ambiguities are then still to resolve."""
        f = self.field
        fresh = False
        for lead in [w for w in self.rules if len(w) > degree]:
            poly = {w: f.neg(c) for w, c in self.rules.pop(lead).items()}
            poly[lead] = f.one
            new = self.add_relation(poly)
            fresh = fresh or (new is not None and len(new) <= degree)
        self._lengths = {len(w) for w in self.rules}
        return fresh

    def irreducible_words(self, letters, upto, budget):
        """Irreducible composable words in the letters (name, source,
        target), grown layer by layer.  Returns [(candidates, irreducible)]
        for the lengths 1, 2, ..., up to upto and the first empty layer,
        each list sorted.  The candidates are the irreducible words one
        letter shorter, extended: a factor of an irreducible word is
        irreducible.  With a budget, returns None instead of listing a
        layer whose candidates would take the words past it."""
        layers = list(self._layers(letters, upto, budget))
        return None if layers[-1] is None else layers

    def _layers(self, letters, upto, budget):
        """The layers of irreducible_words one by one, and None in place
        of one past the budget.  Each candidate takes a unit a letter of
        the work budget, if one is set."""
        follows = [[g for g, a in enumerate(letters) if a[1] == target]
                   for _, _, target in letters]
        words = 0
        candidates = [(g,) for g in range(len(letters))]
        for length in count(2):
            good = [w for w in candidates if self.find(w) is None]
            yield candidates, good
            if not good or length > upto:
                return
            words += len(good)
            grown = sum(len(follows[w[-1]]) for w in good)
            self._spend(grown * length)
            if budget is not None and words + grown > budget:
                yield None
                return
            candidates = [w + (g,) for w in good for g in follows[w[-1]]]

    def basis_words(self, letters, max_degree, vertices):
        """The irreducible words in the letters by length [length 1, ...,
        L], of a quotient whose basis holds them and the trivial paths of
        its vertices.  Completes degree by degree, from the longest
        overlap of the longest lead (clipped to max_degree), until no
        overlap or inclusion of the leads is unresolved, which leads
        within max_degree are by 2 max_degree - 1.  Returns None when words of
        length max_degree remain, as they do when a lead longer than
        max_degree is left from max_degree on (its factors).  Raises
        InfiniteDimensionalError when the Ufnarovski graph has a cycle (a
        word whose powers never reduce), and when the work passes
        REWRITE_BUDGET; raises InputError when the words and the
        vertices pass BASIS_BUDGET, once the cycle is looked for."""
        self.budget = REWRITE_BUDGET
        degree = min(2 * max([1] + [len(w) for w in self.rules]) - 1,
                     max_degree)
        try:
            while True:
                self.complete(degree)
                while self._settle_long_leads(degree):
                    self.complete(degree)
                leads = list(self.rules)
                if degree >= max_degree and \
                        max(map(len, leads), default=0) > max_degree:
                    return None
                # the ambiguities left are the ones longer than degree
                if not any(True for k, a in enumerate(leads)
                           for b in leads[:k + 1]
                           for _ in self._overlaps(a, b, degree, inf)):
                    break
                degree += 1
            # the graph's vertices are the irreducible words of length n,
            # one less than the longest lead, with an edge u -> v per
            # irreducible word u.y = x.v
            n = max([2] + [len(w) for w in self.rules]) - 1
            words = []
            size = vertices
            for _, good in self._layers(letters, max_degree, None):
                words.append(good)
                size += len(good)
                cycle = len(words) == n + 1 and _cycle(good)
                if cycle:
                    word = ".".join(letters[v[-1]][0] for v in cycle)
                    raise InfiniteDimensionalError(
                        f"quotient is infinite-dimensional: {word} has "
                        "unbounded powers")
                if size > BASIS_BUDGET and (len(words) > n or not good):
                    raise InputError("quotient needs more basis words than "
                                     f"the budget of {BASIS_BUDGET}")
            return None if words[-1] else words[:-1]
        finally:
            self.budget = None

    def structure_constants(self, letters, vertices, words):
        """`Algebra.products` on the trivial paths of the vertices, then
        the irreducible `words` in the letters (name, source, target),
        each after its prefix.  Each basis element times each letter g is
        reduced once, into R_g (right multiplication by g); a prefix of
        an irreducible word is irreducible, so b_i b_{w'g} = (b_i b_{w'})
        R_g fills each row in word order, with b_i b_{w'} read as b_i for
        w' empty (Bergman 1978; Green 1999).  The empty word, which only
        the rules of a one-vertex quotient leave (x -> a), is its trivial
        path: relations in the square of the arrow ideal never do."""
        f = self.field
        nv = len(vertices)
        vertex = {v: i for i, v in enumerate(vertices)}
        index = {(): 0, **{w: i for i, w in enumerate(words, nv)}}
        ends = list(range(nv)) + [vertex[letters[w[-1]][2]] for w in words]
        right = [[sorted((index[w], c) for w, c in
                         self.reduce({u + (g,): f.one}).items())
                  if ends[i] == vertex[source] else []
                  for i, u in enumerate([()] * nv + words)]
                 for g, (_, source, _) in enumerate(letters)]
        products = []
        for i, end in enumerate(ends):
            row = [[] for _ in ends]
            row[end] = [(i, f.one)]
            for j, w in enumerate(words, nv):
                acc = {}
                for k, c in row[index[w[:-1]]] if len(w) > 1 else row[end]:
                    for m, t in right[w[-1]][k]:
                        acc[m] = f.add(acc.get(m, f.zero), f.mul(c, t))
                row[j] = sorted((m, c) for m, c in acc.items() if c)
            products.append(row)
        return products


def _cycle(words):
    """A cycle of the graph with an edge u -> v per word u.y = x.v, as its
    vertices, or None.  Vertices without a successor are dropped until
    none is; a walk from the highest left (a commutative quotient's first
    variable first) then closes a cycle."""
    edges = {}
    for w in words:
        edges.setdefault(w[:-1], []).append(w[1:])
    live = set(edges)
    while True:
        dead = {v for v in live if not any(u in live for u in edges[v])}
        if not dead:
            break
        live -= dead
    if not live:
        return None
    walk, v = [], max(live)
    while v not in walk:
        walk.append(v)
        v = next(u for u in edges[v] if u in live)
    return walk[walk.index(v):]
