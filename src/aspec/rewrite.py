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
  leads each rule and words are never cut, and `basis_words` certifies
  a finite basis;
- `order=N` (hulls, the adic convention): the lowest word leads each
  rule and words longer than N are zero.  Lowest leads terminate only
  under a truncation, and the truncation is compatible with them: if
  u.lead.v is longer than N, so is every u.tail.v.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush


# words longer than this are reduced through their halves
SPLIT = 128


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
        return lead

    def complete(self, degree=None):
        """Resolve every ambiguity of length at most degree (by default
        the truncation order), adding the rules that takes."""
        degree = self.order if degree is None else degree
        leads = list(self.rules)
        pending = deque()
        for k, a in enumerate(leads):
            for b in leads[:k + 1]:
                pending.extend(self._ambiguities(a, b, degree))
        while pending:
            lead = self.add_relation(pending.popleft())
            if lead is not None:
                for b in list(self.rules):
                    pending.extend(self._ambiguities(lead, b, degree))

    def _ambiguities(self, a, b, degree):
        """Differences of the two one-step rewrites of every unresolved
        overlap or inclusion of the leads a and b up to degree."""
        found = []
        for x, y in ((a, b), (b, a)):
            # an overlap of k letters is len(x) + len(y) - k long: only
            # the ones within degree are built
            for k in range(max(1, len(x) + len(y) - degree),
                           min(len(x), len(y))):
                if x[-k:] == y[:k]:
                    found.append((x + y[k:], x, 0, y, len(x) - k))
            if len(y) < len(x) <= degree:
                for pos in range(len(x) - len(y) + 1):
                    if x[pos:pos + len(y)] == y:
                        found.append((x, x, 0, y, pos))
        f = self.field
        out = []
        for amb in found:
            if amb in self._done:
                continue
            self._done.add(amb)
            word, x, px, y, py = amb
            diff = self._rewrite(word, x, px)
            for w, c in self._rewrite(word, y, py).items():
                diff[w] = f.sub(diff.get(w, f.zero), c)
            out.append(diff)
        return out

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

    def irreducible_words(self, letters, upto, budget=None):
        """Irreducible composable words in the letters (name, source,
        target), grown layer by layer.  Returns [(candidates, irreducible)]
        for the lengths 1, 2, ..., up to upto and the first empty layer,
        each list sorted.  The candidates are the irreducible words one
        letter shorter, extended: a factor of an irreducible word is
        irreducible.  With a budget, returns None instead of listing a
        layer whose candidates would take the words past it."""
        follows = [[g for g, a in enumerate(letters) if a[1] == target]
                   for _, _, target in letters]
        layers = []
        words = 0
        candidates = [(g,) for g in range(len(letters))]
        while True:
            good = [w for w in candidates if self.find(w) is None]
            layers.append((candidates, good))
            words += len(good)
            if not good or len(layers) >= upto:
                return layers
            if budget is not None and words + sum(
                    len(follows[w[-1]]) for w in good) > budget:
                return None
            candidates = [w + (g,) for w in good for g in follows[w[-1]]]

    def basis_words(self, letters, max_degree):
        """Complete until the irreducible words in the letters die out at
        some length L, with every ambiguity up to 2(L - 1) resolved, so
        that the normal forms of products of two of them are certified.
        Returns the irreducible words by length [length 1, ..., L - 1],
        or None when words of length max_degree remain.  The first
        completion degree is clipped to max_degree, and it doubles up to
        max_degree while words persist.  A rule whose lead is longer than
        the degree is reduced by the others after each completion: once
        the words die out, the shorter rules reduce every such lead."""
        degree = min(max_degree, max([4] + [2 * len(w) for w in self.rules]))
        while True:
            self.complete(degree)
            while self._settle_long_leads(degree):
                self.complete(degree)
            words = [good for _, good in
                     self.irreducible_words(letters, degree)]
            if words[-1]:
                if degree >= max_degree:
                    return None
                degree = min(max_degree, degree * 2)
                continue
            needed = 2 * max(len(words) - 1, 1)
            if needed <= degree:
                return words[:-1]
            degree = needed
