"""Whole-mask kernels on team sets, most of them on downward-closed ones.

A team is an int bitmask over valuation indices, and a team set is an int
bitmask over team indices: bit t says whether team t belongs to it.  A
downward-closed team set is fixed by its maximal teams, so or_plus and
exists_plus walk that antichain and handle each maximal team with
O(count) big-int operations on whole masks, instead of visiting the
2**count teams one at a time.  exists_minus takes any team set: it reads
a table of the teams that each union of lines varies to.  Two facts carry
them:

- Adding valuation i to a team that lacks it adds 2**i to the team's index.
  So (F & HI[i]) >> 2**i, where HI[i] holds the teams that contain i, is
  the set of teams that a team of F loses when i is dropped from it.
- For team sets A and B whose teams use disjoint sets of valuations,
  {a | b : a in A, b in B} is the plain integer product A * B: every a + b
  equals a | b and determines a and b, so no two terms carry into the
  same bit.

exists_plus reads a maximal team's variations through `Space.preimages`,
the whole-mask primitive the game search uses too.
"""

from .model import bits, powerset


def _hi_mask(i, nbits):
    """The teams (out of nbits team indices) that contain valuation i."""
    step = 1 << i
    mask = ((1 << step) - 1) << step
    width = step << 1
    while width < nbits:
        mask |= mask << width
        width <<= 1
    return mask


class Downsets:
    """The kernels over the team sets of one valuation space.

    The operands of maximal, or_plus and exists_plus must be downward
    closed (the empty team set counts as one); is_downset tells.
    exists_minus takes any team set.
    """

    def __init__(self, space):
        self.space = space
        self._hi = None      # HI[i] for each valuation i, built on first use
        # an algebra's closure meets each team set many times
        self._downset = {}   # team set -> is_downset
        self._dropped = {}   # team set -> _drop(team set)
        self._maximal = {}   # team set -> maximal teams
        self._parts = {}     # (J, team set) -> class-wise powersets
        self._cylinder = {}  # n -> exists_minus table, built on first use

    def _hi_masks(self):
        if self._hi is None:
            count = self.space.count
            self._hi = [_hi_mask(i, 1 << count) for i in range(count)]
        return self._hi

    def _drop(self, family):
        """Teams that become a team of family when one valuation is added."""
        out = self._dropped.get(family)
        if out is None:
            out = 0
            for i, hi in enumerate(self._hi_masks()):
                out |= (family & hi) >> (1 << i)
            self._dropped[family] = out
        return out

    def is_downset(self, family):
        """True when every subset of a team of family is in family."""
        known = self._downset.get(family)
        if known is None:
            known = not self._drop(family) & ~family
            self._downset[family] = known
        return known

    def maximal(self, family):
        """Maximal teams of a downward-closed team set, ascending."""
        out = self._maximal.get(family)
        if out is None:
            out = bits(family & ~self._drop(family))
            self._maximal[family] = out
        return out

    def _class_parts(self, jset, family):
        """For each maximal team, the powersets of its parts in ~J classes."""
        key = (jset, family)
        out = self._parts.get(key)
        if out is None:
            classes, _ = self.space.classes(jset)
            out = [[powerset(team & c) for c in classes]
                   for team in self.maximal(family)]
            self._parts[key] = out
        return out

    # -- the operators -----------------------------------------------------------

    def or_plus(self, jset, left, right):
        """{a | b : a in left, b in right, no ~J class meets both a and b}."""
        rparts = self._class_parts(jset, right)
        out = 0
        for lp in self._class_parts(jset, left):
            for rp in rparts:
                product = 1
                for x, y in zip(lp, rp):
                    product *= x | y
                out |= product
        return out

    def exists_plus(self, n, jset, child):
        """Teams V with a function V ->_J A whose n-variant of V is in child.

        Per maximal team W of child, V qualifies when each ~J class c of V
        fits in the preimage of W under one value b: the team set
        prod_c (union_b powerset(pre_b(W) & c)).
        """
        classes, _ = self.space.classes(jset)
        out = 0
        for w in self.maximal(child):
            pres = set(self.space.preimages(w, n))
            product = 1
            for c in classes:
                part = 0
                for pre in pres:
                    part |= powerset(pre & c)
                product *= part
            out |= product
        return out

    def exists_minus(self, n, child):
        """Teams V whose variation over every value of variable n is in child.

        Any team set.  Variation maps V to the union C of the n-lines (the
        ~{n} classes) that V meets.  The V with V[n/A] = C take a nonempty
        part of each line of C and nothing else: the disjoint-support
        product of powerset(line) - 1 over those lines.  A table of (C, its
        V) is built once per n, and the answer is the OR of the entries
        whose C is in child.
        """
        table = self._cylinder.get(n)
        if table is None:
            lines, _ = self.space.classes((n,))
            table = [(0, 1)]
            for line in lines:
                table += [(union | line, teams * (powerset(line) - 1))
                          for union, teams in table]
            self._cylinder[n] = table
        out = 0
        for union, teams in table:
            if child >> union & 1:
                out |= teams
        return out
