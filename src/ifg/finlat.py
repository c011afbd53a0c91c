"""Finite bounded lattices with negation and quantifiers, and the bridge
from monadic Kleene algebras into one-dimensional team algebras.

Carriers are ranges 0..n-1 with explicit operation tables.  The module
provides quantifier axiom checks (Q1-Q5), classification of quantifiers into
types 0/1/2, congruence lattices for small carriers, variety membership
markers, and the embedding of a monadic Kleene algebra with a type 1
quantifier and irreducible bounds into the rooted one-dimensional algebra
over its prime filters.
"""

import itertools

from .errors import IfgError, ParseError, GuardExceeded
from . import algebra

CONGRUENCE_CARRIER_LIMIT = 12


class FinAlgebra:
    """A finite bounded lattice, optionally with negation and a quantifier."""

    def __init__(self, size, bottom, top, join, meet, neg=None, nabla=None,
                 validate=True):
        self.size = size
        self.bottom = bottom
        self.top = top
        self.join = tuple(tuple(row) for row in join)
        self.meet = tuple(tuple(row) for row in meet)
        self.neg = tuple(neg) if neg is not None else None
        self.nabla = tuple(nabla) if nabla is not None else None
        if validate:
            self._validate()

    def _validate(self):
        n = self.size
        rng = range(n)
        if n < 1 or self.bottom not in rng or self.top not in rng:
            raise IfgError("bad carrier or bounds")
        for table in (self.join, self.meet):
            if len(table) != n or any(len(row) != n for row in table):
                raise IfgError("operation table has wrong shape")
            if any(v not in rng for row in table for v in row):
                raise IfgError("operation table value out of range")
        for x in rng:
            if (self.join[x][self.bottom] != x or self.meet[x][self.top] != x
                    or self.join[x][x] != x or self.meet[x][x] != x):
                raise IfgError("bound or idempotence law fails")
            for y in rng:
                if self.join[x][y] != self.join[y][x]:
                    raise IfgError("join is not commutative")
                if self.meet[x][y] != self.meet[y][x]:
                    raise IfgError("meet is not commutative")
                if (self.join[x][self.meet[x][y]] != x
                        or self.meet[x][self.join[x][y]] != x):
                    raise IfgError("absorption fails")
                for z in rng:
                    if self.join[self.join[x][y]][z] != self.join[x][self.join[y][z]]:
                        raise IfgError("join is not associative")
                    if self.meet[self.meet[x][y]][z] != self.meet[x][self.meet[y][z]]:
                        raise IfgError("meet is not associative")
                    if (self.meet[x][self.join[y][z]]
                            != self.join[self.meet[x][y]][self.meet[x][z]]):
                        raise IfgError("lattice is not distributive")
        if self.neg is not None:
            if len(self.neg) != n or any(v not in rng for v in self.neg):
                raise IfgError("negation table has wrong shape")
            for x in rng:
                if self.neg[self.neg[x]] != x:
                    raise IfgError("negation is not an involution")
                for y in rng:
                    if self.neg[self.join[x][y]] != self.meet[self.neg[x]][self.neg[y]]:
                        raise IfgError("negation does not satisfy De Morgan")
        if self.nabla is not None:
            if len(self.nabla) != n or any(v not in rng for v in self.nabla):
                raise IfgError("quantifier table has wrong shape")

    # -- order and structure ---------------------------------------------------

    def leq(self, x, y):
        return self.join[x][y] == y

    def is_distributive(self):
        rng = range(self.size)
        return all(self.meet[x][self.join[y][z]]
                   == self.join[self.meet[x][y]][self.meet[x][z]]
                   for x in rng for y in rng for z in rng)

    def fixed_points(self):
        if self.neg is None:
            return []
        return [x for x in range(self.size) if self.neg[x] == x]

    def is_join_irreducible(self, e):
        rng = range(self.size)
        return all(self.join[x][y] != e or x == e or y == e
                   for x in rng for y in rng)

    def is_meet_irreducible(self, e):
        rng = range(self.size)
        return all(self.meet[x][y] != e or x == e or y == e
                   for x in rng for y in rng)

    # -- file format -----------------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Parse the line-oriented finite-algebra format.

        carrier n / bottom i / top j, then sections "join:", "meet:" with n
        rows each, and optional "neg:" and "nabla:" with one row each.
        """
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        fields = {}
        i = 0
        try:
            while i < len(lines) and not lines[i].endswith(":"):
                head, value = lines[i].split()
                fields[head] = int(value)
                i += 1
            size = fields["carrier"]
            sections = {}
            while i < len(lines):
                name = lines[i][:-1]
                i += 1
                rows = 1 if name in ("neg", "nabla") else size
                table = []
                for _ in range(rows):
                    table.append([int(v) for v in lines[i].split()])
                    i += 1
                sections[name] = table
            return cls(size, fields["bottom"], fields["top"],
                       sections["join"], sections["meet"],
                       neg=sections.get("neg", [None])[0],
                       nabla=sections.get("nabla", [None])[0])
        except (KeyError, ValueError, IndexError) as exc:
            raise ParseError("bad finite-algebra file: %s" % exc)

    @classmethod
    def from_file(cls, path):
        with open(path) as handle:
            return cls.parse(handle.read())

    def render(self):
        lines = ["carrier %d" % self.size, "bottom %d" % self.bottom,
                 "top %d" % self.top, "join:"]
        lines += [" ".join(str(v) for v in row) for row in self.join]
        lines.append("meet:")
        lines += [" ".join(str(v) for v in row) for row in self.meet]
        if self.neg is not None:
            lines.append("neg:")
            lines.append(" ".join(str(v) for v in self.neg))
        if self.nabla is not None:
            lines.append("nabla:")
            lines.append(" ".join(str(v) for v in self.nabla))
        return "\n".join(lines)

    def with_nabla(self, nabla):
        return FinAlgebra(self.size, self.bottom, self.top, self.join,
                          self.meet, self.neg, nabla)


def lattice_from_leq(size, leq):
    """Build join and meet tables from a partial order predicate."""
    join = [[None] * size for _ in range(size)]
    meet = [[None] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            uppers = [z for z in range(size) if leq(x, z) and leq(y, z)]
            least = [z for z in uppers if all(leq(z, w) for w in uppers)]
            lowers = [z for z in range(size) if leq(z, x) and leq(z, y)]
            greatest = [z for z in lowers if all(leq(w, z) for w in lowers)]
            if len(least) != 1 or len(greatest) != 1:
                raise IfgError("order is not a lattice")
            join[x][y] = least[0]
            meet[x][y] = greatest[0]
    return join, meet


def product(a, b):
    """Direct product; returns (algebra, list of (x, y) pairs by index)."""
    pairs = [(x, y) for x in range(a.size) for y in range(b.size)]
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    join = [[index[(a.join[p[0]][q[0]], b.join[p[1]][q[1]])] for q in pairs]
            for p in pairs]
    meet = [[index[(a.meet[p[0]][q[0]], b.meet[p[1]][q[1]])] for q in pairs]
            for p in pairs]
    neg = None
    if a.neg is not None and b.neg is not None:
        neg = [index[(a.neg[p[0]], b.neg[p[1]])] for p in pairs]
    alg = FinAlgebra(n, index[(a.bottom, b.bottom)], index[(a.top, b.top)],
                     join, meet, neg)
    return alg, pairs


def subalgebra(alg, subset):
    """Restrict to a closed subset; returns (algebra, old-index list)."""
    old = sorted(subset)
    index = {x: i for i, x in enumerate(old)}
    for x in old:
        for y in old:
            if alg.join[x][y] not in index or alg.meet[x][y] not in index:
                raise IfgError("subset is not closed under the operations")
        if alg.neg is not None and alg.neg[x] not in index:
            raise IfgError("subset is not closed under negation")
    join = [[index[alg.join[x][y]] for y in old] for x in old]
    meet = [[index[alg.meet[x][y]] for y in old] for x in old]
    neg = [index[alg.neg[x]] for x in old] if alg.neg is not None else None
    if alg.bottom not in index or alg.top not in index:
        raise IfgError("subset must contain the bounds")
    sub = FinAlgebra(len(old), index[alg.bottom], index[alg.top],
                     join, meet, neg)
    return sub, old


# ---------------------------------------------------------------------------
# Named algebras


def _chain(n, neg=True):
    join = [[max(x, y) for y in range(n)] for x in range(n)]
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    return FinAlgebra(n, 0, n - 1, join, meet,
                      [n - 1 - x for x in range(n)] if neg else None)


def _diamond():
    # 0 < a=1, b=2 < 1=3, with a and b fixed by negation
    def leq(x, y):
        return x == y or x == 0 or y == 3
    join, meet = lattice_from_leq(4, leq)
    return FinAlgebra(4, 0, 3, join, meet, [3, 1, 2, 0])


def named_algebra(name):
    """Well-known small monadic De Morgan algebras by name."""
    if name == "B":
        return _chain(2)
    if name == "K":
        return _chain(3)
    if name == "M":
        return _diamond()
    if name == "K_nabla0":
        return _chain(3).with_nabla([0, 2, 2])
    if name == "K_nabla1":
        return _chain(3).with_nabla([0, 1, 2])
    if name == "M_nabla0":
        return _diamond().with_nabla([0, 3, 3, 3])
    if name == "M_nabla2":
        return _diamond().with_nabla([0, 1, 2, 3])
    if name == "SixKxM":
        # subalgebra of K x M: (0,0) < (a,0) < (a,b),(a,c) < (a,1) < (1,1),
        # with a type 1 quantifier centered at (a,b)
        prod, pairs = product(_chain(3), _diamond())
        keep = [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)]
        sub, old = subalgebra(prod, [pairs.index(p) for p in keep])
        center = old.index(pairs.index((1, 1)))
        return sub.with_nabla(type1_table(sub, center))
    if name == "NineMxM":
        # 9-element subalgebra of M x M with a type 2 quantifier whose range
        # comes from the fixed points (a,a) and (b,b)
        prod, pairs = product(_diamond(), _diamond())
        keep = [(0, 0), (1, 0), (0, 2), (1, 1), (1, 2), (2, 2),
                (1, 3), (3, 2), (3, 3)]
        sub, old = subalgebra(prod, [pairs.index(p) for p in keep])
        a = old.index(pairs.index((1, 1)))
        b = old.index(pairs.index((2, 2)))
        return sub.with_nabla(type2_table(sub, a, b))
    raise IfgError("unknown algebra name %r" % name)


def type0_table(alg):
    return [alg.bottom if x == alg.bottom else alg.top
            for x in range(alg.size)]


def type1_table(alg, center):
    out = []
    for x in range(alg.size):
        if x == alg.bottom:
            out.append(alg.bottom)
        elif alg.leq(x, center):
            out.append(center)
        else:
            out.append(alg.top)
    return out


def type2_table(alg, a, b):
    out = []
    for x in range(alg.size):
        if x == alg.bottom:
            out.append(alg.bottom)
        elif alg.leq(x, a):
            out.append(a)
        elif alg.leq(x, b):
            out.append(b)
        else:
            out.append(alg.top)
    return out


# ---------------------------------------------------------------------------
# Quantifier axioms and classification


def check_quantifier(alg):
    """Names of the quantifier axioms the nabla table violates."""
    if alg.nabla is None:
        raise IfgError("algebra has no quantifier table")
    nabla, join, meet = alg.nabla, alg.join, alg.meet
    rng = range(alg.size)
    failed = []
    if nabla[alg.bottom] != alg.bottom:
        failed.append("Q1")
    if any(join[x][nabla[x]] != nabla[x] for x in rng):
        failed.append("Q2")
    if any(nabla[join[x][y]] != join[nabla[x]][nabla[y]]
           for x in rng for y in rng):
        failed.append("Q3")
    if any(nabla[meet[x][nabla[y]]] != meet[nabla[x]][nabla[y]]
           for x in rng for y in rng):
        failed.append("Q4")
    if alg.neg is not None:
        if any(nabla[alg.neg[nabla[x]]] != alg.neg[nabla[x]] for x in rng):
            failed.append("Q5")
    return failed


def quantifier_facts(alg):
    """Derived quantifier facts: nabla 1 = 1, idempotence, closed range."""
    nabla = alg.nabla
    rng = range(alg.size)
    image = sorted({nabla[x] for x in rng})
    closed = (alg.bottom in image and alg.top in image
              and all(alg.join[x][y] in image and alg.meet[x][y] in image
                      for x in image for y in image))
    if alg.neg is not None:
        closed = closed and all(alg.neg[x] in image for x in image)
    return {
        "top_fixed": nabla[alg.top] == alg.top,
        "idempotent": all(nabla[nabla[x]] == nabla[x] for x in rng),
        "range_closed": closed,
        "range": image,
    }


def classify_quantifier_type(alg):
    """(kind, data): ("type0", None), ("type1", center), ("type2", (a, b)),
    or (None, None) when the table matches no type."""
    if alg.nabla is None:
        raise IfgError("algebra has no quantifier table")
    nabla = list(alg.nabla)
    if nabla == type0_table(alg):
        return "type0", None
    for c in alg.fixed_points():
        if nabla == type1_table(alg, c):
            return "type1", c
    for a, b in itertools.permutations(alg.fixed_points(), 2):
        if (alg.meet[a][b] == alg.bottom and alg.join[a][b] == alg.top
                and nabla == type2_table(alg, a, b)):
            return "type2", (a, b)
    return None, None


# ---------------------------------------------------------------------------
# Congruences


def _ops(alg):
    unary = []
    if alg.neg is not None:
        unary.append(alg.neg)
    if alg.nabla is not None:
        unary.append(alg.nabla)
    return (alg.join, alg.meet), unary


def _close_pairs(alg, pairs):
    """The congruence generated by the given pairs, as a partition tuple."""
    n = alg.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    binary, unary = _ops(alg)
    work = list(pairs)
    while work:
        u, v = work.pop()
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        parent[ru] = rv
        for table in binary:
            for w in range(n):
                work.append((table[u][w], table[v][w]))
        for table in unary:
            work.append((table[u], table[v]))
    reps = {}
    out = []
    for x in range(n):
        r = find(x)
        if r not in reps:
            reps[r] = len(reps)
        out.append(reps[r])
    return tuple(out)


def congruences(alg):
    """All congruences, as partition tuples (class id per element)."""
    if alg.size > CONGRUENCE_CARRIER_LIMIT:
        raise GuardExceeded("carrier size %d exceeds congruence limit %d"
                            % (alg.size, CONGRUENCE_CARRIER_LIMIT))
    identity = tuple(range(alg.size))
    found = {identity}
    principals = set()
    for x in range(alg.size):
        for y in range(x + 1, alg.size):
            principals.add(_close_pairs(alg, [(x, y)]))
    found |= principals
    while True:
        new = set()
        for p in found:
            for q in principals:
                pairs = [(i, j) for part in (p, q)
                         for i in range(alg.size) for j in range(alg.size)
                         if part[i] == part[j]]
                joined = _close_pairs(alg, pairs)
                if joined not in found:
                    new.add(joined)
        if not new:
            break
        found |= new
    return sorted(found)


def _refines(p, q):
    """True when partition p refines partition q."""
    blocks = {}
    for i, c in enumerate(p):
        blocks.setdefault(c, []).append(i)
    return all(len({q[i] for i in block}) == 1 for block in blocks.values())


def is_simple(alg):
    return alg.size > 1 and len(congruences(alg)) == 2


def is_subdirectly_irreducible(alg):
    """True when the nontrivial congruences have a least element."""
    if alg.size <= 1:
        return False
    identity = tuple(range(alg.size))
    nontrivial = [c for c in congruences(alg) if c != identity]
    return any(all(_refines(m, c) for c in nontrivial) for m in nontrivial)


# ---------------------------------------------------------------------------
# Variety markers


def check_variety_markers(alg):
    """Membership markers for the well-known (monadic) De Morgan varieties."""
    rng = range(alg.size)
    out = {"distributive": alg.is_distributive()}
    if alg.neg is not None:
        out["kleene"] = all(
            alg.leq(alg.meet[x][alg.neg[x]], alg.join[y][alg.neg[y]])
            for x in rng for y in rng)
        out["boolean"] = all(
            alg.meet[x][alg.neg[x]] == alg.bottom
            and alg.join[x][alg.neg[x]] == alg.top for x in rng)
        out["centered"] = bool(alg.fixed_points())
    if alg.nabla is not None and alg.neg is not None:
        nabla, neg = alg.nabla, alg.neg
        out["boolean_range"] = all(
            alg.meet[nabla[x]][neg[nabla[x]]] == alg.bottom for x in rng)
        out["kleene_range"] = all(
            alg.leq(alg.meet[nabla[x]][neg[nabla[x]]],
                    alg.join[nabla[y]][neg[nabla[y]]])
            for x in rng for y in rng)
        out["fix_marker"] = all(
            alg.leq(nabla[alg.meet[x][neg[x]]],
                    neg[nabla[alg.meet[x][neg[x]]]]) for x in rng)
    return out


# ---------------------------------------------------------------------------
# Monadic reducts of one-dimensional team algebras


def monadic_reduct(ctx, elements, validate=True):
    """The reduct of a closed one-dimensional element set to the signature
    (0, 1, negation, slashed sum, slashed product, slashed projection).

    Returns (FinAlgebra, element list in carrier order).
    """
    if ctx.nvars != 1:
        raise IfgError("monadic reduct requires dimension one")
    order = list(elements)
    index = {x: i for i, x in enumerate(order)}
    j = frozenset({0})
    n = len(order)
    try:
        join = [[index[ctx.add(j, x, y)] for y in order] for x in order]
        meet = [[index[ctx.mul(j, x, y)] for y in order] for x in order]
        neg = [index[ctx.neg(x)] for x in order]
        nabla = [index[ctx.cyl(0, j, x)] for x in order]
    except KeyError:
        raise IfgError("element set is not closed under the reduct")
    alg = FinAlgebra(n, index[ctx.zero], index[ctx.one], join, meet,
                     neg, nabla, validate=validate)
    return alg, order


# ---------------------------------------------------------------------------
# Embedding monadic Kleene algebras into rooted one-dimensional algebras


def _interval_filters(alg, c):
    """Prime filters of the interval [c, top], each as a frozenset.

    In a finite distributive lattice they are the up-sets of the
    join-irreducible elements j: those above c that are not the join of
    the interval's elements strictly below them.
    """
    interval = [x for x in range(alg.size) if alg.leq(c, x)]
    filters = []
    for j in interval:
        below = c
        for x in interval:
            if x != j and alg.leq(x, j):
                below = alg.join[below][x]
        if below != j:
            filters.append(frozenset(x for x in interval if alg.leq(j, x)))
    return sorted(filters, key=lambda f: (len(f), sorted(f)))


def embed_monadic_kleene(alg):
    """Embed a monadic Kleene algebra into a rooted one-dimensional algebra.

    Requires a type 1 quantifier, meet-irreducible bottom, and
    join-irreducible top.  Returns (ctx, mapping) where mapping sends each
    carrier element to its image element, and raises if the verified
    embedding conditions fail.
    """
    if alg.neg is None or alg.nabla is None:
        raise IfgError("embedding needs negation and a quantifier")
    markers = check_variety_markers(alg)
    kind, center = classify_quantifier_type(alg)
    if not (markers["distributive"] and markers["kleene"]
            and kind == "type1"):
        raise IfgError("embedding needs a monadic Kleene algebra "
                       "with a type 1 quantifier")
    if not alg.is_meet_irreducible(alg.bottom):
        raise IfgError("bottom must be meet irreducible")
    if not alg.is_join_irreducible(alg.top):
        raise IfgError("top must be join irreducible")
    c = center
    filters = _interval_filters(alg, c)
    size = len(filters)
    top_filter = filters.index(frozenset({alg.top}))

    def sigma(x):
        return [i for i, f in enumerate(filters) if x in f]

    # Partition the teams over the filter set: the cell of filter i is seeded
    # with the singleton {i}; every other team goes to cell 0, except the
    # full team, which joins the cell of the filter {top}.
    cells = [[1 << i] for i in range(size)]
    full = (1 << size) - 1
    for team in range(1 << size):
        if team.bit_count() == 1 or team == full:
            continue
        cells[0].append(team)
    cells[top_filter].append(full)

    ctx = algebra.AlgebraContext(size, 1)

    def g(indices):
        teamset = 1  # the empty team
        for i in indices:
            for team in cells[i]:
                teamset |= 1 << team
        return teamset

    def capital_g(x):
        return g(sigma(x))

    def h(x):
        return algebra.Element(capital_g(alg.join[x][c]),
                               capital_g(alg.join[alg.neg[x]][c]))

    mapping = {x: h(x) for x in range(alg.size)}
    if len(set(mapping.values())) != alg.size:
        raise IfgError("embedding image is not injective")
    j = frozenset({0})
    if mapping[alg.bottom] != ctx.zero or mapping[alg.top] != ctx.one:
        raise IfgError("embedding does not preserve the bounds")
    for x in range(alg.size):
        if mapping[alg.neg[x]] != ctx.neg(mapping[x]):
            raise IfgError("embedding does not preserve negation")
        if mapping[alg.nabla[x]] != ctx.cyl(0, j, mapping[x]):
            raise IfgError("embedding does not preserve the quantifier")
        for y in range(alg.size):
            if mapping[alg.join[x][y]] != ctx.add(j, mapping[x], mapping[y]):
                raise IfgError("embedding does not preserve join")
            if mapping[alg.meet[x][y]] != ctx.mul(j, mapping[x], mapping[y]):
                raise IfgError("embedding does not preserve meet")
    return ctx, mapping


# ---------------------------------------------------------------------------
# Bounded exhaustive search for embeddable algebras


def _posets(points):
    """All partial orders on range(points), as leq matrices."""
    pairs = list(itertools.combinations(range(points), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        leq = [[i == j for j in range(points)] for i in range(points)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                leq[i][j] = True
            elif c == 2:
                leq[j][i] = True
        ok = True
        for i in range(points):
            for j in range(points):
                if not leq[i][j]:
                    continue
                for k in range(points):
                    if leq[j][k] and not leq[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield leq


def _downset_lattice(points, leq):
    downs = []
    for mask in range(1 << points):
        ok = True
        for i in range(points):
            if not mask >> i & 1:
                continue
            for j in range(points):
                if leq[j][i] and not mask >> j & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            downs.append(mask)
    downs.sort(key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(downs)}
    n = len(downs)
    join = [[index[a | b] for b in downs] for a in downs]
    meet = [[index[a & b] for b in downs] for a in downs]
    return n, join, meet, downs


def search_embeddable(max_points=5, max_size=6):
    """Exhaustively embed every qualifying monadic Kleene algebra.

    Enumerates all distributive lattices with at most max_size elements (as
    downset lattices of posets with at most max_points points), all antitone
    involutions on them, keeps the centered Kleene algebras with
    meet-irreducible bottom and join-irreducible top, equips each with its
    type 1 quantifier, and runs the embedding.  Returns the list of verified
    algebras; raises if any embedding fails.
    """
    seen = set()
    verified = []
    for points in range(max_points + 1):
        for leq in _posets(points):
            n, join, meet, _ = _downset_lattice(points, leq)
            if n > max_size or n < 2:
                continue  # the one-element lattice has no type 1 quantifier
            base = FinAlgebra(n, 0, n - 1, join, meet)
            for perm in itertools.permutations(range(n)):
                if any(perm[perm[x]] != x for x in range(n)):
                    continue
                if any(perm[join[x][y]] != meet[perm[x]][perm[y]]
                       for x in range(n) for y in range(n)):
                    continue
                alg = FinAlgebra(n, 0, n - 1, join, meet, list(perm))
                markers = check_variety_markers(alg)
                if not (markers["kleene"] and markers["centered"]):
                    continue
                if not alg.is_meet_irreducible(alg.bottom):
                    continue
                if not alg.is_join_irreducible(alg.top):
                    continue
                centers = alg.fixed_points()
                if len(centers) != 1:
                    continue
                full = alg.with_nabla(type1_table(alg, centers[0]))
                key = (full.join, full.neg, full.nabla)
                if key in seen:
                    continue
                seen.add(key)
                embed_monadic_kleene(full)
                verified.append(full)
    return verified
