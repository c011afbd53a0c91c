"""Seeded inputs for the four workloads.

Everything here is plain data built from `random.Random`, with no import of
`ifg`: formulas as small tuple trees (rendered to the CLI's formula text),
structures as dicts, algebra elements as (plus, minus) pairs of team-set
bitmasks.  The same workload and seed give the same rounds, byte for byte.

Encoding (the one the package documents): a valuation over N variables and
universe size K has index sum(a_i * K**i); a team is a bitmask over
valuation indices; a team set is a bitmask over team masks.

Formula trees:
    term    ("v", i) | ("c", name)
    formula ("eq", s, t) | ("P", t) | ("not", f) | ("or", J, f, g)
            | ("and", J, f, g) | ("E", n, J, f) | ("A", n, J, f)
J is a sorted tuple of variable indices.
"""

import random

# (K, N) classes of the formula workloads: valuation counts 4, 8 and 9
FORMULA_CLASSES = ((2, 2), (2, 3), (3, 2))
# one round of `meanings`: ((K, N), depths cycling with the round).  The
# two count-8 formulas of fixed depth put the median operation inside one
# class, where the times are dense, instead of between classes.
MEANING_ROUND = (((2, 2), (2, 3, 4, 5, 6)), ((2, 3), (4,)), ((2, 3), (4,)),
                 ((3, 2), (2, 3, 4, 5, 6)))
STRUCTURE_FILES = {2: "perfbench/structures/k2.ifgs",
                   3: "perfbench/structures/k3.ifgs"}
# the constants and the relation those two files declare
STRUCTURES = {
    2: {"size": 2, "constants": {"c0": 0, "c1": 1}, "relations": {"P": (0,)}},
    3: {"size": 3, "constants": {"c0": 0, "c1": 1}, "relations": {"P": (0, 2)}},
}
# sentence depths cycle with the round, offset per (K, N) class
SENTENCE_DEPTHS = (3, 4, 5)
# At K=3 an operator with an empty slash set lets `truth` try up to 3**9
# choice functions (2**9 splits) per team, and nested ones multiply to
# seconds.  So the K=3 sentence has one such operator in every
# OPEN_EVERY-th round and none otherwise.  That keeps the tail (about
# 0.1-0.3 s per operation) near a fixed share of the run.
OPEN_EVERY = 16
SLASH_P = 0.35           # chance that a variable joins a slash set
SLASH_FREE_SHARE = 0.25  # formulas drawn with every slash set empty
HEIGHT_LIMIT = 14        # desugared height; the package refuses above 16

# laws: every registry law except absorption-flat, which fails on some
# random unrooted pools although the registry expects it to hold
LAW_NAMES = (
    "absorption-bounds", "absorption-eq", "absorption-full-slash",
    "associativity-mixed-eq", "associativity-nested-slash",
    "associativity-same-slash", "commutativity", "complement-criterion",
    "complement-suited", "cyl-chain", "cyl-constants", "cyl-commute",
    "cyl-diagonal", "cyl-diagonal-compose", "cyl-diagonal-split",
    "cyl-idempotent", "cyl-meet", "cyl-monotone", "cyl-product",
    "cyl-product-plus-eq", "cyl-slash-antitone", "demorgan",
    "distributive-full-slash", "distributive-inclusion", "distributivity-eq",
    "excluded-middle", "fixed-points", "full-slash-union", "kleene",
    "not-complemented", "not-complemented-suited", "omega-between",
    "omega-definable", "op-chain", "op-monotone", "order-from-ops",
    "rooted-annihilators", "rooted-bounds", "rooted-sum-grows",
    "slash-antitone", "unit-elements",
)
# (K, N) -> (random elements per pool, fixed witnesses).  The witnesses
# refute every law the registry expects to fail (oracle.self_test checks
# this with the brute-force operators), so each verdict is determined.
LAW_CONTEXTS = {
    (2, 2): (2, ((5355, 45555), (19911, 32425))),
    (2, 1): (4, ((7, 1), (9, 1), (1, 3))),
    (3, 1): (5, ((55, 233), (169, 155))),
}

# generators per closure, alternating by round, as ordered tuples of
# distinct double suits: (2,1) has 11 double suits, (3,1) has 55
CLOSURE_GENERATORS = {2: (3, 4), 3: (2, 3)}

# An omega query at (2,2) from one double suit takes either about 0.03 s
# or 0.4-0.9 s (with 20-50k operator memo entries), depending on the
# generator; one query every OMEGA_EVERY rounds keeps that tail near a
# fixed share of the run.
OMEGA_EVERY = 2

WORKLOADS = ("meanings", "sentences", "algebras", "laws")


# ---------------------------------------------------------------------------
# formulas


def render(f):
    """CLI formula text of a tree."""
    tag = f[0]
    if tag == "eq":
        return "%s=%s" % (_term(f[1]), _term(f[2]))
    if tag == "P":
        return "P(%s)" % _term(f[1])
    if tag == "not":
        return "~" + render(f[1])
    if tag in ("or", "and"):
        op = "\\/" if tag == "or" else "/\\"
        return "(%s %s{%s} %s)" % (render(f[2]), op, _idx(f[1]), render(f[3]))
    return "%s v%d/{%s} %s" % (tag, f[1], _idx(f[2]), render(f[3]))


def _term(t):
    return "v%d" % t[1] if t[0] == "v" else t[1]


def _idx(jset):
    return ",".join(str(i) for i in jset)


def height(f):
    """Height after the parser desugars /\\ and A into ~, \\/ and E."""
    tag = f[0]
    if tag in ("eq", "P"):
        return 1
    if tag == "not":
        return height(f[1]) + 1
    if tag == "or":
        return max(height(f[2]), height(f[3])) + 1
    if tag == "and":
        return max(height(f[2]), height(f[3])) + 3
    if tag == "E":
        return height(f[3]) + 1
    return height(f[3]) + 3


def is_slash_free(f):
    tag = f[0]
    if tag in ("eq", "P"):
        return True
    if tag == "not":
        return is_slash_free(f[1])
    if tag in ("or", "and"):
        return not f[1] and is_slash_free(f[2]) and is_slash_free(f[3])
    return not f[2] and is_slash_free(f[3])


def _formula(rng, nvars, depth, slash_free, bound):
    """Random formula; with bound given, only bound variables occur."""
    names = sorted(bound) if bound is not None else range(nvars)
    names = list(names)

    def jset():
        if slash_free:
            return ()
        return tuple(i for i in range(nvars) if rng.random() < SLASH_P)

    must_bind = bound is not None and not names
    if depth <= 1 or (not must_bind and rng.random() < 0.1):
        if not names:
            return rng.choice((("eq", ("c", "c0"), ("c", "c1")),
                               ("P", ("c", "c0")), ("P", ("c", "c1"))))
        var = ("v", rng.choice(names))
        r = rng.random()
        if r < 0.45:
            return ("eq", var, ("v", rng.choice(names)))
        if r < 0.75:
            return ("eq", var, ("c", rng.choice(("c0", "c1"))))
        return ("P", var)
    r = 0.9 if must_bind else rng.random()
    if r < 0.12:
        return ("not", _formula(rng, nvars, depth - 1, slash_free, bound))
    if r < 0.56:
        tag = rng.choice(("or", "and"))
        j = jset()
        left = _formula(rng, nvars, depth - 1, slash_free, bound)
        right = _formula(rng, nvars, depth - 1, slash_free, bound)
        return (tag, j, left, right)
    tag = rng.choice(("E", "A"))
    n = rng.randrange(nvars)
    j = jset()
    inner = None if bound is None else bound | {n}
    return (tag, n, j, _formula(rng, nvars, depth - 1, slash_free, inner))


def open_slashes(f):
    """Number of connectives and quantifiers whose slash set is empty."""
    tag = f[0]
    if tag in ("eq", "P"):
        return 0
    if tag == "not":
        return open_slashes(f[1])
    if tag in ("or", "and"):
        return open_slashes(f[2]) + open_slashes(f[3]) + (not f[1])
    return open_slashes(f[3]) + (not f[2])


def random_formula(rng, nvars, depth, sentence=False, open_count=None):
    """Random formula of the given depth; with open_count given, exactly
    that many of its operators have an empty slash set."""
    while True:
        slash_free = rng.random() < SLASH_FREE_SHARE
        f = _formula(rng, nvars, depth, slash_free,
                     frozenset() if sentence else None)
        if height(f) <= HEIGHT_LIMIT and (open_count is None
                                          or open_slashes(f) == open_count):
            return f


def full_team_text(size, nvars):
    """--team text of the team holding every valuation."""
    out = []
    for index in range(size ** nvars):
        digits = []
        for _ in range(nvars):
            digits.append(str(index % size))
            index //= size
        out.append("".join(digits))
    return ",".join(out)


# ---------------------------------------------------------------------------
# structures and algebra elements


def structure_text(spec):
    lines = ["universe %d" % spec["size"]]
    for name in sorted(spec["constants"]):
        lines.append("constant %s = %d" % (name, spec["constants"][name]))
    for name in sorted(spec["relations"]):
        lines.append("relation %s/1: %s" % (
            name, " ".join(str(a) for a in spec["relations"][name])))
    return "\n".join(lines) + "\n"


def random_structure(rng, size):
    """Universe size, constants among c0..c3, unary relations P and Q."""
    constants = {}
    for i in range(4):
        value = rng.randrange(size + 1)
        if value < size:
            constants["c%d" % i] = value
    relations = {name: tuple(a for a in range(size) if rng.random() < 0.5)
                 for name in ("P", "Q")}
    return {"size": size, "constants": constants, "relations": relations}


def powerset_mask(team):
    out = 1
    sub = team
    while sub:
        out |= 1 << sub
        sub = (sub - 1) & team
    return out


def is_downset(mask):
    """Nonempty and closed under removing one valuation from a team."""
    if not mask & 1:
        return False
    rest = mask
    while rest:
        low = rest & -rest
        team = low.bit_length() - 1
        rest ^= low
        bits = team
        while bits:
            v = bits & -bits
            if not mask >> (team ^ v) & 1:
                return False
            bits ^= v
    return True


def double_suits(count):
    """Every (plus, minus) pair of downsets meeting only in the empty team."""
    downsets = [m for m in range(1, 1 << (1 << count), 2) if is_downset(m)]
    return [(p, m) for p in downsets for m in downsets if p & m == 1]


def random_double_suit(rng, count):
    """A double suit with a nonempty team on each side: downsets generated
    on disjoint valuation supports."""
    while True:
        side = [rng.randrange(3) for _ in range(count)]

        def downset(which):
            support = sum(1 << v for v in range(count) if side[v] == which)
            mask = 1
            for _ in range(rng.randint(1, 2)):
                mask |= powerset_mask(rng.getrandbits(count) & support)
            return mask

        pair = (downset(0), downset(1))
        if pair[0] != 1 and pair[1] != 1:
            return pair


def random_pair(rng, count):
    """A pair of team sets that is not a pair of downsets; rooted or not."""
    width = 1 << count
    while True:
        x = (rng.getrandbits(width), rng.getrandbits(width))
        if not (is_downset(x[0]) and is_downset(x[1])):
            return x


# ---------------------------------------------------------------------------
# rounds


class Rounds:
    """Iterator over the rounds of one workload; inputs never repeat."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.seen = set()
        self.index = 0
        self._catalogue = ({2: double_suits(2), 3: double_suits(3)}
                           if workload == "algebras" else {})

    def _fresh(self, make):
        for _ in range(1000):
            item = make()
            key = repr(item)
            if key not in self.seen:
                self.seen.add(key)
                return item
        raise RuntimeError("input space exhausted after %d rounds"
                           % self.index)

    def __iter__(self):
        return self

    def __next__(self):
        rng = self.rng
        tasks = []
        if self.workload in ("meanings", "sentences"):
            sentence = self.workload == "sentences"
            plan = (tuple((kn, SENTENCE_DEPTHS) for kn in FORMULA_CLASSES)
                    if sentence else MEANING_ROUND)
            for turn, ((size, nvars), depths) in enumerate(plan):
                opened = None
                if sentence and size == 3:
                    opened = int(self.index % OPEN_EVERY == 0)
                depth = depths[(self.index + turn) % len(depths)]
                f = self._fresh(lambda: (size, nvars, random_formula(
                    rng, nvars, depth, sentence, opened)))[2]
                tasks.append({"kind": self.workload[:-1], "K": size,
                              "N": nvars, "ast": f, "text": render(f)})
        elif self.workload == "algebras":
            for size in (2, 3):
                spec = self._fresh(lambda: random_structure(rng, size))
                tasks.append({"kind": "algebra-gen", "spec": spec})
            for size in (2, 3):
                cat = self._catalogue[size]
                k = CLOSURE_GENERATORS[size][self.index % 2]
                gens = self._fresh(lambda: (size, tuple(rng.sample(cat, k))))
                tasks.append({"kind": "closure", "K": size, "gens": gens[1]})
            if self.index % OMEGA_EVERY == 0:
                gen = self._fresh(lambda: ("omega", random_double_suit(rng, 4)))
                tasks.append({"kind": "omega", "K": 2, "N": 2,
                              "gens": (gen[1],)})
        else:
            for (size, nvars), (extra, witnesses) in sorted(LAW_CONTEXTS.items()):
                count = size ** nvars

                def pool():
                    out = list(witnesses)
                    while len(out) < len(witnesses) + extra:
                        x = random_pair(rng, count)
                        if x not in out:
                            out.append(x)
                    return (size, nvars, tuple(out))

                tasks.append({"kind": "laws", "K": size, "N": nvars,
                              "pool": self._fresh(pool)[2]})
        self.index += 1
        return tasks
