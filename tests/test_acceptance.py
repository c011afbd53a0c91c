"""End-to-end acceptance checks, one per guarantee the package makes.

Each test prints a single ACCEPTANCE line so the suite doubles as a
report when run with pytest -s.
"""

import random

import classical

from ifg import syntax, trump, games, algebra, finlat
from ifg.algebra import Element, AlgebraContext, leq
from ifg.finlat import named_algebra
from ifg.model import Structure


def _report(num, ok, desc):
    print("ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, desc


EQ2 = Structure(2)
CONST2 = Structure(2, constants={"c0": 0, "c1": 1})
REL2 = Structure(2, relations={"R": (1, frozenset({(0,)}))})

_NODE_CACHE = []


def depth_three_nodes():
    """All interned formula nodes of depth <= 3 over {=, R} with 2 variables."""
    if _NODE_CACHE:
        return _NODE_CACHE
    atoms = [syntax.Eq(syntax.Var(i), syntax.Var(j))
             for i in range(2) for j in range(2)]
    atoms += [syntax.Rel("R", (syntax.Var(i),)) for i in range(2)]
    jsets = [frozenset(s) for s in ((), (0,), (1,), (0, 1))]

    def grow(lower, newest):
        out = {}
        new_ids = {id(x) for x in newest}
        for x in newest:
            neg = syntax.negate(x)
            out[neg.uid] = neg
            for j in jsets:
                for n in range(2):
                    e = syntax.exists(n, j, x)
                    out[e.uid] = e
        pool = lower + newest
        for j in jsets:
            for a in pool:
                for b in pool:
                    if id(a) in new_ids or id(b) in new_ids:
                        d = syntax.disj(j, a, b)
                        out[d.uid] = d
        return list(out.values())

    level1 = [syntax.atomic(a) for a in atoms]
    level2 = grow([], level1)
    level3 = grow(level1, level2)
    _NODE_CACHE.extend(level1 + level2 + level3)
    return _NODE_CACHE


def test_acceptance_1_game_trump_equivalence():
    nodes = depth_three_nodes()
    ev = trump.Evaluator(REL2, 2)
    ga = games.GameAnalyzer(REL2, 2)
    ok = len(nodes) == 168306
    for node in nodes:
        if (ga.winning_mask(node, 1) != ev.winning_mask(node, True)
                or ga.winning_mask(node, 0) != ev.winning_mask(node, False)):
            ok = False
            break
    _report(1, ok, "game and trump semantics agree on %d nodes, all 16 teams"
            % len(nodes))


def _teamset(ctx, *teams):
    mask = 0
    for t in teams:
        mask |= 1 << ctx.space.parse_team(t)
    return mask


def test_acceptance_2_worked_computations():
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    ctx = AlgebraContext(2, 2)
    sp = ctx.space
    n_set = ctx.full_j
    empty = frozenset()
    d01 = ctx.diag(0, 1)
    full = sp.full_team

    check("diagonal", d01 == Element(
        sp.powerset_mask(sp.parse_team("00,11")),
        sp.powerset_mask(sp.parse_team("01,10"))))

    c = ctx.cyl(0, n_set, d01)
    check("cylindrified diagonal", c == Element(
        sp.powerset_mask(sp.parse_team("00,10"))
        | sp.powerset_mask(sp.parse_team("01,11")), 1))

    ctx3 = AlgebraContext(3, 1)
    st3 = Structure(3, constants={"c0": 0, "c1": 1, "c2": 2})
    ev3 = trump.Evaluator(st3, 1)
    x3, y3, z3 = (ev3.element(syntax.parse("v0=c%d" % i, 1))
                  for i in range(3))
    lhs = ctx3.add(empty, x3, y3)
    check("associativity lhs", lhs.plus == _teamset(ctx3, "", "0", "1", "0,1"))
    rhs = ctx3.add(empty, x3, ctx3.add(ctx3.full_j, y3, z3))
    check("associativity rhs", rhs.plus == _teamset(
        ctx3, "", "0", "1", "2", "0,1", "0,2"))
    check("associativity fails", ctx3.add(ctx3.full_j, lhs, z3) != rhs
          and lhs != rhs)

    x = ctx.add(n_set, d01, ctx.neg(d01))
    check("absorption x plus", x.plus == _teamset(
        ctx, "", "00", "01", "10", "11", "00,11", "01,10"))
    check("absorption x minus", x.minus == 1)
    grown = ctx.add(empty, x, ctx.add(n_set, x, x))
    check("absorption grows", grown.plus >> full & 1
          and not x.plus >> full & 1)

    ev = trump.Evaluator(CONST2, 2)
    xc = ctx.add(n_set, ev.element(syntax.parse("v0=c0", 2)),
                 ev.element(syntax.parse("v0=c1", 2)))
    check("distributivity x plus", xc.plus == (
        sp.powerset_mask(sp.parse_team("00,01"))
        | sp.powerset_mask(sp.parse_team("10,11"))))
    k = frozenset({1})
    check("distributivity sum", ctx.add(k, xc, xc).plus >> full & 1)
    check("distributivity unit sum", ctx.add(k, ctx.one, ctx.one) == ctx.one)
    check("distributivity product",
          ctx.mul(k, xc, ctx.add(k, ctx.one, ctx.one)) == xc
          and not xc.plus >> full & 1)

    prod = ctx.mul(n_set, d01, c)
    check("product value", prod.plus == _teamset(ctx, "", "00", "11"))

    j0 = frozenset({0})
    a = ctx.cyl(1, n_set, ctx.one)
    b = ctx.cyl(1, j0, d01)
    t = 1 << sp.parse_team("00,11")
    outer = ctx.mul(n_set, a, b)
    inner = ctx.cyl(1, n_set, ctx.mul(n_set, ctx.one, b))
    check("cyl-product failure", outer.plus & t and not inner.plus & t)
    check("cyl-product side facts", leq(d01, b) and outer == b)

    half = ctx.cyl(0, empty, ctx.mul(empty, d01, xc))
    other = ctx.cyl(0, empty, ctx.mul(empty, d01, ctx.neg(xc)))
    e = ctx.mul(empty, half, other)
    check("non-falsity", leq(e, ctx.omega) and e != ctx.zero)

    _report(2, not failures, "worked set computations reproduce bit-exactly"
            + ("" if not failures else ": " + ", ".join(failures)))


def test_acceptance_3_law_suites():
    failures = []

    ctx1 = AlgebraContext(2, 1)
    rooted1 = [Element(p, m)
               for p in range(1, ctx1.all_teamsets + 1, 2)
               for m in range(1, ctx1.all_teamsets + 1, 2)]
    if len(rooted1) != 64 or algebra.check_law("demorgan", ctx1, rooted1):
        failures.append("demorgan exhaustive")

    ctx2 = AlgebraContext(2, 2)
    rng = random.Random(20260823)
    pool2, seen = [], set()
    while len(pool2) < 500:
        x = Element(rng.getrandbits(16) | 1, rng.getrandbits(16) | 1)
        if x not in seen:
            seen.add(x)
            pool2.append(x)
    if algebra.check_law("demorgan", ctx2, pool2):
        failures.append("demorgan random")

    # x *_J ~x has trivial plus and x +_K ~x trivial minus on every double
    # suit, which is exactly the Kleene inequality between any two of them
    for ctx in (ctx1, ctx2):
        suits = [m for m in range(1, ctx.all_teamsets + 1, 2)
                 if algebra.is_suit(ctx, m)]
        for p in suits:
            for m in suits:
                if p & m != 1:
                    continue
                x = Element(p, m)
                for j in ctx.jsets():
                    if (ctx.mul(j, x, ctx.neg(x)).plus != 1
                            or ctx.add(j, x, ctx.neg(x)).minus != 1):
                        failures.append("kleene extremes")
    small_suits = [Element(p, m)
                   for p in range(1, ctx1.all_teamsets + 1, 2)
                   for m in range(1, ctx1.all_teamsets + 1, 2)
                   if algebra.is_double_suit(ctx1, Element(p, m))]
    if algebra.check_law("kleene", ctx1, small_suits):
        failures.append("kleene pairwise")

    cyl_pool = list(pool2[:15])
    cyl_pool += [ctx2.zero, ctx2.one, ctx2.omega, ctx2.mho, ctx2.diag(0, 1),
                 ctx2.neg(ctx2.diag(0, 1)),
                 ctx2.flat(ctx2.space.parse_team("00,01"))]
    for name in algebra.law_names():
        if name.startswith("cyl") and algebra.law_expected(name):
            if algebra.check_law(name, ctx2, cyl_pool):
                failures.append(name)

    generated = [
        algebra.generate_subalgebra(ctx1, [ctx1.flat(1)]),
        algebra.generate_subalgebra(
            ctx1, [ctx1.flat(1 << v) for v in range(2)]),
        algebra.generate_subalgebra(
            AlgebraContext(3, 1),
            [AlgebraContext(3, 1).flat(1 << v) for v in range(3)]),
    ]
    contexts = [ctx1, ctx1, AlgebraContext(3, 1)]
    for ctx, elems in zip(contexts, generated):
        if len(elems) <= 2 or algebra.check_law("omega-definable", ctx, elems):
            failures.append("omega-definable")

    _report(3, not failures, "law suites hold with zero violations"
            + ("" if not failures else ": " + ", ".join(sorted(set(failures)))))


def test_acceptance_4_three_valued_sentences():
    nodes = depth_three_nodes()
    ev = trump.Evaluator(REL2, 2)
    ctx = AlgebraContext(2, 2)
    allowed = {ctx.zero, ctx.omega, ctx.one}
    checked = 0
    ok = True
    for node in nodes:
        if node.freevars:
            continue
        if not syntax.Formula(node, 2).is_sentence():
            continue
        checked += 1
        value = Element(ev.winning_mask(node, True),
                        ev.winning_mask(node, False))
        if value not in allowed:
            ok = False
            break
    _report(4, ok and checked > 0,
            "all %d depth<=3 sentences have meaning 0, omega, or 1" % checked)


def _random_slash_free(rng, nvars, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return syntax.atomic(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return syntax.negate(_random_slash_free(rng, nvars, atoms, depth - 1))
    if kind == 1:
        return syntax.disj(frozenset(),
                           _random_slash_free(rng, nvars, atoms, depth - 1),
                           _random_slash_free(rng, nvars, atoms, depth - 1))
    return syntax.exists(rng.randrange(nvars), frozenset(),
                         _random_slash_free(rng, nvars, atoms, depth - 1))


def test_acceptance_5_conservative_extension():
    structures = [
        Structure(1),
        Structure(2),
        Structure(2, constants={"c0": 0}),
        Structure(2, relations={"R": (1, frozenset({(0,)}))}),
        Structure(3, constants={"c0": 0, "c1": 2}),
        Structure(3, relations={"R": (1, frozenset({(0,), (2,)}))}),
    ]
    rng = random.Random(97)
    ok = True
    for _ in range(200):
        structure = rng.choice(structures)
        nvars = rng.choice((1, 2))
        atoms = [syntax.Eq(syntax.Var(i), syntax.Var(j))
                 for i in range(nvars) for j in range(nvars)]
        atoms += [syntax.Eq(syntax.Var(i), syntax.Const(name))
                  for i in range(nvars) for name in structure.constants]
        atoms += [syntax.Rel(name, (syntax.Var(i),))
                  for i in range(nvars) for name in structure.relations]
        node = _random_slash_free(rng, nvars, atoms, 4)
        ev = trump.Evaluator(structure, nvars)
        truth = classical.truth_team(structure, nvars, node)
        sp = ev.space
        if (ev.winning_mask(node, True) != sp.powerset_mask(truth)
                or ev.winning_mask(node, False)
                != sp.powerset_mask(sp.full_team & ~truth)):
            ok = False
            break
    _report(5, ok, "200 slash-free formulas match the classical oracle")


def test_acceptance_6_omega_membership_criterion():
    battery = [
        (Structure(2), 2, True),          # two variables always suffice
        (CONST2, 1, True),                # a constant splits the universe
        (Structure(2), 1, False),         # equality atoms are constant
        (Structure(1), 2, False),         # singleton base is bivalent
        (Structure(3, relations={"R": (1, frozenset({(0,)}))}), 1, True),
        (Structure(2, relations={"R": (1, frozenset())}), 1, False),
        (Structure(2, functions={"f": (1, {(0,): 0, (1,): 0})}), 1, True),
        (CONST2, 0, False),               # no variables, no splitting
        (Structure(0), 1, True),          # empty base
    ]
    ok = True
    for structure, nvars, expected in battery:
        if algebra.omega_expected(structure, nvars) != expected:
            ok = False
        if algebra.omega_in_cyls(structure, nvars) != expected:
            ok = False
    _report(6, ok, "omega membership matches the criterion on %d structures"
            % len(battery))


def test_acceptance_7_monadic_lab():
    failures = []
    for name in ("B", "K", "M"):
        if not finlat.is_subdirectly_irreducible(named_algebra(name)):
            failures.append(name + " not SI")
    for name in ("SixKxM", "NineMxM"):
        if not finlat.is_simple(named_algebra(name)):
            failures.append(name + " not simple")
    expected_types = {"K_nabla0": "type0", "K_nabla1": "type1",
                      "M_nabla0": "type0", "M_nabla2": "type2"}
    for name, kind in expected_types.items():
        if finlat.classify_quantifier_type(named_algebra(name))[0] != kind:
            failures.append(name + " misclassified")
    if not finlat.check_variety_markers(named_algebra("K_nabla1"))["fix_marker"]:
        failures.append("K_nabla1 fix_marker")
    if finlat.check_variety_markers(named_algebra("K_nabla0"))["fix_marker"]:
        failures.append("K_nabla0 fix_marker")
    _report(7, not failures, "monadic lab classifications all verified"
            + ("" if not failures else ": " + ", ".join(failures)))


def _verify_embedding(alg, ctx, mapping):
    j = frozenset({0})
    if len(set(mapping.values())) != alg.size:
        return False
    for x in range(alg.size):
        if mapping[alg.neg[x]] != ctx.neg(mapping[x]):
            return False
        if mapping[alg.nabla[x]] != ctx.cyl(0, j, mapping[x]):
            return False
        for y in range(alg.size):
            if mapping[alg.join[x][y]] != ctx.add(j, mapping[x], mapping[y]):
                return False
            if mapping[alg.meet[x][y]] != ctx.mul(j, mapping[x], mapping[y]):
                return False
    return mapping[alg.bottom] == ctx.zero and mapping[alg.top] == ctx.one


def test_acceptance_8_embedding_theorem():
    # every distributive lattice with at most 6 elements has at most 5
    # join-irreducibles, so a 5-point poset search is exhaustive here
    candidates = [named_algebra("K_nabla1")] + finlat.search_embeddable(5, 6)
    ok = len(candidates) >= 3
    for alg in candidates:
        ctx, mapping = finlat.embed_monadic_kleene(alg)
        if not _verify_embedding(alg, ctx, mapping):
            ok = False
    _report(8, ok, "embedding verified on %d monadic Kleene algebras"
            % len(candidates))


def test_acceptance_9_reduct_bridge():
    ok = True
    for size in (2, 3):
        structure = Structure(
            size, constants={"c%d" % i: i for i in range(size)})
        elements = algebra.cyls_of(structure, 1)
        ctx = AlgebraContext(size, 1)
        if ctx.omega not in elements:
            ok = False
            continue
        if not all(algebra.is_double_suit(ctx, e) for e in elements):
            ok = False
        alg, order = finlat.monadic_reduct(ctx, elements,
                                           validate=(size == 2))
        if finlat.check_quantifier(alg):
            ok = False
        kind, center = finlat.classify_quantifier_type(alg)
        if kind != "type1" or order[center] != ctx.omega:
            ok = False
    _report(9, ok, "monadic reducts of generated algebras are type 1 at omega")
