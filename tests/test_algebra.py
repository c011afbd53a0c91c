import itertools
import random
from functools import cache, reduce
from operator import or_

import pytest

from ifg import syntax, trump, algebra
from ifg.algebra import Element, AlgebraContext, leq, leq_plus, leq_minus
from ifg.errors import IfgError, GuardExceeded
from ifg.model import Structure, bits
from teamsem import OracleSpace, TeamSemantics

CTX = AlgebraContext(2, 2)
EQ2 = Structure(2)
CONST2 = Structure(2, constants={"c0": 0, "c1": 1})


def teamset(ctx, *teams):
    mask = 0
    for t in teams:
        mask |= 1 << ctx.space.parse_team(t)
    return mask


def default_pool(ctx):
    d01 = ctx.diag(0, 1)
    spread = ctx.add(ctx.full_j, d01, ctx.neg(d01))
    f0 = ctx.flat(ctx.space.parse_team("00,01"))
    f1 = ctx.flat(ctx.space.parse_team("10,11"))
    return [ctx.zero, ctx.one, ctx.omega, ctx.mho, d01, ctx.diag(0, 0),
            ctx.neg(d01), spread, f0, f1, ctx.add(ctx.full_j, f0, f1)]


# -- constants and basic operations ----------------------------------------------


def test_constant_values():
    assert CTX.zero == Element(1, CTX.all_teamsets)
    assert CTX.one == Element(CTX.all_teamsets, 1)
    assert CTX.omega == Element(1, 1)
    assert CTX.mho == Element(CTX.all_teamsets, CTX.all_teamsets)
    sp = CTX.space
    assert CTX.diag(0, 1) == Element(sp.powerset_mask(sp.parse_team("00,11")),
                                     sp.powerset_mask(sp.parse_team("01,10")))
    assert CTX.diag(0, 0) == CTX.one


def duality_pools():
    """The suits of default_pool, then pairs that are not suits at (2,2)
    and (3,1), each with its context."""
    yield CTX, default_pool(CTX)
    for size, nvars in ((2, 2), (3, 1)):
        ctx = AlgebraContext(size, nvars)
        yield ctx, _non_suit_pairs(ctx, random.Random(size * 10 + nvars), 6)


def test_negation_involution_and_duality():
    for ctx, pool in duality_pools():
        for x in pool:
            assert ctx.neg(ctx.neg(x)) == x
        for j in ctx.jsets():
            for x, y in itertools.product(pool, repeat=2):
                assert ctx.mul(j, x, y) == ctx.neg(
                    ctx.add(j, ctx.neg(x), ctx.neg(y)))


def test_order_basics():
    pool = default_pool(CTX)
    for x in pool:
        assert leq(x, x)
        assert leq_plus(x, CTX.mho) and leq_minus(x, CTX.mho)
    # omega sits inside mho coordinatewise but not conversely
    assert leq_plus(CTX.omega, CTX.mho) and leq_minus(CTX.omega, CTX.mho)
    assert not (leq_plus(CTX.mho, CTX.omega)
                and leq_minus(CTX.mho, CTX.omega))
    for x, y in itertools.product(pool, repeat=2):
        assert leq(x, y) == leq(CTX.neg(y), CTX.neg(x))
        if leq(x, y) and leq(y, x):
            assert x == y


def test_flat_builds_powersets():
    team = CTX.space.parse_team("00,10")
    x = CTX.flat(team)
    assert x.plus == CTX.space.powerset_mask(team)
    assert algebra.is_double_suit(CTX, x) and algebra.is_flat(CTX, x)


# -- semantics bridge -------------------------------------------------------------


HOMOMORPHISM_CASES = [
    # (variables, atoms): counts 2, 4 and 8 over CONST2
    (1, ["v0=c0", "v0=c1", "v0=v0"]),
    (2, ["v0=v1", "v0=c0", "v1=c1"]),
    (3, ["v0=v1", "v1=v2", "v2=c0"]),
]


def test_meaning_homomorphism_depth_two():
    # neg, add and cyl on atom meanings agree with team satisfaction of the
    # connective they interpret, team by team
    for nvars, texts in HOMOMORPHISM_CASES:
        ctx = AlgebraContext(2, nvars)
        ev = trump.Evaluator(CONST2, nvars)
        oracle = TeamSemantics(CONST2, nvars)
        atoms = [syntax.parse(t, nvars).root for t in texts]
        elems = [ev.element(a) for a in atoms]
        cases = []
        for a, x in zip(atoms, elems):
            cases.append((syntax.negate(a), ctx.neg(x)))
            for j in ctx.jsets():
                for b, y in zip(atoms, elems):
                    cases.append((syntax.disj(j, a, b), ctx.add(j, x, y)))
                for n in range(nvars):
                    cases.append((syntax.exists(n, j, a), ctx.cyl(n, j, x)))
        for node, got in cases:
            for team in range(1 << ctx.space.count):
                assert got.plus >> team & 1 == oracle.satisfies(node, team,
                                                                True)
                assert got.minus >> team & 1 == oracle.satisfies(node, team,
                                                                 False)


def test_element_of_matches_meaning():
    f = syntax.parse("v0=v1", 2)
    ev = trump.Evaluator(EQ2, 2)
    m = ev.meaning(f)
    assert ev.element(f) == Element(m.plus, m.minus) == CTX.diag(0, 1)


# -- classification -----------------------------------------------------------------


def test_classify_flags():
    flags = algebra.classify(CTX, CTX.omega)
    assert flags == {"rooted": True, "pair_of_suits": True,
                     "double_suit": True, "flat": True, "fixed_point": True}
    mho = algebra.classify(CTX, CTX.mho)
    assert mho["rooted"] and mho["pair_of_suits"] and mho["fixed_point"]
    assert not mho["double_suit"]
    d = algebra.classify(CTX, CTX.diag(0, 1))
    assert d["double_suit"] and d["flat"] and not d["fixed_point"]
    not_suit = Element(1 | (1 << CTX.space.parse_team("00,11")), 1)
    assert not algebra.is_suit(CTX, not_suit.plus)
    assert not algebra.is_suit(CTX, 0)


# -- generated subalgebras -------------------------------------------------------------


def test_generate_contains_constants_and_closes():
    ctx = AlgebraContext(2, 1)
    gen = ctx.flat(1)
    elems = algebra.generate_subalgebra(ctx, [gen])
    assert ctx.zero in elems and ctx.one in elems and gen in elems
    pool = set(elems)
    for x in elems:
        assert ctx.neg(x) in pool
        for j in ctx.jsets():
            assert ctx.cyl(0, j, x) in pool
            for y in elems:
                assert ctx.add(j, x, y) in pool
                assert ctx.mul(j, x, y) in pool


def test_generate_is_deterministic():
    ctx = AlgebraContext(2, 1)
    a = algebra.generate_subalgebra(ctx, [ctx.flat(1)])
    b = algebra.generate_subalgebra(ctx, [ctx.flat(1)])
    assert a == b


def test_generate_cap():
    ctx = AlgebraContext(2, 1)
    with pytest.raises(GuardExceeded):
        algebra.generate_subalgebra(ctx, [ctx.flat(1)], cap=3)


def test_generate_target_early_exit():
    ctx = AlgebraContext(2, 1)
    assert algebra.generate_subalgebra(ctx, [], target=ctx.zero) is True
    assert algebra.generate_subalgebra(ctx, [], target=ctx.omega) is False


def test_cyls_of_singleton_base():
    elems = algebra.cyls_of(Structure(1), 1)
    ctx = AlgebraContext(1, 1)
    assert set(elems) == {ctx.zero, ctx.one}


def test_omega_prediction_matches_closure():
    for structure, nvars in ((EQ2, 2), (EQ2, 1), (Structure(1), 2),
                             (CONST2, 1)):
        assert (algebra.omega_in_cyls(structure, nvars)
                == algebra.omega_expected(structure, nvars))


# -- cylindrification goldens -----------------------------------------------------------


def test_diagonal_cylindrification_value():
    sp = CTX.space
    c = CTX.cyl(0, CTX.full_j, CTX.diag(0, 1))
    assert c.plus == (sp.powerset_mask(sp.parse_team("00,10"))
                      | sp.powerset_mask(sp.parse_team("01,11")))
    assert c.minus == 1


def test_dual_cyl_is_de_morgan_dual():
    for ctx, pool in duality_pools():
        for n in range(ctx.nvars):
            for j in ctx.jsets():
                for x in pool:
                    assert ctx.dual_cyl(n, j, x) == ctx.neg(
                        ctx.cyl(n, j, ctx.neg(x)))


def test_operator_memos_are_shared():
    """*_J reads the +_J memo on the minus parts, and the minus part of
    C_{n,J} is kept once per (n, team set) for every J."""
    ctx = AlgebraContext(2, 2)
    memos = ctx.downsets
    x, y = _non_suit_pairs(ctx, random.Random(7), 2)
    for j in ctx.jsets():
        ctx.add(j, ctx.neg(x), ctx.neg(y))
        sums = len(memos._sum)
        ctx.mul(j, x, y)
        assert len(memos._sum) == sums
    for n in range(ctx.nvars):
        minus = len(memos._minus)
        for j in ctx.jsets():
            ctx.cyl(n, j, x)
        assert len(memos._minus) == minus + 1
        assert memos._minus[n, x.minus] == ctx.cyl(n, frozenset(), x).minus


def test_cyl_chain_order():
    ctx = AlgebraContext(2, 2)
    x = ctx.diag(0, 1)
    jsets = [frozenset(), frozenset({1})]
    assert ctx.cyl_chain(x, jsets) == ctx.cyl(
        0, jsets[0], ctx.cyl(1, jsets[1], x))


# -- the law registry ----------------------------------------------------------------


# -- the kernels against the general paths and the definitions ------------------


def _brute_downset(mask):
    return all(mask >> (team & ~(1 << v)) & 1
               for team in range(mask.bit_length()) if mask >> team & 1
               for v in range(team.bit_length()) if team >> v & 1)


def _all_double_suits(ctx):
    suits = [m for m in range(1, ctx.all_teamsets + 1) if _brute_downset(m)]
    return [Element(p, m) for p in suits for m in suits if p & m == 1]


def _sampled_double_suits(ctx, rng, count):
    """Double suits with plus inside a random valuation set S, minus outside."""
    space = ctx.space
    out = []
    for _ in range(count):
        inside = rng.randrange(1 << space.count)
        parts = []
        for side in (inside, space.full_team & ~inside):
            mask = 1
            for _ in range(rng.randint(1, 3)):
                mask |= space.powerset_mask(rng.randrange(1 << space.count)
                                            & side)
            parts.append(mask)
        out.append(Element(*parts))
    return out


def test_is_suit_matches_brute_force():
    ctx = AlgebraContext(3, 1)
    for mask in range(ctx.all_teamsets + 1):
        assert algebra.is_suit(ctx, mask) == (mask != 0
                                              and _brute_downset(mask))


@pytest.mark.parametrize("size,nvars", [(2, 1), (3, 1), (2, 2)])
def test_suit_kernels_match_team_loops(size, nvars):
    ctx = AlgebraContext(size, nvars)
    if ctx.space.count <= 3:
        elems = _all_double_suits(ctx)
    else:
        elems = _sampled_double_suits(ctx, random.Random(11), 40)
    assert all(algebra.is_double_suit(ctx, x) for x in elems)
    for j in ctx.jsets():
        for x, y in itertools.product(elems, repeat=2):
            assert ctx.add(j, x, y).plus == ctx.downsets.sum_split(
                j, x.plus, y.plus)
        for n in range(nvars):
            for x in elems:
                assert (ctx.cyl(n, j, x).plus
                        == ctx.downsets.exists_blocks(n, j, x.plus))


def _brute_sum(space, jset, left, right):
    """Teams with a saturated split into a team of left and one of right."""
    return sum(1 << team for team in range(1 << space.count)
               if any(left >> v1 & 1 and right >> v2 & 1
                      for v1, v2 in space.saturated_splits(team, jset)))


def _brute_cyl(space, n, jset, x):
    """Variations valuation by valuation, through Space.variant_index."""
    @cache
    def vary(team, b):
        return sum({1 << space.variant_index(i, n, b) for i in bits(team)})

    teams = range(1 << space.count)
    plus = sum(1 << team for team in teams
               if any(x.plus >> reduce(or_, map(vary, blocks, values), 0) & 1
                      for blocks, values
                      in space.independent_functions(team, jset)))
    minus = sum(1 << team for team in teams
                if x.minus >> reduce(or_, (vary(team, b)
                                           for b in range(space.size)), 0) & 1)
    return Element(plus, minus)


def _non_suit_pairs(ctx, rng, count):
    """Elements whose plus and minus are both not downward closed, dense
    (each team in with chance 1/2) and sparse (1 to 4 teams) in turn."""
    nteams = 1 << ctx.space.count
    out = []
    while len(out) < count:
        if len(out) % 2:
            parts = [reduce(or_, (1 << rng.randrange(nteams)
                                  for _ in range(rng.randint(1, 4))))
                     for _ in range(2)]
        else:
            parts = [rng.getrandbits(nteams) for _ in range(2)]
        if not any(map(ctx.downsets.is_downset, parts)):
            out.append(Element(*parts))
    return out


@pytest.mark.parametrize("size,nvars", [(2, 1), (3, 1), (2, 2), (2, 3),
                                        (3, 2), (0, 1), (1, 2)])
def test_operations_match_brute_force(size, nvars):
    """add, mul and cyl on any team sets against the definitions, team by
    team: a sum is a saturated split, a cylinder a choice function."""
    ctx = AlgebraContext(size, nvars)
    space = OracleSpace(size, nvars)
    if ctx.all_teamsets < 4:
        masks = range(ctx.all_teamsets + 1)
        elems = [Element(p, m) for p in masks for m in masks]
    else:
        elems = _non_suit_pairs(ctx, random.Random(size * 10 + nvars), 4)
    # At count 9 a sparse plus part makes the brute force walk up to 4**9
    # choice functions per cylinder, seconds each; one such case is pinned.
    cyl_elems = elems if space.count < 9 else elems[::2]
    for j in ctx.jsets():
        for x, y in itertools.product(elems, repeat=2):
            assert ctx.add(j, x, y) == Element(
                _brute_sum(space, j, x.plus, y.plus), x.minus & y.minus)
            assert ctx.mul(j, x, y) == Element(
                x.plus & y.plus, _brute_sum(space, j, x.minus, y.minus))
        for n in range(nvars):
            for x in cyl_elems:
                assert ctx.cyl(n, j, x) == _brute_cyl(space, n, j, x)
    if (size, nvars) == (3, 2):
        x = Element(1 << 300, 1)
        for n in range(nvars):
            assert ctx.cyl(n, frozenset(), x) == _brute_cyl(
                space, n, frozenset(), x)


def test_absorption_flat_needs_rooted_operands():
    ctx = AlgebraContext(2, 1)
    x = Element(1, 0)  # plus only the empty team, minus empty: flat, unrooted
    y = Element(0, 0)
    empty = frozenset()
    assert algebra.is_flat(ctx, x)
    assert ctx.add(empty, x, ctx.mul(empty, x, y)) != x
    assert algebra.check_law("absorption-flat", ctx, [x, y]) is None


def test_law_registry_api():
    names = algebra.law_names()
    assert len(names) == len(set(names)) == 42
    with pytest.raises(IfgError):
        algebra.check_law("no-such-law", CTX, [])


MIXED_LAWS = {"associativity-mixed-eq"}


def test_all_laws_match_expectations():
    main_pool = default_pool(CTX)
    mixed_ctx = AlgebraContext(3, 1)
    mixed_pool = [mixed_ctx.zero, mixed_ctx.one, mixed_ctx.omega]
    mixed_pool += [mixed_ctx.flat(1 << v) for v in range(3)]
    for name in algebra.law_names():
        if name in MIXED_LAWS:
            detail = algebra.check_law(name, mixed_ctx, mixed_pool)
        else:
            detail = algebra.check_law(name, CTX, main_pool)
        assert (detail is None) == algebra.law_expected(name), (name, detail)


def test_run_laws_reports():
    report = algebra.run_laws(CTX, [CTX.zero, CTX.one],
                              names=["demorgan", "excluded-middle"])
    assert report[0] == ("demorgan", True, True, None)
    name, expected, holds, detail = report[1]
    assert name == "excluded-middle" and not expected and holds


# -- rendering ------------------------------------------------------------------------


def test_render_and_dump():
    ctx = AlgebraContext(2, 1)
    text = ctx.render(ctx.omega)
    assert text == "plus=[{}] minus=[{}]"
    dump = ctx.dump([ctx.zero, ctx.one])
    assert dump.splitlines()[0] == "base=2 dim=1 count=2"
    space = CTX.space
    for x in default_pool(CTX) + [Element(0, 0b1010)]:
        each = [",".join(space.render_team(t) for t in bits(mask))
                for mask in x]
        assert CTX.render(x) == "plus=[%s] minus=[%s]" % tuple(each)


def test_element_is_a_pair():
    x = Element(plus=3, minus=1)
    assert (x.plus, x.minus) == (3, 1) and x == Element(3, 1)
    assert repr(x) == "Element(plus=3, minus=1)"
    assert len({x, Element(3, 1), Element(1, 3)}) == 2


def test_context_guard():
    with pytest.raises(GuardExceeded):
        AlgebraContext(5, 2)


def test_cylinder_table_guard():
    """C_{n,J} on a team set that is not a suit reads a table of
    team-variant pairs, counted and refused above 2**MEANING_GUARD before
    anything is built."""
    ctx = AlgebraContext(4, 2)
    x = Element(1 << 3 | 1 << 5 | 1 << 300, 1)
    assert not ctx.downsets.is_downset(x.plus)
    with pytest.raises(GuardExceeded, match="13845841 .*1048576"):
        ctx.cyl(0, {1}, x)
    assert not ctx.downsets._tables
    wide = AlgebraContext(2, 4).downsets
    pairs = [wide.table_pairs(n, frozenset({1, 2, 3})) for n in range(4)]
    assert max(pairs) == 261121 <= 1 << algebra.MEANING_GUARD
