"""Built-in example suite: every worked example the library is sold on.

Each check is a small, named, self-contained computation with a known
answer.  `run()` executes all of them and returns (name, passed) pairs in
name order; the CLI prints the table and signals failure via exit code.
"""

from . import syntax, trump, games, algebra, finlat
from .model import Structure


def _ts(space, *teams):
    """Team-set mask from digit-string teams ('' is the empty team)."""
    mask = 0
    for t in teams:
        mask |= 1 << space.parse_team(t)
    return mask


def _eq2():
    return Structure(2)


def _const2():
    return Structure(2, constants={"c0": 0, "c1": 1})


def _const3():
    return Structure(3, constants={"c0": 0, "c1": 1, "c2": 2})


def _pennies():
    return syntax.parse("A v0/{} E v1/{0} (v0=v1)", 2)


# ---------------------------------------------------------------------------
# syntax


def check_parse_slashed_existential():
    f = syntax.parse("E v1/{0} (v0=v1)", 2)
    root = f.root
    return (isinstance(root, syntax.Exists) and root.n == 1
            and root.jset == frozenset({0})
            and isinstance(root.child, syntax.Atomic)
            and root.child.atom == syntax.Eq(syntax.Var(0), syntax.Var(1)))


def check_parse_signaling_disjunction():
    f = syntax.parse("(v0=v1 \\/{0,1} ~(v0=v1))", 2)
    root = f.root
    return (isinstance(root, syntax.Or) and root.jset == frozenset({0, 1})
            and isinstance(root.left, syntax.Atomic)
            and isinstance(root.right, syntax.Not)
            and root.right.child is root.left)


def check_unbound_sets():
    f = syntax.parse("E v1/{0} (v0=v1)", 2)
    ub = f.unbound_sets()
    return ub[()] == frozenset() and ub[(3,)] == frozenset({1})


# ---------------------------------------------------------------------------
# trump and games


def check_satisfaction_by_emptyset():
    ga = games.GameAnalyzer(_eq2(), 2)
    return all(ga.wins(f, 0, player)
               for f in (_pennies(), syntax.parse("v0=v1", 2),
                         syntax.parse("~(v0=v1)", 2))
               for player in (0, 1))


def check_matching_pennies_undetermined():
    ga = games.GameAnalyzer(_eq2(), 2)
    f = _pennies()
    full = ga.space.full_team
    return (not ga.wins(f, full, 1) and not ga.wins(f, full, 0)
            and ga.truth_value(f) == "undetermined")


def check_diagonal_meaning():
    ev = trump.Evaluator(_eq2(), 2)
    m = ev.meaning(syntax.parse("v0=v1", 2))
    sp = ev.space
    return (m.plus == sp.powerset_mask(sp.parse_team("00,11"))
            and m.minus == sp.powerset_mask(sp.parse_team("01,10")))


def check_constant_atom_meaning():
    ev = trump.Evaluator(_const3(), 1)
    m = ev.meaning(syntax.parse("v0=c0", 1))
    sp = ev.space
    return (m.plus == _ts(sp, "", "0")
            and m.minus == _ts(sp, "", "1", "2", "1,2"))


def check_empty_team_winning_both():
    ga = games.GameAnalyzer(_eq2(), 2)
    for player in (0, 1):
        ok, strategy = ga.has_winning_strategy(_pennies(), 0, player)
        if not ok or strategy.moves:
            return False
    return True


def check_matching_pennies_no_strategy():
    ga = games.GameAnalyzer(_eq2(), 2)
    full = ga.space.full_team
    return (not ga.has_winning_strategy(_pennies(), full, 1)[0]
            and not ga.has_winning_strategy(_pennies(), full, 0)[0])


def check_negation_flips_verifier():
    ga = games.GameAnalyzer(_eq2(), 1)
    f = syntax.parse("~(v0=v0)", 1)
    play, winner = ga.play_out(f, {}, 0)
    return (len(play) == 2 and play[0][2] == 1 and play[1][2] == 0
            and winner == 0)


# ---------------------------------------------------------------------------
# algebra


def check_diagonal_element():
    ctx = algebra.AlgebraContext(2, 2)
    sp = ctx.space
    d = ctx.diag(0, 1)
    return (d.plus == sp.powerset_mask(sp.parse_team("00,11"))
            and d.minus == sp.powerset_mask(sp.parse_team("01,10")))


def check_omega_mho_fixed():
    ctx = algebra.AlgebraContext(2, 2)
    for c in (ctx.omega, ctx.mho):
        if ctx.neg(c) != c:
            return False
        for j in ctx.jsets():
            if ctx.add(j, c, c) != c or ctx.mul(j, c, c) != c:
                return False
    return True


def _const3_xyz():
    ctx = algebra.AlgebraContext(3, 1)
    ev = trump.Evaluator(_const3(), 1)
    x, y, z = (ev.element(syntax.parse("v0=c%d" % i, 1)) for i in range(3))
    return ctx, x, y, z


def check_flat_sum_empty_slash():
    ctx, x, y, _ = _const3_xyz()
    s = ctx.add(frozenset(), x, y)
    return s.plus == _ts(ctx.space, "", "0", "1", "0,1")


def check_flat_sum_nested():
    ctx, x, y, z = _const3_xyz()
    s = ctx.add(frozenset(), x, ctx.add(ctx.full_j, y, z))
    return s.plus == _ts(ctx.space, "", "0", "1", "2", "0,1", "0,2")


def check_associativity_mixed_counterexample():
    ctx, x, y, z = _const3_xyz()
    lhs = ctx.add(ctx.full_j, ctx.add(frozenset(), x, y), z)
    rhs = ctx.add(frozenset(), x, ctx.add(ctx.full_j, y, z))
    return lhs != rhs


def check_diagonal_cylindrification():
    ctx = algebra.AlgebraContext(2, 2)
    sp = ctx.space
    c = ctx.cyl(0, ctx.full_j, ctx.diag(0, 1))
    want_plus = (sp.powerset_mask(sp.parse_team("00,10"))
                 | sp.powerset_mask(sp.parse_team("01,11")))
    return c.plus == want_plus and c.minus == 1


def check_diagonal_product_value():
    ctx = algebra.AlgebraContext(2, 2)
    d = ctx.diag(0, 1)
    p = ctx.mul(ctx.full_j, d, ctx.cyl(0, ctx.full_j, d))
    return p.plus == _ts(ctx.space, "", "00", "11")


def check_constants_double_suits():
    ctx = algebra.AlgebraContext(2, 2)
    return all(algebra.is_double_suit(ctx, e)
               for e in (ctx.zero, ctx.one, ctx.diag(0, 1), ctx.diag(0, 0)))


def _rooted_pool(ctx):
    pool = []
    for plus in range(ctx.all_teamsets + 1):
        if not plus & 1:
            continue
        for minus in range(ctx.all_teamsets + 1):
            if minus & 1:
                pool.append(algebra.Element(plus, minus))
    return pool


def check_rooted_bounds():
    ctx = algebra.AlgebraContext(2, 1)
    return all(algebra.leq(ctx.zero, x) and algebra.leq(x, ctx.one)
               for x in _rooted_pool(ctx))


def check_negation_antitone():
    ctx = algebra.AlgebraContext(2, 1)
    pool = _rooted_pool(ctx)
    return all(algebra.leq(x, y) == algebra.leq(ctx.neg(y), ctx.neg(x))
               for x in pool for y in pool)


def check_demorgan_rooted_dimension_one():
    ctx = algebra.AlgebraContext(2, 1)
    return algebra.check_law("demorgan", ctx, _rooted_pool(ctx)) is None


def check_empty_base_trivial_algebra():
    ctx = algebra.AlgebraContext(0, 1)
    return algebra.generate_subalgebra(ctx, []) == [ctx.omega]


def check_dimension_zero_algebra():
    ctx = algebra.AlgebraContext(2, 0)
    elems = algebra.generate_subalgebra(ctx, [])
    return set(elems) <= {ctx.zero, ctx.one, ctx.omega, ctx.mho}


def check_generated_double_suited():
    ctx = algebra.AlgebraContext(2, 1)
    elems = algebra.generate_subalgebra(ctx, [ctx.flat(1)])
    return all(algebra.is_double_suit(ctx, e) for e in elems)


def check_singleton_base_boolean():
    elems = algebra.cyls_of(Structure(1), 1)
    ctx = algebra.AlgebraContext(1, 1)
    return set(elems) == {ctx.zero, ctx.one}


def check_omega_in_two_element_base():
    return algebra.omega_in_cyls(Structure(2), 2) is True


def check_nonfalsity_witness():
    ctx = algebra.AlgebraContext(2, 2)
    ev = trump.Evaluator(_const2(), 2)
    x = ctx.add(ctx.full_j, ev.element(syntax.parse("v0=c0", 2)),
                ev.element(syntax.parse("v0=c1", 2)))
    d = ctx.diag(0, 1)
    empty = frozenset()
    e = ctx.mul(empty, ctx.cyl(0, empty, ctx.mul(empty, d, x)),
                ctx.cyl(0, empty, ctx.mul(empty, d, ctx.neg(x))))
    return algebra.leq(e, ctx.omega) and e.minus != ctx.zero.minus


# ---------------------------------------------------------------------------
# finlat


def check_named_algebra_K():
    k = finlat.named_algebra("K")
    return (k.size == 3 and k.leq(0, 1) and k.leq(1, 2)
            and k.neg == (2, 1, 0))


def check_named_algebra_SixKxM():
    alg = finlat.named_algebra("SixKxM")
    kind, center = finlat.classify_quantifier_type(alg)
    return (alg.size == 6 and kind == "type1"
            and sorted(set(alg.nabla)) == [alg.bottom, center, alg.top])


def check_named_algebra_NineMxM():
    alg = finlat.named_algebra("NineMxM")
    kind, pair = finlat.classify_quantifier_type(alg)
    return (alg.size == 9 and kind == "type2"
            and sorted(set(alg.nabla)) == sorted({alg.bottom, alg.top} | set(pair)))


def check_quantifier_axioms():
    for name in ("K_nabla0", "K_nabla1", "M_nabla0", "M_nabla2",
                 "SixKxM", "NineMxM"):
        alg = finlat.named_algebra(name)
        if finlat.check_quantifier(alg):
            return False
        facts = finlat.quantifier_facts(alg)
        if not (facts["top_fixed"] and facts["idempotent"]
                and facts["range_closed"]):
            return False
    return True


def check_quantifier_types():
    want = {"K_nabla0": "type0", "K_nabla1": "type1",
            "M_nabla0": "type0", "M_nabla2": "type2"}
    return all(finlat.classify_quantifier_type(
        finlat.named_algebra(name))[0] == kind
        for name, kind in want.items())


def check_kalman_subdirectly_irreducible():
    return all(finlat.is_subdirectly_irreducible(finlat.named_algebra(name))
               for name in ("B", "K", "M"))


def check_product_subalgebras_simple():
    return (finlat.is_simple(finlat.named_algebra("SixKxM"))
            and finlat.is_simple(finlat.named_algebra("NineMxM")))


def check_fix_marker():
    good = finlat.check_variety_markers(finlat.named_algebra("K_nabla1"))
    bad = finlat.check_variety_markers(finlat.named_algebra("K_nabla0"))
    return good["fix_marker"] and not bad["fix_marker"]


def check_embedding_minimal():
    ctx, mapping = finlat.embed_monadic_kleene(finlat.named_algebra("K_nabla1"))
    return (ctx.size == 1 and mapping[0] == ctx.zero
            and mapping[1] == ctx.omega and mapping[2] == ctx.one)


def _double_diamond():
    below = {0: set(), 1: {0}, 2: {0}, 3: {0, 1, 2},
             4: {0, 1, 2, 3}, 5: {0, 1, 2, 3}, 6: {0, 1, 2, 3, 4, 5}}

    def lt(x, y):
        return x == y or x in below[y]

    join, meet = finlat.lattice_from_leq(7, lt)
    return finlat.FinAlgebra(7, 0, 6, join, meet, [6, 4, 5, 3, 1, 2, 0])


def check_irreducibility_witnesses():
    m = finlat.named_algebra("M")
    dd = _double_diamond()
    return (not m.is_join_irreducible(m.top)
            and not dd.is_meet_irreducible(dd.bottom)
            and not dd.is_join_irreducible(dd.top)
            and finlat.named_algebra("K").is_join_irreducible(2))


CHECKS = [(name[len("check_"):].replace("_", "-"), fn)
          for name, fn in sorted(globals().items())
          if name.startswith("check_") and callable(fn)]


def run():
    """Run every check; returns a list of (name, passed) in name order."""
    results = []
    for name, fn in CHECKS:
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        results.append((name, ok))
    return results
