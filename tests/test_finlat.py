import itertools

import pytest

from ifg import finlat, algebra
from ifg.finlat import FinAlgebra, named_algebra
from ifg.errors import IfgError, ParseError, GuardExceeded


def chain(n):
    join, meet = finlat.lattice_from_leq(n, lambda x, y: x <= y)
    return FinAlgebra(n, 0, n - 1, join, meet, [n - 1 - x for x in range(n)])


def boolean_diamond():
    # 0 < a=1, b=2 < 3 with complement negation
    def leq(x, y):
        return x == y or x == 0 or y == 3
    join, meet = finlat.lattice_from_leq(4, leq)
    return FinAlgebra(4, 0, 3, join, meet, [3, 2, 1, 0])


def double_diamond():
    below = {0: set(), 1: {0}, 2: {0}, 3: {0, 1, 2},
             4: {0, 1, 2, 3}, 5: {0, 1, 2, 3}, 6: {0, 1, 2, 3, 4, 5}}

    def leq(x, y):
        return x == y or x in below[y]

    join, meet = finlat.lattice_from_leq(7, leq)
    return FinAlgebra(7, 0, 6, join, meet, [6, 4, 5, 3, 1, 2, 0])


# -- construction and validation -------------------------------------------------


def test_named_algebras():
    b = named_algebra("B")
    assert b.size == 2 and b.neg == (1, 0)
    k = named_algebra("K")
    assert k.size == 3 and k.neg == (2, 1, 0) and k.fixed_points() == [1]
    m = named_algebra("M")
    assert m.size == 4 and sorted(m.fixed_points()) == [1, 2]
    assert m.join[1][2] == m.top and m.meet[1][2] == m.bottom
    assert named_algebra("K_nabla0").nabla == (0, 2, 2)
    assert named_algebra("K_nabla1").nabla == (0, 1, 2)
    assert named_algebra("SixKxM").size == 6
    assert named_algebra("NineMxM").size == 9
    with pytest.raises(IfgError):
        named_algebra("nope")


def test_validation_rejects_nondistributive():
    # M3: three incomparable atoms below the top
    def leq(x, y):
        return x == y or x == 0 or y == 4
    join, meet = finlat.lattice_from_leq(5, leq)
    with pytest.raises(IfgError):
        FinAlgebra(5, 0, 4, join, meet)


def test_validation_rejects_bad_negation():
    k = named_algebra("K")
    with pytest.raises(IfgError):
        FinAlgebra(3, 0, 2, k.join, k.meet, [0, 1, 2])  # not De Morgan
    with pytest.raises(IfgError):
        FinAlgebra(3, 0, 2, k.join, k.meet, [2, 1])  # wrong shape


def test_lattice_from_leq_requires_lattice():
    with pytest.raises(IfgError):
        finlat.lattice_from_leq(2, lambda x, y: x == y)  # no bounds


def test_product_and_subalgebra():
    k = named_algebra("K")
    prod, pairs = finlat.product(k, k)
    assert prod.size == 9
    assert pairs[prod.bottom] == (0, 0) and pairs[prod.top] == (2, 2)
    diag = [pairs.index((x, x)) for x in range(3)]
    sub, old = finlat.subalgebra(prod, diag)
    assert sub.size == 3 and old == sorted(diag)
    with pytest.raises(IfgError):
        finlat.subalgebra(prod, [prod.bottom, pairs.index((0, 2))])


def test_file_roundtrip():
    alg = named_algebra("K_nabla1")
    again = FinAlgebra.parse(alg.render())
    assert (again.join, again.meet, again.neg, again.nabla) == (
        alg.join, alg.meet, alg.neg, alg.nabla)
    with pytest.raises(ParseError):
        FinAlgebra.parse("carrier 2\nbottom 0\ntop 1\njoin:\n0 1\n")


# -- quantifiers -------------------------------------------------------------------


def test_quantifier_axioms_on_named_algebras():
    for name in ("K_nabla0", "K_nabla1", "M_nabla0", "M_nabla2",
                 "SixKxM", "NineMxM"):
        assert finlat.check_quantifier(named_algebra(name)) == []


def test_genuine_q4_violation():
    alg = boolean_diamond().with_nabla([0, 1, 3, 3])
    assert "Q4" in finlat.check_quantifier(alg)
    # while the identity-except-a table on K is just the type 0 quantifier
    assert finlat.check_quantifier(named_algebra("K_nabla0")) == []


def test_quantifier_facts():
    facts = finlat.quantifier_facts(named_algebra("K_nabla1"))
    assert facts == {"top_fixed": True, "idempotent": True,
                     "range_closed": True, "range": [0, 1, 2]}
    assert finlat.quantifier_facts(named_algebra("K_nabla0"))["range"] == [0, 2]


def test_classify_quantifier_types():
    assert finlat.classify_quantifier_type(named_algebra("K_nabla0"))[0] == "type0"
    assert finlat.classify_quantifier_type(named_algebra("K_nabla1")) == ("type1", 1)
    assert finlat.classify_quantifier_type(named_algebra("M_nabla0"))[0] == "type0"
    kind, pair = finlat.classify_quantifier_type(named_algebra("M_nabla2"))
    assert kind == "type2" and sorted(pair) == [1, 2]
    m = named_algebra("M")
    assert finlat.classify_quantifier_type(m.with_nabla([0, 1, 1, 3])) == (None, None)
    with pytest.raises(IfgError):
        finlat.classify_quantifier_type(m)


# -- congruences ---------------------------------------------------------------------


def compatible(alg, part):
    n = alg.size
    ok = all(part[alg.join[x][y]] == part[alg.join[x2][y2]]
             and part[alg.meet[x][y]] == part[alg.meet[x2][y2]]
             for x in range(n) for y in range(n)
             for x2 in range(n) if part[x] == part[x2]
             for y2 in range(n) if part[y] == part[y2])
    if alg.neg is not None:
        ok = ok and all(part[alg.neg[x]] == part[alg.neg[y]]
                        for x in range(n) for y in range(n)
                        if part[x] == part[y])
    return ok


def test_congruences_are_compatible():
    for alg in (named_algebra("K"), named_algebra("M"), double_diamond()):
        parts = finlat.congruences(alg)
        assert tuple(range(alg.size)) in parts
        assert tuple([0] * alg.size) in parts
        for part in parts:
            assert compatible(alg, part)


def test_simplicity_and_irreducibility():
    for name in ("B", "K", "M"):
        assert finlat.is_subdirectly_irreducible(named_algebra(name))
    assert finlat.is_simple(named_algebra("SixKxM"))
    assert finlat.is_simple(named_algebra("NineMxM"))
    kk, _ = finlat.product(named_algebra("K"), named_algebra("K"))
    assert not finlat.is_subdirectly_irreducible(kk)
    assert len(finlat.congruences(kk)) == 4
    dd = double_diamond()
    assert not finlat.is_subdirectly_irreducible(dd)


def test_congruence_guard():
    with pytest.raises(GuardExceeded):
        finlat.congruences(chain(13))


# -- variety markers and structure lemmas ----------------------------------------------


def test_variety_markers():
    b = finlat.check_variety_markers(named_algebra("B"))
    assert b["boolean"] and b["kleene"] and not b["centered"]
    k = finlat.check_variety_markers(named_algebra("K"))
    assert k["kleene"] and not k["boolean"] and k["centered"]
    m = finlat.check_variety_markers(named_algebra("M"))
    assert m["distributive"] and not m["kleene"]
    six = finlat.check_variety_markers(named_algebra("SixKxM"))
    assert not six["kleene"]
    assert finlat.check_variety_markers(named_algebra("K_nabla1"))["fix_marker"]
    assert not finlat.check_variety_markers(named_algebra("K_nabla0"))["fix_marker"]


def test_centered_kleene_center_is_unique():
    for alg in (named_algebra("K"), chain(5), chain(7)):
        markers = finlat.check_variety_markers(alg)
        assert markers["kleene"] and markers["centered"]
        assert len(alg.fixed_points()) == 1


def test_type1_feasibility_lemma():
    # in a centered Kleene algebra only 0 meets the center at 0
    for alg in (named_algebra("K"), chain(5)):
        (c,) = alg.fixed_points()
        assert [x for x in range(alg.size)
                if alg.meet[x][c] == alg.bottom] == [alg.bottom]


def test_type2_feasibility_lemma():
    # complementary fixed points a, b: what misses a is exactly [0, b]
    for alg, a, b in ((named_algebra("M"), 1, 2),
                      (named_algebra("NineMxM"),) + finlat.classify_quantifier_type(
                          named_algebra("NineMxM"))[1]):
        assert alg.meet[a][b] == alg.bottom and alg.join[a][b] == alg.top
        misses = [x for x in range(alg.size) if alg.meet[x][a] == alg.bottom]
        assert sorted(misses) == sorted(x for x in range(alg.size)
                                        if alg.leq(x, b))


def test_irreducibility_witnesses():
    m = named_algebra("M")
    assert not m.is_join_irreducible(m.top)  # top = a v b
    assert not m.is_meet_irreducible(m.bottom)  # bottom = a ^ b
    dd = double_diamond()
    assert not dd.is_meet_irreducible(dd.bottom)
    assert not dd.is_join_irreducible(dd.top)
    k = named_algebra("K")
    assert k.is_join_irreducible(k.top) and k.is_meet_irreducible(k.bottom)


def test_nine_fixed_points_not_fixed_by_nabla():
    alg = named_algebra("NineMxM")
    kind, (a, b) = finlat.classify_quantifier_type(alg)
    mixed = [x for x in alg.fixed_points() if x not in (a, b)]
    assert mixed and all(alg.nabla[x] != x for x in mixed)


# -- the bridge to one-dimensional team algebras -----------------------------------------


def test_monadic_reduct_of_generated_algebra():
    ctx = algebra.AlgebraContext(2, 1)
    elems = algebra.generate_subalgebra(ctx, [ctx.flat(1)])
    assert all(algebra.is_double_suit(ctx, e) for e in elems)
    assert ctx.omega in elems
    alg, order = finlat.monadic_reduct(ctx, elems)
    assert finlat.check_quantifier(alg) == []
    kind, center = finlat.classify_quantifier_type(alg)
    assert kind == "type1" and order[center] == ctx.omega
    markers = finlat.check_variety_markers(alg)
    assert markers["kleene"] and markers["centered"]


def test_monadic_reduct_requires_closure_and_dimension():
    ctx = algebra.AlgebraContext(2, 1)
    with pytest.raises(IfgError):
        finlat.monadic_reduct(ctx, [ctx.zero, ctx.one, ctx.flat(1)])  # not closed
    ctx2 = algebra.AlgebraContext(2, 2)
    with pytest.raises(IfgError):
        finlat.monadic_reduct(ctx2, [ctx2.zero, ctx2.one])


def test_cyl_of_meet_with_negation_below_its_negation():
    # C(X * ~X) <= ~C(X * ~X) over all double suits in dimension one
    ctx = algebra.AlgebraContext(2, 1)
    j = frozenset({0})
    suits = [m for m in range(1, ctx.all_teamsets + 1)
             if algebra.is_suit(ctx, m)]
    for plus in suits:
        for minus in suits:
            if plus & minus != 1:
                continue
            x = algebra.Element(plus, minus)
            c = ctx.cyl(0, j, ctx.mul(j, x, ctx.neg(x)))
            assert algebra.leq(c, ctx.neg(c))


# -- the embedding ------------------------------------------------------------------------


def test_embed_minimal_kleene():
    ctx, mapping = finlat.embed_monadic_kleene(named_algebra("K_nabla1"))
    assert ctx.size == 1
    assert mapping[0] == ctx.zero
    assert mapping[1] == ctx.omega
    assert mapping[2] == ctx.one


def test_embed_five_chain():
    alg = chain(5).with_nabla(finlat.type1_table(chain(5), 2))
    ctx, mapping = finlat.embed_monadic_kleene(alg)
    assert len(set(mapping.values())) == 5
    assert all(algebra.is_rooted(e) for e in mapping.values())
    j = frozenset({0})
    for x in range(5):
        assert mapping[alg.nabla[x]] == ctx.cyl(0, j, mapping[x])


def test_embed_preconditions():
    with pytest.raises(IfgError):
        finlat.embed_monadic_kleene(named_algebra("K"))  # no quantifier
    with pytest.raises(IfgError):
        finlat.embed_monadic_kleene(named_algebra("K_nabla0"))  # type 0
    m1 = named_algebra("M").with_nabla(finlat.type1_table(named_algebra("M"), 1))
    with pytest.raises(IfgError):
        finlat.embed_monadic_kleene(m1)  # M is not Kleene
    dd = double_diamond().with_nabla(
        finlat.type1_table(double_diamond(), 3))
    with pytest.raises(IfgError):
        finlat.embed_monadic_kleene(dd)  # reducible bounds


def test_search_embeddable_small():
    algs = finlat.search_embeddable(3, 5)
    assert [a.size for a in algs] == [3]
    assert algs[0].nabla == named_algebra("K_nabla1").nabla


def _enumerated_filters(alg, c):
    """Brute-force reference: every proper prime filter of [c, top], found
    by testing each subset of the interval."""
    interval = [x for x in range(alg.size) if alg.leq(c, x)]
    filters = []
    for k in range(1, len(interval) + 1):
        for combo in itertools.combinations(interval, k):
            fset = frozenset(combo)
            if len(fset) == len(interval):
                continue  # proper filters only
            if not all(alg.meet[x][y] in fset for x in fset for y in fset):
                continue
            if not all(y in fset for x in fset for y in interval
                       if alg.leq(x, y)):
                continue
            if not all(x in fset or y in fset
                       for x in interval for y in interval
                       if alg.join[x][y] in fset):
                continue
            filters.append(fset)
    return sorted(filters, key=lambda f: (len(f), sorted(f)))


def test_interval_filters_match_enumeration():
    """Prime filters from join-irreducibles agree with the subset search on
    every interval of the downset lattices with at most 8 elements."""
    lattices = intervals = 0
    for points in range(6):
        for leq in finlat._posets(points):
            n, join, meet, _ = finlat._downset_lattice(points, leq)
            if n > 8:
                continue
            alg = FinAlgebra(n, 0, n - 1, join, meet, validate=False)
            lattices += 1
            for c in range(n):
                intervals += 1
                assert (finlat._interval_filters(alg, c)
                        == _enumerated_filters(alg, c))
    assert (lattices, intervals) == (996, 7209)
