import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from ifg import syntax
from ifg.errors import IfgError, ParseError, GuardExceeded
from ifg.model import Structure

NVARS = 3

V = syntax.Var
ATOMS = [syntax.Eq(V(i), V(j)) for i in range(2) for j in range(2)]
ATOMS += [syntax.Rel("R", (V(0),)), syntax.Rel("S", (V(0), V(1))),
          syntax.Eq(V(0), syntax.Const("c")),
          syntax.Eq(syntax.App("f", (V(1),)), V(2))]

jsets = st.sets(st.integers(0, NVARS - 1), max_size=NVARS).map(frozenset)

nodes = st.recursive(
    st.sampled_from(ATOMS).map(syntax.atomic),
    lambda kids: st.one_of(
        kids.map(syntax.negate),
        st.tuples(jsets, kids, kids).map(lambda t: syntax.disj(*t)),
        st.tuples(st.integers(0, NVARS - 1), jsets, kids).map(
            lambda t: syntax.exists(*t))),
    max_leaves=5,
).filter(lambda n: n.height <= syntax.MAX_FORMULA_DEPTH)


def signature(size):
    """Interprets every symbol of the formulas of `nodes`."""
    return Structure(
        size, constants={"c": size - 1, "c0": 0, "c1": 1},
        functions={"f": (1, {(a,): (a + 1) % size for a in range(size)})},
        relations={"R": (1, {(0,)}), "P": (1, {(0,)}),
                   "S": (2, {(a, b) for a in range(size)
                             for b in range(size) if a <= b})})


# -- parsing and rendering ----------------------------------------------------


def test_parse_atom_kinds():
    f = syntax.parse("f(v0,c)=v1", 2)
    atom = f.root.atom
    assert atom == syntax.Eq(syntax.App("f", (V(0), syntax.Const("c"))), V(1))
    g = syntax.parse("R(v0,g(v1))", 2)
    assert g.root.atom == syntax.Rel("R", (V(0), syntax.App("g", (V(1),))))


def test_parse_slashed_connectives():
    f = syntax.parse("(v0=v1 \\/{0,1} ~R(v0))", 2)
    root = f.root
    assert isinstance(root, syntax.Or)
    assert root.jset == frozenset({0, 1})
    assert isinstance(root.right, syntax.Not)
    g = syntax.parse("E v1/{0} (v0=v1)", 2)
    assert isinstance(g.root, syntax.Exists)
    assert g.root.n == 1 and g.root.jset == frozenset({0})


def test_conj_and_forall_desugar():
    p = syntax.atomic(syntax.Eq(V(0), V(1)))
    q = syntax.atomic(syntax.Rel("R", (V(0),)))
    f = syntax.parse("(v0=v1 /\\{1} R(v0))", 2)
    assert f.root is syntax.conj({1}, p, q)
    assert f.root is syntax.negate(syntax.disj({1}, syntax.negate(p),
                                               syntax.negate(q)))
    g = syntax.parse("A v0/{} R(v0)", 2)
    assert g.root is syntax.forall(0, set(), q)
    assert g.root is syntax.negate(syntax.exists(0, set(), syntax.negate(q)))


def test_plain_grouping():
    assert syntax.parse("((v0=v1))", 2).root is syntax.parse("v0=v1", 2).root


def test_interning_shares_nodes():
    a = syntax.parse("(v0=v1 \\/{0} v0=v1)", 2).root
    b = syntax.parse("( v0 = v1 \\/{0} v0 = v1 )", 2).root
    assert a is b
    assert a.left is a.right


def test_roundtrip_examples():
    texts = ["v0=v1", "~R(v0)", "(v0=v1 \\/{} ~(v0=v1))",
             "A v0/{} E v1/{0} (v0=v1)", "E v2/{0,1} (f(v0)=c \\/{2} v1=v2)"]
    for text in texts:
        f = syntax.parse(text, NVARS)
        again = syntax.parse(syntax.render(f.root), NVARS)
        assert again.root is f.root


@given(nodes)
def test_roundtrip_random(node):
    assert syntax.parse(syntax.render(node), NVARS).root is node


# -- formula structure --------------------------------------------------------


def test_positions_and_polarity():
    f = syntax.parse("~(v0=v1 \\/{0} ~R(v0))", 2)
    subs = {pos: (node, pol) for pos, node, pol in f.subformulas()}
    assert set(subs) == {(), (0,), (0, 1), (0, 2), (0, 2, 0)}
    assert subs[()][1] is True
    assert subs[(0,)][1] is False
    assert subs[(0, 1)][1] is False
    assert subs[(0, 2)][1] is False
    assert subs[(0, 2, 0)][1] is True
    assert isinstance(subs[(0, 2, 0)][0], syntax.Atomic)


def test_node_at():
    f = syntax.parse("E v1/{0} (v0=v1 \\/{} v1=v1)", 2)
    assert f.node_at(()) is f.root
    assert f.node_at((3, 1)) is f.root.child.left
    with pytest.raises(IfgError):
        f.node_at((1,))


def test_unbound_sets():
    f = syntax.parse("E v0/{} (R(v0) \\/{} A v1/{0} v1=v1)", 2)
    ub = f.unbound_sets()
    assert ub[()] == frozenset()
    assert ub[(3,)] == frozenset({0})
    assert ub[(3, 2, 0, 3)] == frozenset({0, 1})


def test_is_sentence():
    assert syntax.parse("A v0/{} E v1/{0} (v0=v1)", 2).is_sentence()
    assert not syntax.parse("E v1/{0} (v0=v1)", 2).is_sentence()
    assert syntax.parse("c=c", 0).is_sentence()


@given(nodes)
def test_freevars_match_subformula_scan(node):
    f = syntax.Formula(node, NVARS)
    ub = f.unbound_sets()
    for pos, sub, _ in f.subformulas():
        if isinstance(sub, syntax.Atomic):
            assert syntax.atom_vars(sub.atom) - ub[pos] <= node.freevars


# -- guards and errors --------------------------------------------------------


def test_depth_guard_on_construction():
    node = syntax.atomic(syntax.Eq(V(0), V(0)))
    for _ in range(syntax.MAX_FORMULA_DEPTH):
        node = syntax.negate(node)
    with pytest.raises(GuardExceeded):
        syntax.Formula(node, 1)


def test_depth_guard_on_parse():
    with pytest.raises(GuardExceeded):
        syntax.parse("~" * 20 + "v0=v0", 1)


def test_variable_out_of_range():
    with pytest.raises(IfgError):
        syntax.parse("v2=v0", 2)
    with pytest.raises(IfgError):
        syntax.parse("E v0/{3} v0=v0", 2)


PARSE_ERRORS = [
    ("v0=", "expected term at offset 3"),
    ("(v0=v1", "expected operator or ')' at offset 6"),
    ("v0 v1", "expected '=' after term at offset 3"),
    ("E v0/{x} v0=v0", "expected index at offset 6"),
    ("v0=v1)", "unexpected ')' at offset 5"),
    ("(v0=v1 \\/ v0=v1)", "expected '{' but found 'v0' at offset 10"),
    ("$", "unexpected character '$' at offset 0"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            syntax.parse(text, 2)
        assert str(err.value) == message, text


# -- terms and atoms are values -----------------------------------------------


def test_terms_and_atoms_are_values():
    """Equal when of the same class with equal fields, hashed alike."""
    x = V(0)
    assert V(0) == x and hash(V(0)) == hash(x)
    assert V(0) != V(1) and V(0) != syntax.Const("v0")
    assert syntax.App("f", (x,)) != syntax.Rel("f", (x,))
    assert syntax.Rel("f", (x,)) == syntax.Rel("f", (V(0),))
    assert x != (0,) and (0,) != x
    assert syntax.Const("c") != "c"
    a = syntax.Eq(syntax.App("f", (x,)), syntax.Const("c"))
    b = syntax.Eq(syntax.App("f", (V(0),)), syntax.Const("c"))
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, syntax.Eq(syntax.Const("c"), syntax.App("f", (x,)))}) == 2
    assert syntax.atomic(a) is syntax.atomic(b)
    r = syntax.Rel("R", (x, V(1)))
    assert syntax.atomic(r) is syntax.atomic(syntax.Rel("R", (V(0), V(1))))
    assert syntax.atomic(r) is not syntax.atomic(syntax.Rel("R", (V(1), x)))


def test_terms_and_atoms_refuse_assignment():
    for value, field in ((V(0), "index"), (syntax.Const("c"), "name"),
                         (syntax.App("f", (V(0),)), "args"),
                         (syntax.Eq(V(0), V(1)), "lhs"),
                         (syntax.Rel("R", (V(0),)), "name")):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = 1
        assert repr(value) == before


def test_term_and_atom_text():
    x = V(0)
    a = syntax.Eq(syntax.App("f", (x,)), syntax.Const("c"))
    assert repr(a) == ("Eq(lhs=App(name='f', args=(Var(index=0),)), "
                       "rhs=Const(name='c'))")
    assert str(a) == "f(v0)=c"
    r = syntax.Rel("R", (x, V(1)))
    assert repr(r) == "Rel(name='R', args=(Var(index=0), Var(index=1)))"
    assert str(r) == "R(v0,v1)"
    assert syntax.Var(index=3) == V(3)


def test_terms_and_atoms_pickle():
    a = syntax.Rel("R", (V(0), syntax.App("g", (syntax.Const("c"),))))
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a


def test_negative_nvars():
    with pytest.raises(IfgError):
        syntax.parse("c=c", -1)
