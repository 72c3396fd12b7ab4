"""Every MiniC and logic node class behaves as the frozen dataclass it used
to be: the reference for each class is a `@dataclass(frozen=True)` built
here from the class's own fields."""

import dataclasses

import pytest

import relprop.cli  # the checks below hold after the CLI is loaded
from relprop import logic, minic
from relprop.frozen import Frozen
from relprop.minic import (
    INT, Binder, Contract, FunctionDef, GlobalDecl, Node, Param,
    PredicateDecl, Program, Span, Var, map_nodes,
)

# The classes of those modules that are not nodes.
NOT_NODES = {"Span", "Diagnostic", "_Interned", "_Facts"}
GENERATED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
             "__delattr__")

CLASSES = [cls for module in (minic, logic) for cls in vars(module).values()
           if isinstance(cls, type) and cls.__module__ == module.__name__
           and cls.__name__ not in NOT_NODES]
SPAN = Span("t.mc", 1, 2, 3, 4)


def reference(cls):
    """The frozen dataclass `cls` was: its fields, with structural equality
    for MiniC nodes and identity for logic nodes."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(
            default=f.default, compare=f.compare, repr=f.repr,
            kw_only=f.kw_only)) for f in dataclasses.fields(cls)],
        frozen=True, eq=issubclass(cls, Node))


def arguments(cls, tag: str = "a") -> tuple:
    """A value for each positional field: a node below a MiniC node, a
    string below a logic node."""
    names = cls.__match_args__
    if issubclass(cls, Node):
        return tuple(Var(f"{tag}{i}") for i in range(len(names)))
    return tuple(f"{tag}{i}" for i in range(len(names)))


def test_every_node_class_is_listed():
    assert len(CLASSES) == 52 + 13
    assert all(issubclass(cls, Frozen) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_node_class_generates_its_own_methods(cls):
    own = [name for name in GENERATED if name in vars(cls)]
    if cls is Node:
        assert own == ["__eq__", "__hash__"]
    else:
        assert own == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_matches_the_dataclass(cls):
    args = arguments(cls)
    ref = reference(cls)
    if issubclass(cls, Node):
        assert repr(cls(*args, span=SPAN)) == repr(ref(*args, span=SPAN))
    else:
        assert repr(cls(*args)) == repr(ref(*args))


@pytest.mark.parametrize("cls", [c for c in CLASSES if issubclass(c, Node)],
                         ids=lambda c: c.__name__)
def test_minic_equality_ignores_the_span(cls):
    args = arguments(cls)
    node = cls(*args, span=SPAN)
    assert node == cls(*args) and not node != cls(*args)
    assert hash(node) == hash(cls(*args))
    assert hash(node) == hash(reference(cls)(*args))
    assert node.span is SPAN and cls(*args).span is None
    if args:
        assert node != cls(*arguments(cls, "b"))
    assert node != object()


@pytest.mark.parametrize("cls", [c for c in CLASSES if not issubclass(c, Node)],
                         ids=lambda c: c.__name__)
def test_logic_nodes_are_interned_and_compare_by_identity(cls):
    node = cls(*arguments(cls))
    assert cls(*arguments(cls)) is node
    assert hash(node) == object.__hash__(node)
    other = cls(*arguments(cls, "b"))
    assert other is not node and other != node


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_nodes_are_frozen(cls):
    node = cls(*arguments(cls))
    for name in [f.name for f in dataclasses.fields(cls)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_wrong_argument_count_is_a_type_error(cls):
    args = arguments(cls)
    with pytest.raises(TypeError):
        cls(*args, "extra")
    required = [f for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError):
            cls(*args[:len(required) - 1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_span_then_the_declared_order(cls):
    own = [n for n in vars(cls).get("__annotations__", {}) if n != "span"]
    names = [f.name for f in dataclasses.fields(cls)]
    assert dataclasses.is_dataclass(cls)
    if issubclass(cls, Node):
        assert names == ["span", *own]
        assert tuple(own) == cls.__match_args__
    else:
        assert names == own


def test_fields_of_a_function_definition():
    assert [f.name for f in dataclasses.fields(FunctionDef)] == \
        ["span", "name", "formals", "ret", "body", "contract"]


@pytest.mark.parametrize("cls", [c for c in CLASSES if issubclass(c, Node)],
                         ids=lambda c: c.__name__)
def test_keyword_construction_equals_positional(cls):
    args = arguments(cls)
    by_name = cls(**dict(zip(cls.__match_args__, args)), span=SPAN)
    assert by_name == cls(*args) and by_name.span is SPAN
    assert repr(by_name) == repr(reference(cls)(*args))
    with pytest.raises(TypeError):
        cls(*args, spam=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{cls.__match_args__[0]: args[0]})


def test_defaults_and_keywords_of_the_classes_that_have_them():
    assert Binder("x") == Binder(name="x", ty=INT) == Binder("x", INT)
    assert Param("p").ty == INT and Param(name="p", ty="int*").ty == "int*"
    assert Contract() == Contract((), (), (), (), ())
    assert Contract(ensures=(Var("e"),)).requires == ()
    assert GlobalDecl("g") == GlobalDecl("g", INT, None)
    assert GlobalDecl("g", init=3).init == 3
    fn = FunctionDef(name="f", formals=(), ret=INT, body=())
    assert fn.contract == Contract() and fn == FunctionDef("f", (), INT, ())
    assert Program().items == () and Program(items=()).functions == ()
    assert PredicateDecl("p", (), ()).reads == ()
    for node in (Binder("x"), Contract(), GlobalDecl("g"), fn, Program(),
                 PredicateDecl("p", (), ())):
        ref = reference(type(node))
        assert repr(node) == repr(ref(*[getattr(node, n)
                                        for n in type(node).__match_args__]))


@pytest.mark.parametrize("cls", [c for c in CLASSES if issubclass(c, Node)],
                         ids=lambda c: c.__name__)
def test_map_nodes_keeps_the_span(cls):
    node = cls(*arguments(cls), span=SPAN)
    out = map_nodes(node, lambda n: Var("z")
                    if isinstance(n, Var) and n is not node else None)
    assert type(out) is cls and out.span is SPAN
    assert all(getattr(out, name) in (Var("z"), getattr(node, name))
               for name in cls.__match_args__)
