"""Every MiniC and logic node class behaves as the frozen dataclass it used
to be: the reference for each class is a `@dataclass(frozen=True)` built
here from the class's own fields."""

import dataclasses
import inspect

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


def own_methods(cls) -> list[str]:
    """The methods of GENERATED that `cls` compiled for itself when it was
    made, as `dataclass` does: their code comes from a string, not a file."""
    methods = {name: inspect.unwrap(vars(cls)[name]) for name in GENERATED
               if callable(vars(cls).get(name))}
    return [name for name, method in methods.items() if getattr(
        getattr(method, "__code__", None), "co_filename", None) == "<string>"]


def own_names(cls) -> list[str]:
    """The methods of GENERATED in the own namespace of `cls`, generated or
    written by hand, leaving out only the identity `==` and `hash` that
    `eq=False` puts there."""
    return [name for name in GENERATED if name in vars(cls)
            and vars(cls)[name] not in (object.__eq__, object.__hash__)]


def test_checker_flags_a_generated_method():
    assert own_methods(dataclasses.make_dataclass("R", ["a"])) == \
        ["__init__", "__eq__", "__repr__"]


def test_checker_flags_a_hand_written_method():
    class Written(Frozen):
        a: int

        def __repr__(self):
            return "Written"

    class Identity(Frozen, eq=False):
        a: int

    assert own_names(Written) == ["__repr__"] and own_methods(Written) == []
    assert own_names(Identity) == [] and Identity(1) != Identity(1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_node_class_generates_its_own_methods(cls):
    assert own_names(cls) == []
    assert own_methods(cls) == []
    if issubclass(cls, Node):  # one value equality, shared with the records
        assert (cls.__eq__, cls.__hash__) == (Frozen.__eq__, Frozen.__hash__)
    elif cls is not Node:
        assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)


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


# -- records -----------------------------------------------------------------
# The other immutable records of the package, each with an example: the
# keyword arguments of one instance and, by name, a second value for one
# field that `==` compares.

import importlib
from pathlib import Path

import relprop

bounded, dynamic, interp, prove, selfcomp, validate, vcgen = (
    importlib.import_module(f"relprop.{name}") for name in
    ("bounded", "dynamic", "interp", "prove", "selfcomp", "validate", "vcgen"))
from relprop.logic import FALSE, TRUE
from relprop.minic import GlobalLoc

OBLIGATION = vcgen.Obligation(None, TRUE)
EXAMPLES = {
    minic.Span: (dict(file="f.mc", start_line=1, start_col=2, end_line=3,
                      end_col=4), ("end_col", 5)),
    minic.Diagnostic: (dict(severity="error", span=SPAN, message="m"),
                       ("message", "n")),
    validate.MemFootprint: (dict(writes=frozenset({GlobalLoc("g")}),
                                 reads=frozenset()), ("reads", frozenset({GlobalLoc("h")}))),
    validate._Scope: (dict(program=Program(), ctx="code", names={"x": INT},
                           globals={}, labels={}, calls={}), ("where", "R: ")),
    selfcomp.Renaming: (dict(call_id="id1", index=1, globals={"g": "g_id1"},
                             pointers={}, locals={"x": "x_id1"}, ret_var=None),
                        ("index", 2)),
    selfcomp.WrapperFunction: (dict(fn=FunctionDef("w", (), INT, ()), clause="R",
                                    renamings=(), binder_params=("x1",),
                                    pointer_params=(), dup_globals=()),
                               ("clause", "S")),
    selfcomp.ClauseArtifacts: (dict(clause="R", index=1, wrapper="w",
                                    axiomatic="A", lemma_name="R_lemma"),
                               ("index", 2)),
    selfcomp.TransformedProgram: (dict(program=Program(), source=Program(),
                                       entries=(), acsl_symbols={}),
                                  ("entries", ("e",))),
    vcgen.VerificationCondition: (dict(name="t", function="f", assertion="a",
                                       kind="assert", obligation=OBLIGATION,
                                       hypotheses=(("h", FALSE),)),
                                  ("kind", "ensures")),
    vcgen._Frame: (dict(assume=TRUE, fresh=("v",), links=frozenset({"g"})), None),
    vcgen._Item: (dict(kind="assert", label="a", span=None, form=TRUE,
                       path=None), ("form", FALSE)),
    bounded.BoundedResult: (dict(status="valid", bound=8), ("rows", 3)),
    prove.ProofRun: (dict(vcs=(), results={}), ("vcs", ("v",))),
    dynamic.InputVector: (dict(values={"x": 1}), ("seed", 7)),
    dynamic.CheckReport: (dict(property="P", outcome="pass",
                               input=dynamic.InputVector({"x": 1})),
                          ("outcome", "fail")),
}
RECORDS = list(EXAMPLES)
# Records that were mutable dataclasses; they are frozen now.
WERE_MUTABLE = {validate._Scope, vcgen._Item}


def example(cls, **changes):
    return cls(**{**EXAMPLES[cls][0], **changes})


def record_reference(cls):
    """The dataclass `cls` was, for its repr and its compared fields."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            compare=f.compare, repr=f.repr))
         for f in dataclasses.fields(cls) if f.init])


def compared(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record)
                 if f.compare)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_repr_matches_the_dataclass(cls):
    record = example(cls)
    ref = record_reference(cls)
    shown = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)
             if f.init}
    assert repr(record) == repr(ref(**shown))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_equality_is_field_wise(cls):
    record = example(cls)
    if cls is vcgen._Frame:
        assert record == record and record != example(cls)
        assert hash(record) == object.__hash__(record)
        return
    assert record == example(cls) and not record != example(cls)
    name, value = EXAMPLES[cls][1]
    assert record != example(cls, **{name: value})
    assert record != object()
    if cls in WERE_MUTABLE:
        return
    try:
        expected = hash(compared(record))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(example(cls))


def test_verification_condition_equality_ignores_the_span():
    vc = example(vcgen.VerificationCondition, span=SPAN)
    plain = example(vcgen.VerificationCondition)
    assert vc == plain and hash(vc) == hash(plain) and vc.span is SPAN
    assert "span" not in repr(vc) or repr(vc).endswith(f"span={SPAN!r})")


def test_a_verification_condition_wraps_a_bare_goal():
    vc = example(vcgen.VerificationCondition, obligation=FALSE)
    assert isinstance(vc.obligation, vcgen.Obligation)
    assert vc.obligation.frame is None and vc.goal is FALSE


def test_frames_derive_their_path_links_and_binder():
    outer = vcgen._Frame(TRUE, ("v",), frozenset({"g"}))
    inner = vcgen._Frame(FALSE, outer=outer)
    innermost = vcgen._Frame(TRUE, ("w",), frozenset({"h"}), inner)
    assert outer.binder is outer and inner.binder is outer
    assert innermost.binder is outer
    assert inner.path_links == frozenset({"g"})
    assert innermost.path_links == frozenset({"g", "h"})
    assert vcgen._Frame(TRUE).binder is None
    assert vcgen._Frame(TRUE).path_links == frozenset()
    assert repr(inner) == (f"_Frame(assume={FALSE!r}, fresh=(), "
                           f"links=frozenset(), outer={outer!r})")


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in WERE_MUTABLE],
                         ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    record = example(cls)
    for name in [f.name for f in dataclasses.fields(cls)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_fields_replace_and_keywords(cls):
    assert dataclasses.is_dataclass(cls)
    record = example(cls)
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    kwargs = EXAMPLES[cls][0]
    assert set(kwargs) <= set(names)
    positional = [getattr(record, n) for n in names]
    again = cls(*positional)
    assert repr(again) == repr(record)
    assert [getattr(again, n) for n in names] == positional
    if EXAMPLES[cls][1] is not None:
        name, value = EXAMPLES[cls][1]
        changed = dataclasses.replace(record, **{name: value})
        assert getattr(changed, name) == value
        assert changed == example(cls, **{name: value})
        assert all(getattr(changed, n) == getattr(record, n)
                   for n in names if n != name)
    with pytest.raises(TypeError):
        cls(*positional, "extra")
    with pytest.raises(TypeError):
        cls(**kwargs, spam=1)


def test_record_defaults():
    scope = example(validate._Scope)
    assert (scope.result, scope.where) == (False, "")
    assert scope.unbound == "undefined variable {}"
    frame = vcgen._Frame(TRUE)
    assert (frame.fresh, frame.links, frame.outer) == ((), frozenset(), None)
    vc = example(vcgen.VerificationCondition)
    assert (vc.links, vc.clause, vc.replayable, vc.span) == \
        ((), None, False, None)
    r = bounded.BoundedResult("unknown", 2)
    assert (r.assignment, r.method, r.rows, r.reason) == \
        (None, "enumeration", 0, None)
    assert bounded.BoundedResult("valid", 8, method="instantiation") == \
        bounded.BoundedResult("valid", 8, None, "instantiation", 0, None)
    v = dynamic.InputVector({"x": 1})
    assert (v.property, v.strategy, v.seed) == (None, None, None)
    assert example(dynamic.CheckReport).error is None


def test_span_is_a_keyword_only_where_it_is_a_field():
    vc = example(vcgen.VerificationCondition)
    every_field = [getattr(vc, f.name) for f in dataclasses.fields(vc)]
    for build in (lambda: Span("f.mc", 1, 2, 3, 4, span=SPAN),
                  lambda: bounded.BoundedResult("valid", 8, span=SPAN),
                  lambda: minic.Diagnostic("error", SPAN, "m", span=SPAN),
                  lambda: vcgen.VerificationCondition(*every_field, span=SPAN)):
        with pytest.raises(TypeError):
            build()
    d = minic.Diagnostic("error", message="m", span=SPAN)
    assert d == minic.Diagnostic("error", SPAN, "m") and d.span is SPAN
    assert example(vcgen.VerificationCondition, span=SPAN).span is SPAN


def test_a_scope_replaces_only_its_fields():
    scope = example(validate._Scope)
    assert scope.replace(where="R: ").where == "R: " and scope.where == ""
    with pytest.raises(TypeError):
        scope.replace(nmaes={})


def test_machine_state_defaults_and_cells():
    state = interp.State()
    assert (state.globals, state.heap) == ({}, {})
    assert interp.State().globals is not state.globals
    assert state.alloc(5) == 1 and state.alloc(6) == 2
    assert state.heap == {1: 5, 2: 6}
    given = interp.State({"g": 1}, {1: 2})
    assert (given.globals, given.heap) == ({"g": 1}, {1: 2})


def test_every_record_is_frozen():
    """Every dataclass of the package is a `Frozen` record."""
    modules = [importlib.import_module(f"relprop.{p.stem}")
               for p in sorted(Path(relprop.__file__).parent.glob("*.py"))
               if p.stem != "__init__"]
    records = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and dataclasses.is_dataclass(cls)}
    assert set(RECORDS) <= records
    assert [c.__name__ for c in records if not issubclass(c, Frozen)] == []
    assert len(records - set(CLASSES)) == len(RECORDS) == 15


# Records that derive fields in a constructor of their own, which calls
# or does the work of `Frozen.__init__`.
OWN_CONSTRUCTOR = {vcgen._Frame, vcgen.VerificationCondition}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_no_record_generates_its_own_methods(cls):
    assert own_names(cls) == (["__init__"] if cls in OWN_CONSTRUCTOR else [])
    assert own_methods(cls) == []
    if cls is not vcgen._Frame:
        assert (cls.__eq__, cls.__hash__) == (Frozen.__eq__, Frozen.__hash__)


@pytest.mark.parametrize("cls", sorted(WERE_MUTABLE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_records_that_were_mutable_are_frozen(cls):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(example(cls), dataclasses.fields(cls)[0].name, None)
