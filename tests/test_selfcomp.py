"""The self-composition transformation: renamings, inlining, translation."""

import pytest

from relprop.minic import (
    INT, PTR, Program, FunctionDef, GlobalDecl, DeclStmt, AssignStmt,
    CallStmt, IfStmt, AssertStmt, ReturnStmt, IntLit, Var, Deref, Bin, At,
    Cmp, PImp, PredApp, Separated, LogicApp, PForall, Param,
    PredicateDecl, LogicFnDecl, Lemma,
)
from relprop.parser import parse_program
from relprop.selfcomp import (
    transform, make_renamings, translate_pred, build_wrapper,
    build_axiomatic, TransformError, acsl_style, STYLE_PURE, STYLE_VALUES,
    STYLE_LABELS,
)
from relprop.validate import validate
from relprop.cli import main

from conftest import corpus_path


def clause_of(program, fn_name):
    return program.function(fn_name).contract.relational[0]


def test_make_renamings_fig5(fig5):
    clause = clause_of(fig5, "h")
    r1, r2 = make_renamings(clause, fig5)
    assert r1.globals == {"y": "y_id1"}
    assert r2.globals == {"y": "y_id2"}
    assert r1.locals["a"] == "a_1"
    assert r2.locals["a"] == "a_2"
    assert r1.ret_var is None  # h returns void


def test_make_renamings_fig6(fig6):
    clause = clause_of(fig6, "k")
    r1, r2 = make_renamings(clause, fig6)
    assert r1.pointers == {"y": "y_id1"}
    assert r2.pointers == {"y": "y_id2"}
    assert r1.globals == {} and r2.globals == {}


def test_make_renamings_pure_fig2(fig2):
    clause = clause_of(fig2, "max")
    r1, r2 = make_renamings(clause, fig2)
    assert r1.globals == {} and r1.pointers == {}
    assert r1.ret_var == "ret_id1"
    assert r2.ret_var == "ret_id2"


def test_renamed_names_never_collide():
    src = """
    int y;
    int y_id1;

    /*@ assigns y \\from y;
        relational R: \\callset(\\call(h, id1), \\call(h, id2))
          ==> \\at(y, Pre_id1) == \\at(y, Pre_id2);
    */
    void h() {
      y = y + 1;
      return;
    }
    """
    p = parse_program(src)
    clause = clause_of(p, "h")
    r1, r2 = make_renamings(clause, p)
    names = {r1.globals["y"], r2.globals["y"]}
    assert "y_id1" not in names  # the user already took that name
    assert len(names) == 2
    t = transform(p)
    assert validate(t.program) == []


def test_inline_call_h(fig5):
    # the wrapper's block for the first call of the clause
    clause = clause_of(fig5, "h")
    stmts = list(build_wrapper(clause, fig5).fn.body[:2])
    assert stmts == [
        DeclStmt("a_1", IntLit(10)),
        AssignStmt(Var("y_id1"), Bin("+", Var("y_id1"), Var("a_1"))),
    ]


def test_inline_call_k(fig6):
    clause = clause_of(fig6, "k")
    stmts = list(build_wrapper(clause, fig6).fn.body[:1])
    assert stmts == [
        AssignStmt(Deref("y_id1"), Bin("+", Deref("y_id1"), IntLit(1))),
    ]


def test_inline_depth_one_leaves_opaque_residual(fact):
    # the wrapper's block for the second call (depth 1), up to its assertion
    clause = clause_of(fact, "fact")
    body = build_wrapper(clause, fact).fn.body
    stmts = body[body.index(DeclStmt("ret_id2", None)):-1]

    def find_calls(body):
        out = []
        for s in body:
            if isinstance(s, CallStmt):
                out.append(s)
            elif isinstance(s, IfStmt):
                out += find_calls(s.then) + find_calls(s.orelse)
        return out

    calls = find_calls(stmts)
    assert len(calls) == 1
    assert calls[0].callee == "fact_acsl"  # opaque application, not an error


def test_inline_depth_two_unfolds_once(fact):
    t = transform(fact)
    wrapper = t.entries[0].wrapper.fn

    def count_residuals(body):
        n = 0
        for s in body:
            if isinstance(s, CallStmt) and s.callee == "fact_acsl":
                n += 1
            elif isinstance(s, IfStmt):
                n += count_residuals(s.then) + count_residuals(s.orelse)
        return n

    # depth 2 call keeps one residual two levels deep, depth 1 call one.
    assert count_residuals(wrapper.body) == 2
    names = {s.name for s in wrapper.body if isinstance(s, DeclStmt)}
    assert "n_1" in names and "n_2" in names


def test_translate_pred_fig5(fig5):
    clause = clause_of(fig5, "h")
    renamings = make_renamings(clause, fig5)
    got = translate_pred(clause.pred, renamings, fig5, "wrapper", clause)
    assert got == PImp(
        Cmp("<", At(Var("y_id1"), "Pre"), At(Var("y_id2"), "Pre")),
        Cmp("<", At(Var("y_id1"), "Here"), At(Var("y_id2"), "Here")))


def test_translate_pred_callresult(fig2):
    clause = clause_of(fig2, "max")
    renamings = make_renamings(clause, fig2)
    got = translate_pred(clause.pred, renamings, fig2, "wrapper", clause)
    assert got == Cmp(
        "==", Var("ret_id1"),
        Bin("/", Bin("+", Bin("+", Var("x1"), Var("y1")), Var("ret_id2")),
            IntLit(2)))


def test_translate_pred_identity_on_constants(fig5):
    from relprop.minic import PBool
    clause = clause_of(fig5, "h")
    renamings = make_renamings(clause, fig5)
    assert translate_pred(PBool(True), renamings, fig5, "wrapper", clause) \
        == PBool(True)


def test_build_wrapper_fig6_separation(fig6):
    clause = clause_of(fig6, "k")
    w = build_wrapper(clause, fig6)
    assert w.fn.name == "relational_wrapper_1"
    assert [(p.name, p.ty) for p in w.fn.formals] == \
        [("y_id1", PTR), ("y_id2", PTR)]
    assert w.fn.contract.requires == (Separated(Var("y_id1"), Var("y_id2")),)
    assert isinstance(w.fn.body[-1], AssertStmt)
    assert w.fn.body[-1].label == "Rpp"


def test_build_wrapper_single_call_has_no_separation(fig6):
    clause = clause_of(fig6, "k")
    from relprop.minic import RelationalClause
    single = RelationalClause("S", clause.binders, clause.calls[:1],
                              Cmp("==", At(Deref("y"), "Pre_id1"),
                                  At(Deref("y"), "Pre_id1")))
    w = build_wrapper(single, fig6)
    assert w.fn.contract.requires == ()
    assert len(w.fn.formals) == 1


def test_wrapper_write_sets_disjoint(fig5, fig6, fig2):
    for p in (fig5, fig6, fig2):
        t = transform(p)
        w = t.entries[0].wrapper
        per_call = []
        for ren in w.renamings:
            names = set(ren.globals.values()) | set(ren.locals.values())
            names |= {f"*{v}" for v in ren.pointers.values()}
            if ren.ret_var:
                names.add(ren.ret_var)
            per_call.append(names)
        for i in range(len(per_call)):
            for j in range(i + 1, len(per_call)):
                assert not (per_call[i] & per_call[j])


def test_build_axiomatic_styles(fig2, fig5, fig6):
    assert acsl_style(fig2.function("max"), fig2) == STYLE_PURE
    assert acsl_style(fig5.function("h"), fig5) == STYLE_VALUES
    assert acsl_style(fig6.function("k"), fig6) == STYLE_LABELS


def test_build_axiomatic_fig5(fig5):
    clause = clause_of(fig5, "h")
    ax = build_axiomatic(clause, fig5)
    decl = ax.items[0]
    assert isinstance(decl, PredicateDecl)
    assert decl.name == "h_acsl"
    assert [p.name for p in decl.params] == ["y_pre", "y_post"]
    lemma = ax.items[-1]
    assert isinstance(lemma, Lemma)
    assert isinstance(lemma.body, PForall)
    assert [b.name for b in lemma.body.binders] == \
        ["y_id2_pre", "y_id2_post", "y_id1_pre", "y_id1_post"]


def test_build_axiomatic_fig6(fig6):
    clause = clause_of(fig6, "k")
    ax = build_axiomatic(clause, fig6)
    decl = ax.items[0]
    assert decl.labels == ("pre", "post")
    assert decl.reads == (At(Deref("y"), "post"), At(Deref("y"), "pre"))
    lemma = ax.items[-1]
    assert lemma.labels == ("pre_id2", "post_id2", "pre_id1", "post_id1")
    body = lemma.body
    assert isinstance(body, PForall)
    assert [b.name for b in body.binders] == ["y_id2", "y_id1"]
    assert all(b.ty == PTR for b in body.binders)
    assert isinstance(body.body, PImp)
    assert body.body.left == Separated(Var("y_id1"), Var("y_id2"))


def test_build_axiomatic_fig2_logic_functions(fig2):
    clause = clause_of(fig2, "max")
    ax = build_axiomatic(clause, fig2)
    kinds = {i.name: type(i) for i in ax.items}
    assert kinds["max_acsl"] is LogicFnDecl
    assert kinds["abs_acsl"] is LogicFnDecl
    lemma = ax.items[-1]
    body = lemma.body
    assert isinstance(body, PForall)
    assert [b.name for b in body.binders] == ["x1", "y1"]
    assert body.body == Cmp(
        "==", LogicApp("max_acsl", (Var("x1"), Var("y1"))),
        Bin("/", Bin("+", Bin("+", Var("x1"), Var("y1")),
                     LogicApp("abs_acsl", (Bin("-", Var("x1"), Var("y1")),))),
            IntLit(2)))


def test_transform_identity_without_clauses():
    src = "int f(int x) { return x; }"
    p = parse_program(src)
    t = transform(p)
    assert t.program == p


def test_transform_deterministic(fig5):
    from relprop.pretty import pretty_print
    a = pretty_print(transform(fig5).program)
    b = pretty_print(transform(fig5).program)
    assert a == b


def test_transform_output_validates(fig2, fig5, fig6, crypt, fact):
    for p in (fig2, fig5, fig6, crypt, fact):
        assert validate(transform(p).program) == []


def _fact_with_depth(k: int, tmp_path):
    """fact.mc with its first call inlined k levels deep."""
    src = corpus_path("fact.mc").read_text(encoding="utf-8")
    path = tmp_path / "fact.mc"
    path.write_text(src.replace("\\call(2, fact", f"\\call({k}, fact"))
    return path


@pytest.mark.parametrize("k", [100, 400])
def test_too_deep_inlining_is_rejected_at_the_call(k, tmp_path, capsys):
    path = _fact_with_depth(k, tmp_path)
    out = str(tmp_path / "out")
    for args in (["transform"], ["prove", "--bound", "2"], ["test", "--budget", "1"]):
        assert main([args[0], str(path), "-o", out] + args[1:]) == 2
    assert capsys.readouterr().err.splitlines() == 3 * [
        f"{path}:4:16: error: inlining fact nests deeper than 100 levels; "
        "lower the inlining option"]


@pytest.mark.parametrize("k", [2, 97])
def test_accepted_inlining_output_reparses(k, tmp_path):
    # 97 is the deepest fact inlining that transform accepts
    path = _fact_with_depth(k, tmp_path)
    assert main(["transform", str(path), "-o", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "fact.transformed.mc").read_text(encoding="utf-8")
    again = parse_program(text)
    assert again == transform(parse_program(path.read_text())).program
    assert validate(again) == []


def _early_returns(n: int) -> Program:
    """`f` returns from n sequential ifs; inlining nests the rest of the
    body one level deeper after each."""
    body = "".join(f"  if (x > {i}) {{ return {i}; }}\n" for i in range(n))
    return parse_program(f"""
    /*@ assigns \\result \\from x;
        relational R: \\forall int x; \\callset(\\call(f, x, id1))
          ==> \\callresult(id1) >= 0;
    */
    int f(int x) {{
    {body}  return 0;
    }}
    """)


def test_deep_early_returns_are_rejected():
    with pytest.raises(TransformError, match="nests deeper than 100 levels"):
        transform(_early_returns(120))


def test_transform_rejects_invalid_input():
    src = """
    /*@ relational R: \\forall int x;
          \\callset(\\call(f, x, id1)) ==> \\callresult(id9) > 0;
    */
    int f(int x) { return x; }
    """
    p = parse_program(src)
    with pytest.raises(TransformError):
        transform(p)


def test_stateful_residual_is_an_error():
    src = """
    int g;

    /*@ assigns g \\from g; */
    void bump() {
      g = g + 1;
      bump();
      return;
    }

    /*@ assigns g \\from g;
        relational R: \\callset(\\call(bump, id1), \\call(bump, id2))
          ==> \\at(g, Pre_id1) == \\at(g, Pre_id2);
    */
    void host() {
      g = g + 0;
      return;
    }
    """
    p = parse_program(src)
    assert isinstance(p, Program)
    # bump recurses and writes a global: the depth-1 residual cannot be
    # modeled as a pure logic application
    from relprop.minic import RelationalClause, CallSpec
    clause = RelationalClause(
        "R2", (), (CallSpec(1, "bump", (), "id1"),),
        Cmp("==", At(Var("g"), "Pre_id1"), At(Var("g"), "Pre_id1")))
    with pytest.raises(TransformError, match="side effects"):
        build_wrapper(clause, p)
