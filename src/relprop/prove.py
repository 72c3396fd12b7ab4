"""One proof run over a transformed program.

VCs are generated once, with every generated lemma among their hypotheses.
A clause's lemma is admitted once its wrapper assertion is valid (in round 0
under assume_lemmas). Wrappers are checked in rounds: each sees the lemmas
admitted in earlier rounds, and rounds go on while that set grows. Every
other VC is checked under the final set. A check narrows the VC's lemma
hypotheses to the admitted ones, and the narrowed VC is the one indexed and
written out. Lemma VCs take their wrapper's status: their proof reduces to
the wrapper assertion plus the link behaviors.
"""

from __future__ import annotations

from dataclasses import replace

from .frozen import Frozen
from .bounded import BudgetExceeded, check_bounded
from .selfcomp import TransformedProgram
from .vcgen import VerificationCondition, vcs_for


class ProofRun(Frozen):
    vcs: tuple[VerificationCondition, ...]  # as checked, in generation order
    results: dict[str, dict]                # vc name -> vc_index.json entry


def prove_program(t: TransformedProgram, bound: int,
                  assume_lemmas: bool = False) -> ProofRun:
    """Check every VC in one admission order; see the module docstring."""
    lemmas = t.lemma_names
    generated = vcs_for(t, admitted=lemmas)
    admitted: dict[str, int] = dict.fromkeys(lemmas, 0) if assume_lemmas else {}
    checked: dict[str, tuple] = {}  # name -> (vc, status, assignment, detail)

    def check(vc: VerificationCondition, visible: dict[str, int]) -> str:
        vc = replace(vc, hypotheses=tuple((n, f) for n, f in vc.hypotheses
                                          if n not in lemmas or n in visible))
        try:
            r = check_bounded(vc, bound)
            checked[vc.name] = (vc, r.status, r.assignment, r.reason or r.method)
        except BudgetExceeded:
            checked[vc.name] = (vc, "unknown", None, "budget")
        return checked[vc.name][1]

    pending = [vc for vc in generated if vc.kind == "wrapper-assert"]
    rounds = 0
    while pending:
        rounds += 1
        visible = dict(admitted)
        for vc in pending:
            lemma = t.lemma_of_wrapper(vc.function)
            if check(vc, visible) == "valid" and lemma is not None:
                admitted.setdefault(lemma, rounds)
        if len(admitted) == len(visible):
            break
        pending = [vc for vc in pending if checked[vc.name][1] != "valid"]

    results: dict[str, dict] = {}
    wrapper_entry: dict[str, dict] = {}
    for vc in generated:  # lemma VCs come after every function VC
        if vc.kind == "lemma":
            wrapper = wrapper_entry.get(vc.function, {})
            status = "valid" if wrapper.get("status") == "valid" else "unknown"
            checked[vc.name] = (vc, status, None, "reduces to the wrapper assertion")
        elif vc.kind != "wrapper-assert":
            check(vc, admitted)
        vc, status, assignment, detail = checked[vc.name]
        entry = results[vc.name] = {
            "function": vc.function, "assertion": vc.assertion,
            "kind": vc.kind, "clause": vc.clause, "status": status,
            "detail": detail, "hypotheses": list(vc.hypothesis_names()),
            "links": list(vc.links)}
        if status == "valid":
            entry["scope"] = (wrapper["scope"] if vc.kind == "lemma" else
                              "instance" if detail == "instantiation" else "bounded")
        if assignment is not None:
            entry["assignment"] = assignment
        if vc.kind == "wrapper-assert":
            entry["round"] = admitted.get(t.lemma_of_wrapper(vc.function))
            wrapper_entry[vc.function] = entry
    return ProofRun(tuple(checked[vc.name][0] for vc in generated), results)
