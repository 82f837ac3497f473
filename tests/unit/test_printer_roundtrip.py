"""Pretty-printer ↔ parser round-trip: ``parse(print(ast)) == ast``.

The fuzzer's repro files only work if the printed text re-parses to the
*same* AST (positions excluded — ``pos`` is compare-excluded on every
node).  These tests pin the round-trip on the whole hand-written corpus,
on generated fuzz cases, and on the edge shapes where the grammar has a
normal form (nested sequence/parallel association, negative literals,
expression-level ``||``, atomic argument defaults).
"""

import pytest

from repro.casestudies import ALL_CASES, GENERATED_CASES, THREADED_CASES
from repro.fuzz import generate_corpus
from repro.lang.ast import (
    Atomic,
    BinOp,
    If,
    Lit,
    Par,
    Print,
    Seq,
    Skip,
    Store,
    UnOp,
    Var,
    While,
    par_all,
    seq_all,
)
from repro.lang.parser import parse_expr, parse_program, parse_threaded_program
from repro.lang.printer import (
    PrintError,
    print_command,
    print_expr,
    print_program,
    print_threaded_program,
)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_corpus_round_trips(case):
    ast = case.program()
    assert ast == parse_program(case.source)
    assert parse_program(print_program(ast)) == ast


@pytest.mark.parametrize("case", THREADED_CASES, ids=lambda c: c.name)
def test_threaded_corpus_round_trips(case):
    tp = parse_threaded_program(case.source)
    assert parse_threaded_program(print_threaded_program(tp)) == tp


@pytest.mark.parametrize("index", range(30))
def test_generated_cases_round_trip(index):
    case = generate_corpus(11, 30)[index]
    assert parse_program(print_program(case.program)) == case.program
    # and the stored source is exactly the printed program
    assert parse_program(case.source) == case.program


@pytest.mark.parametrize(
    "source",
    [
        "x := -2",
        "x := -2 + 3",
        "x := -(y)",
        "x := a || b",
        "x := a || b && c",
        "if (h > 1 || h < -1) { print(1) } else { print(2) }",
        "atomic { x := 1 }",
        'atomic [Inc(0)] when (deref(c) >= 0) { t := [c]; [c] := t + 1 }',
        "{ skip } || { skip }",
        "{ print(1) } || { { print(2) } || { print(3) } }",
        "print(1, err)",
        'print("done")',
        "print(0 - 2)",
    ],
    ids=repr,
)
def test_source_shapes_stable_under_one_round_trip(source):
    """print ∘ parse is the identity on already-parsed normal forms."""
    ast = parse_program(source)
    printed = print_program(ast)
    assert parse_program(printed) == ast
    # printing is idempotent: a second trip changes nothing
    assert print_program(parse_program(printed)) == printed


@pytest.mark.parametrize(
    "ast",
    [
        Seq(Seq(Print(Lit(1)), Print(Lit(2))), Print(Lit(3))),  # left-nested Seq
        Par(Par(Print(Lit(1)), Print(Lit(2))), Print(Lit(3))),  # left-nested Par
        seq_all(Skip(), Skip(), Print(Lit(1))),
        While(Lit(True), Skip()),
        If(Lit(False), Skip(), Print(Lit(7))),  # else branch kept
        If(Lit(False), Print(Lit(7)), Skip()),  # else branch omitted
        Print(Lit(-5)),
        Print(UnOp("-", Var("x"))),
        Print(BinOp("||", Var("a"), BinOp("&&", Var("b"), Var("c")))),
        Atomic(Store(Var("c"), Lit(1)), None, Lit(0), None),
        Atomic(Store(Var("c"), Lit(1)), "SetTo", Lit(1), BinOp(">", Var("g"), Lit(0))),
        par_all(Print(Lit(1)), Print(Lit(2)), Print(Lit(3)), Print(Lit(4))),
    ],
    ids=lambda a: type(a).__name__ + "/" + repr(a)[:40],
)
def test_ast_shapes_round_trip(ast):
    assert parse_program(print_program(ast)) == ast


def test_negative_literals_fold_in_the_parser():
    """``-2`` is a literal, not ``UnOp('-', Lit(2))`` — the printed text
    could only ever re-parse folded, so the parser folds too."""
    assert parse_expr("-2") == Lit(-2)
    assert parse_expr("- 2") == Lit(-2)
    assert parse_expr("-x") == UnOp("-", Var("x"))
    assert parse_expr("1 - 2") == BinOp("-", Lit(1), Lit(2))


def test_expression_level_or_parses():
    """``||`` works inside expressions (lowest precedence), without
    colliding with statement-level parallel composition."""
    assert parse_expr("a || b") == BinOp("||", Var("a"), Var("b"))
    assert parse_expr("a || b && c") == BinOp(
        "||", Var("a"), BinOp("&&", Var("b"), Var("c"))
    )
    assert parse_expr("a && b || c") == BinOp(
        "||", BinOp("&&", Var("a"), Var("b")), Var("c")
    )


def test_printer_rejects_unparseable_constructs():
    with pytest.raises(PrintError):
        print_expr(Lit(1.5))  # no float literals in the grammar
    with pytest.raises(PrintError):
        print_expr(Lit('say "hi"'))  # no escapes in string literals
    with pytest.raises(PrintError):
        print_expr(Var("while"))  # keyword as identifier
    with pytest.raises(PrintError):
        # an action argument without an action annotation cannot be printed
        print_command(Atomic(Skip(), None, Lit(3), None))
