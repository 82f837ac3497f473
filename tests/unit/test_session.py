"""Unit behaviour of SolverSession: activation bookkeeping, clause-DB
leanness under retirement, and structural sharing across related VCs."""

from repro.smt import (
    BOOL,
    INT,
    App,
    SymVar,
    Verdict,
    check_validity,
    conj,
    disj,
    eq,
    implies,
)
from repro.smt.session import SolverSession, in_euf_fragment, in_mixed_fragment
from repro.smt.terms import Const, negate


def _family(index, width=12):
    atoms = [
        App("<", (SymVar(f"u{j}", INT), SymVar(f"w{j}", INT))) for j in range(width)
    ]
    return implies(conj(*atoms), atoms[index])


class TestSession:
    def test_propositional_verdicts(self):
        session = SolverSession()
        assert session.propositionally_valid(_family(0))
        x = SymVar("x0", INT)
        assert not session.propositionally_valid(App("<", (x, x)))

    def test_euf_verdicts_and_fallback(self):
        session = SolverSession()
        x, y, z = (SymVar(name, INT) for name in ("ex", "ey", "ez"))
        assert session.theory_valid(implies(conj(eq(x, y), eq(y, z)), eq(x, z))) is True
        assert session.theory_valid(implies(eq(x, y), eq(x, z))) is False
        assert session.fallbacks == 0
        # An integer comparison atom routes to the shared mixed
        # (equality + difference logic) sub-session, not the fallback.
        ordered = implies(conj(App("<", (x, y)), App("<", (y, z))), App("<", (x, z)))
        assert not in_euf_fragment(ordered)
        assert in_mixed_fragment(ordered)
        assert session.theory_valid(ordered) is True
        assert session.fallbacks == 0
        assert session.stats()["mixed_queries"] == 1
        # A comparison over an uninterpreted application is outside
        # every fragment: the fallback on a throwaway sub-session.
        outside = implies(
            App("<", (App("g", (x,)), y)), App("<", (App("g", (x,)), y))
        )
        assert not in_mixed_fragment(outside)
        assert session.theory_valid(outside) is True
        assert session.fallbacks == 1

    def test_mixed_queries_bypass_order_atoms_when_gated(self):
        # allow_orders=False (a caller whose sort overrides reinterpret
        # INT-labelled variables) must keep order atoms away from the
        # shared difference-logic propagator.
        session = SolverSession()
        x, y = SymVar("gx", INT), SymVar("gy", INT)
        ordered = implies(App("<", (x, y)), App("<", (x, y)))
        assert session.theory_valid(ordered, allow_orders=False) is True
        assert session.stats()["mixed_queries"] == 0
        assert session.fallbacks == 1

    def test_shared_structure_is_converted_once(self):
        session = SolverSession()
        for index in range(8):
            assert session.propositionally_valid(_family(index))
        stats = session.stats()
        # The big shared conjunction re-resolves from the definition memo
        # after the first VC instead of re-emitting clauses.
        assert stats["definition_hits"] > 0
        assert stats["skeleton_queries"] == 8

    def test_database_stays_lean_under_retirement(self):
        session = SolverSession()
        live_counts = []
        for _ in range(5):
            for index in range(4):
                session.propositionally_valid(_family(index))
            live_counts.append(session.stats()["live_clauses"])
        # Repeating the same VC family must not grow the database: all
        # activation-guarded clauses were retired, definitions are memoized.
        assert live_counts[-1] == live_counts[0]
        assert session.stats()["retired_clauses"] > 0

    def test_session_verdicts_match_module_fast_paths(self):
        session = SolverSession()
        x, y = SymVar("mx", INT), SymVar("my", INT)
        cases = [
            _family(3),
            implies(eq(x, y), eq(y, x)),
            negate(eq(x, x)),
            conj(Const(True), eq(x, x)),
        ]
        for formula in cases:
            fresh = check_validity(formula, use_cache=False)
            shared = check_validity(formula, use_cache=False, session=session)
            assert fresh.verdict == shared.verdict
            assert fresh.model == shared.model

    def test_fallback_verdict_ignores_earlier_fallbacks(self):
        # Both formulas are outside every fragment (boolean variables,
        # a product).  Had the fallback sub-session been shared, the
        # search state left by the first query would make the second
        # one's model assert a boolean atom: None instead of the fresh
        # countermodel verdict False.
        x, y, z = (SymVar(name, INT) for name in ("hx", "hy", "hz"))
        a, c = SymVar("ha", BOOL), SymVar("hc", BOOL)
        earlier = disj(
            implies(
                conj(eq(Const(0), z), c),
                implies(eq(App("*", (z, y)), z), App("!=", (App("f", (x,)), x))),
            ),
            negate(implies(c, Const(False))),
        )
        later = negate(implies(disj(c, a), eq(App("f", (y,)), App("f", (z,)))))
        fresh = SolverSession().theory_valid(later)
        assert fresh is False
        session = SolverSession()
        session.theory_valid(earlier)
        assert session.theory_valid(later) == fresh
        assert session.fallbacks == 2

    def test_unknown_formulas_are_unaffected(self):
        # An uninterpreted unary application mixed with arithmetic falls
        # through every fast path to the enumerator, which cannot
        # evaluate it: UNKNOWN, with or without a session.
        g = App("g", (SymVar("gx", INT),))
        formula = App("<", (g, SymVar("gy", INT)))
        session = SolverSession()
        assert check_validity(formula, use_cache=False).verdict == Verdict.UNKNOWN
        assert (
            check_validity(formula, use_cache=False, session=session).verdict
            == Verdict.UNKNOWN
        )
