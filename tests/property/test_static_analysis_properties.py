"""Property-based tests for the static analyses.

* **Lockset vs. brute force** — on a generator of two-branch parallel
  programs (plain reads/writes, atomic read-modify-writes, local
  assignments over two heap cells), the lockset detector's verdict must
  coincide with a brute-force oracle that explores every reachable
  configuration of the small-step semantics and looks for co-enabled
  conflicting accesses not both under ``atomic``.  On this fragment the
  abstraction is exact: no missed races (soundness) and no spurious ones
  (precision).
* **Flow monotonicity** — declassifying inputs (moving variables from
  high to low) can only keep a ``secure`` verdict.
* **Flow soundness** — a ``secure`` verdict on a terminating sequential
  program implies empirical non-interference: executions that differ
  only in the high input produce identical output traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_flow, check_races
from repro.lang import run
from repro.lang.ast import (
    Alloc,
    Assign,
    Atomic,
    BinOp,
    If,
    Lit,
    Load,
    Par,
    Print,
    Seq,
    Skip,
    Store,
    Var,
    seq_all,
)
from repro.lang.semantics import Config, State, evaluate, step

# ---------------------------------------------------------------------------
# Generators: two-branch parallel programs over cells 'c' and 'd'
# ---------------------------------------------------------------------------

_CELLS = ("c", "d")


def _op_to_command(op, side):
    kind, cell, payload = op
    if kind == "write":
        return Store(Var(cell), Lit(payload))
    if kind == "read":
        return Load(f"r{side}{payload}", Var(cell))
    if kind == "atomic":
        tmp = f"t{side}{payload}"
        return Atomic(
            Seq(
                Load(tmp, Var(cell)),
                Store(Var(cell), BinOp("+", Var(tmp), Lit(payload))),
            )
        )
    return Assign(f"x{side}{payload}", Lit(payload))


_par_op = st.tuples(
    st.sampled_from(("write", "read", "atomic", "local")),
    st.sampled_from(_CELLS),
    st.integers(0, 2),
)
_par_branch = st.lists(_par_op, min_size=1, max_size=3)


def _par_program(left_ops, right_ops):
    left = seq_all(*[_op_to_command(op, "l") for op in left_ops])
    right = seq_all(*[_op_to_command(op, "r") for op in right_ops])
    return seq_all(Alloc("c", Lit(0)), Alloc("d", Lit(0)), Par(left, right))


# ---------------------------------------------------------------------------
# Brute-force race oracle over the small-step semantics
# ---------------------------------------------------------------------------


def _next_accesses(branch, state):
    """(location, kind, synchronized) for the branch's next enabled step."""
    cmd = branch
    while isinstance(cmd, Seq):
        cmd = cmd.first
    store = state.store_dict()
    if isinstance(cmd, Load):
        return [(evaluate(cmd.address, store), "read", False)]
    if isinstance(cmd, Store):
        return [(evaluate(cmd.address, store), "write", False)]
    if isinstance(cmd, Atomic):
        accesses = []
        body = [cmd.body]
        while body:
            inner = body.pop()
            if isinstance(inner, Seq):
                body.extend((inner.first, inner.second))
            elif isinstance(inner, Load):
                accesses.append((evaluate(inner.address, store), "read", True))
            elif isinstance(inner, Store):
                accesses.append((evaluate(inner.address, store), "write", True))
        return accesses
    return []


def _config_has_race(config):
    # Walk only *enabled* positions: the head of a Seq and both branches
    # of a Par.  A Par still suspended behind an un-executed prefix is
    # not co-enabled and must not be inspected.
    commands = [config.command]
    while commands:
        cmd = commands.pop()
        if isinstance(cmd, Seq):
            commands.append(cmd.first)
        elif isinstance(cmd, Par):
            left = _next_accesses(cmd.left, config.state)
            right = _next_accesses(cmd.right, config.state)
            for loc_a, kind_a, sync_a in left:
                for loc_b, kind_b, sync_b in right:
                    if loc_a != loc_b:
                        continue
                    if kind_a == "read" and kind_b == "read":
                        continue
                    if sync_a and sync_b:
                        continue
                    return True
            commands.extend((cmd.left, cmd.right))
    return False


def _brute_force_race(program, max_configs=5000):
    seen = set()
    frontier = [Config(program, State.make())]
    while frontier and len(seen) < max_configs:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        if _config_has_race(config):
            return True
        for successor in step(config):
            if successor.result != "abort":
                frontier.append(successor.result)
    return False


class TestLocksetVsBruteForce:
    @given(_par_branch, _par_branch)
    @settings(max_examples=120, deadline=None)
    def test_detector_agrees_with_exhaustive_interleaving(self, left_ops, right_ops):
        program = _par_program(left_ops, right_ops)
        detected = any(d.code == "R001" for d in check_races(program))
        concrete = _brute_force_race(program)
        assert detected == concrete

    @given(_par_branch, _par_branch)
    @settings(max_examples=60, deadline=None)
    def test_fully_atomic_programs_are_race_free(self, left_ops, right_ops):
        left_ops = [("atomic", cell, k) for _, cell, k in left_ops]
        right_ops = [("atomic", cell, k) for _, cell, k in right_ops]
        program = _par_program(left_ops, right_ops)
        assert not any(d.code == "R001" for d in check_races(program))
        assert not _brute_force_race(program)


# ---------------------------------------------------------------------------
# Generators: terminating sequential programs over a, b (low) and h (high)
# ---------------------------------------------------------------------------


def _exprs(values=("a", "b", "h", "x", "y")):
    atoms = st.one_of(
        st.integers(-3, 3).map(Lit),
        st.sampled_from(values).map(Var),
    )
    return st.recursive(
        atoms,
        lambda children: st.builds(
            BinOp, st.sampled_from(("+", "-", "*")), children, children
        ),
        max_leaves=4,
    )


def _conditions():
    return st.builds(BinOp, st.just("<"), _exprs(), _exprs())


def _commands():
    simple = st.one_of(
        st.builds(Assign, st.sampled_from(("x", "y")), _exprs()),
        st.builds(Print, _exprs()),
        st.just(Skip()),
    )
    return st.recursive(
        simple,
        lambda children: st.one_of(
            st.builds(Seq, children, children),
            st.builds(If, _conditions(), children, children),
        ),
        max_leaves=6,
    )


class TestFlowProperties:
    @given(_commands())
    @settings(max_examples=150, deadline=None)
    def test_declassification_is_monotone(self, program):
        # secure with {h} high => secure with nothing high.
        before = analyze_flow(program, low_inputs=("a", "b"), high_inputs=("h",))
        if before.secure:
            after = analyze_flow(program, low_inputs=("a", "b", "h"), high_inputs=())
            assert after.secure

    @given(_commands())
    @settings(max_examples=100, deadline=None)
    def test_all_low_sequential_programs_are_secure(self, program):
        report = analyze_flow(program, low_inputs=("a", "b", "h", "x", "y"))
        assert report.secure

    @given(
        _commands(),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_secure_verdict_implies_empirical_noninterference(
        self, program, va, vb, h1, h2
    ):
        report = analyze_flow(program, low_inputs=("a", "b"), high_inputs=("h",))
        if not report.secure:
            return
        # x/y start at 0 in both runs: they are not inputs, merely
        # uninitialised locals the generator may read before writing.
        first = run(program, inputs={"a": va, "b": vb, "h": h1, "x": 0, "y": 0})
        second = run(program, inputs={"a": va, "b": vb, "h": h2, "x": 0, "y": 0})
        assert first.output == second.output

    @given(
        _commands(),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_insecure_witness_or_sound_verdict(self, program, h1, h2):
        # Contrapositive sanity: a pair of runs with different outputs on
        # the same lows forces a non-secure verdict.
        first = run(program, inputs={"a": 0, "b": 0, "h": h1, "x": 0, "y": 0})
        second = run(program, inputs={"a": 0, "b": 0, "h": h2, "x": 0, "y": 0})
        if first.output != second.output:
            report = analyze_flow(program, low_inputs=("a", "b"), high_inputs=("h",))
            assert not report.secure
