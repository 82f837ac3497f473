"""The cached structural hash of AST nodes.

Nodes compute their dataclass hash once and keep it.  ``str`` hashes
differ between interpreter runs, so a cached value must never travel with
a node into another process (the worker pools pickle programs) or survive
a copy that changes the node.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.lang import ast
from repro.lang.ast import Assign, BinOp, Lit, Var
from repro.lang.parser import parse_program

SOURCE = "x := y + 1\n{ print(x) } || { z := [x] }\nwhile (x < 3) { x := x + 1 }"

CHILD = """
import pickle, sys
from repro.lang.parser import parse_program
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse_program(sys.argv[1])
print(len({loaded, fresh}), hash(loaded) == hash(fresh), hash("x"))
"""

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _load_in_child(payload: bytes, hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", CHILD, SOURCE], input=payload, env=env,
        capture_output=True, timeout=60, check=True,
    )
    return result.stdout.decode().split()


def test_pickled_node_dedups_under_another_hash_seed():
    program = parse_program(SOURCE)
    hash(program)  # populate the cache before pickling
    payload = pickle.dumps(program)
    seeds_differing = 0
    for seed in ("1", "2"):
        count, same_hash, child_str_hash = _load_in_child(payload, seed)
        assert count == "1"
        assert same_hash == "True"
        seeds_differing += int(child_str_hash) != hash("x")
    assert seeds_differing > 0, "no child ran with a different hash seed"


def test_copies_carry_no_cached_hash():
    node = parse_program(SOURCE)
    hash(node)
    assert ast._HASH in vars(node)
    for duplicate in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert ast._HASH not in vars(duplicate)
        assert duplicate == node and hash(duplicate) == hash(node)


def test_replace_rehashes_the_changed_node():
    node = Assign("x", BinOp("+", Var("y"), Lit(1)))
    hash(node)
    changed = dataclasses.replace(node, target="w")
    assert changed != node
    assert hash(changed) == hash(Assign("w", BinOp("+", Var("y"), Lit(1))))
    assert {node, changed, Assign("x", BinOp("+", Var("y"), Lit(1)))} == {node, changed}

