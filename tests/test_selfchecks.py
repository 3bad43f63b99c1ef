"""Internal self-checks must stay in force under `python -O`, and the
mutation corpus must still apply.

An `assert` disappears under -O, so the package's postconditions raise
InternalError instead; this test keeps it that way.
"""

import ast
from pathlib import Path

import mutate
import oreshape

SRC = Path(oreshape.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements vanish under python -O: {found}"


def test_every_mutation_still_applies():
    # tests/mutate.py runs the corpus; here only its shape is checked, so a
    # change that moves mutated code must update the corpus with it.
    corpus = mutate.load_corpus()
    assert len(corpus) >= 15
    assert len({m["id"] for m in corpus}) == len(corpus)
    for m in corpus:
        assert mutate.problem(m) is None, (m["id"], mutate.problem(m))
        for node in m["tests"]:
            path, _, name = node.partition("::")
            text = (mutate.ROOT / path).read_text()
            assert not name or f"def {name.partition('[')[0]}(" in text, (m["id"], node)
