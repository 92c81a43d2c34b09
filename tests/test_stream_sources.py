"""One way to build a random stream, one way to position it and one way
to read its raw words.

Every Monte Carlo stream is a Philox keyed by sigmodel._philox, and a +-1
stream is read from a given bit only by sigmodel._stream_bits, which
advances the Philox counter. Raw Philox words are split into their 32-bit
halves only by sigmodel._halves. A second place that builds a Philox could
key it differently, a second place that advances one could read bits that
_stream_bits does not, and a second reader of raw words could take their
halves in another order. This check parses src/ and fails the suite if
any of them appears.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _calls(name: str) -> list:
    """(file, innermost enclosing function) of every call of name(...) or
    <anything>.name(...) in src/, in file order; None outside any function."""
    found = []

    def visit(node, path, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", None) == name or getattr(func, "id", None) == name:
                found.append((path, where))
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def test_philox_is_built_only_by_philox():
    assert _calls("Philox") == [("sigmodel.py", "_philox")]


def test_a_stream_is_advanced_only_by_stream_bits():
    assert _calls("advance") == [("sigmodel.py", "_stream_bits")]


def test_raw_words_are_read_only_by_halves():
    assert _calls("random_raw") == [("sigmodel.py", "_halves")]
