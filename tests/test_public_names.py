"""Every public function and class in src/ has a caller outside the tests.

A public name that only tests reach is either dead or belongs in the
tests. This check parses src/, demos/ and perfbench/, counts a Name, an
Attribute or an ImportFrom of a name as a reference to it, and compares
the public top-level functions and classes of src/ that none of them
references with the known list of names only the tests use. perfbench
wraps functions by attribute strings, which are not references, so a
name reached only that way counts as unreferenced. A new dead name fails
the suite; a name that gains a caller, or moves out of src/, leaves the
list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names of src/ that only the tests call
TEST_ONLY = {
    "null_space", "snapshots", "estimate_cov_pair", "measure_g", "synth_blocks",
    "exact_gamma0", "g_of_lambda", "verify_supplementary_identities",
}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield ast.parse(path.read_text())


def _public_definitions() -> set:
    names = set()
    for tree in _trees("src"):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def _references() -> set:
    names = set()
    for tree in _trees("src", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_only_the_known_public_names_lack_a_caller():
    assert _public_definitions() - _references() == TEST_ONLY
