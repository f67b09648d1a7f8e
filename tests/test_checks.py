"""Checks that guard the mathematics must survive `python -O`, which strips
every `assert` statement, so the package itself contains none."""

import ast
from pathlib import Path

import sra


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(sra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
