"""Code lines of Python source trees, per module and in total, as JSON.

    python3 benchmarks/loc.py src
    python3 benchmarks/loc.py ../old/src src

A code line is a line that carries a token other than a comment and is not
part of a docstring (the leading string of a module, class or function).
So blank lines, comment lines and docstrings do not count, while every line
of a statement that spans several lines does.  For each tree the output
maps the tree, as given, to {"modules": {path within the tree: lines},
"total": lines}.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of the Python source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def count_tree(root):
    """{"modules": {relative path: code lines}, "total": code lines} of the
    .py files under `root`."""
    root = Path(root)
    modules = {
        path.relative_to(root).as_posix(): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }
    return {"modules": modules, "total": sum(modules.values())}


def main(argv=None):
    trees = sys.argv[1:] if argv is None else argv
    if not trees:
        sys.exit("usage: loc.py SRC [SRC ...]")
    print(json.dumps({tree: count_tree(tree) for tree in trees}, indent=1))


if __name__ == "__main__":
    main()
