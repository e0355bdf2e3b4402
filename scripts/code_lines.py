#!/usr/bin/env python3
"""Count physical lines and code lines of Python files.

    python scripts/code_lines.py PATH...

A PATH is a .py file or a directory, searched recursively for .py files.
A code line holds a token other than a comment; the lines of module, class
and function docstrings are left out, so are blank and comment-only lines.
Prints one row per file and a total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(physical lines, code lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def _files(paths) -> list:
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                out += [os.path.join(root, n) for n in sorted(names) if n.endswith(".py")]
        else:
            out.append(path)
    return out


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total_physical = total_code = 0
    print(f"{'physical':>9} {'code':>6}  file")
    for path in _files(paths):
        with open(path, encoding="utf-8") as fh:
            physical, code = count(fh.read())
        total_physical += physical
        total_code += code
        print(f"{physical:>9} {code:>6}  {path}")
    print(f"{total_physical:>9} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
