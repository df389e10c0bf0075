"""Count the code lines of Python files: lines that hold a token, other
than those of comments, blank lines and docstrings.

    python3 tools/code_lines.py [path ...]

Each path is a file or a directory searched for *.py files; the default
is src/formc.  Prints each file's count and the total.
"""

import ast
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of the module, class and function docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(path):
    """Number of code lines of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source, path))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def python_files(path):
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(root, name)
                  for root, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/formc"]
    total = 0
    for path in paths:
        for name in python_files(path):
            n = code_lines(name)
            total += n
            print("%6d  %s" % (n, name))
    print("%6d  total" % total)


if __name__ == "__main__":
    main()
