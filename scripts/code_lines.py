"""Count code lines in Python files: no docstrings, comments or blanks.

A line counts when a token other than a comment or a line break covers
it; a multi-line token (a long string, say) covers every line it spans.
Docstring statements do not count: the string that opens a module, class
or function body. Each argument is a file or a directory searched for
*.py files; the output is one count per argument and, for several, a
total.

    python scripts/code_lines.py src tests scripts
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code of their own.
_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """Line numbers spanned by docstring statements."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source):
    """Code lines in one Python source text."""
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            covered.update(range(token.start[0], token.end[0] + 1))
    return len(covered - _docstring_lines(ast.parse(source)))


def count_path(path):
    """Code lines in a file, or in every *.py file under a directory."""
    path = Path(path)
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(count_code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    counts = [count_path(p) for p in args.paths]
    for path, count in zip(args.paths, counts):
        print(f"{count:6d}  {path}")
    if len(counts) > 1:
        print(f"{sum(counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
