"""The code line counter in tools/."""

import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")


def load_code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(TOOLS, "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\n'
                    "x = (1,\n     2)  # a trailing comment\n\n\n"
                    "class C:\n    'Class docstring.'\n\n"
                    "    def f(self):\n        \"\"\"Method\n        "
                    "docstring.\"\"\"\n        return \"\"\"a string,\n"
                    "not a docstring\"\"\"\n")
    code_lines = load_code_lines()
    # x = (1, 2) over two lines, class, def and the two-line return
    assert code_lines.code_lines(str(path)) == 6
    assert code_lines.python_files(str(tmp_path)) == [str(path)]
