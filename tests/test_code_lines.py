import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 7 code lines: the import, the class and def lines, both lines of the string
# assigned to x, and both lines of the return; not the 5 docstring lines,
# the comment line or the blank lines
SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''


def test_code_lines_counts_only_the_lines_that_hold_code(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.docstring_lines(tool.ast.parse(SNIPPET)) == {1, 2, 9, 15, 16}
    assert tool.code_lines(SNIPPET) == 7
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not read\n", encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (f"     7  {tmp_path / 'a.py'}\n"
                                       f"     1  {tmp_path / 'b.py'}\n"
                                       "     8  total\n")
