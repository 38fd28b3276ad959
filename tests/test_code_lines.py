import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""
import math  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a string,
not a docstring"""
    return (x +
            math.pi)


class C:
    \'\'\'Class docstring.\'\'\'
    y = 1
'''


def test_counts_code_lines_without_comments_docstrings_or_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, the two lines of s and of the return, class, y
    assert code_lines.code_lines(path) == 8


def test_totals_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
