import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: a docstring of each kind, a comment, a blank line and a statement over
#: three lines: 1 (def) + 3 (the call) + 1 (class) + 1 (pass) + 2 (a string
#: that is not a docstring) = 8 code lines
FIXTURE = '''"""A module docstring
over two lines."""

# a comment on its own line
def f(x):
    """A function docstring."""
    return max(x,  # a comment after code
               1,
               2)


class C:
    """A class docstring."""

    pass
s = """a string
that is code"""
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(FIXTURE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""only a docstring"""\n\n# and a comment\n') == 0


def test_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["8", str(tmp_path / "a.py")],
                                                ["1", str(tmp_path / "pkg" / "b.py")], ["9", "total"]]


def test_needs_a_path(capsys):
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_counts_the_package(capsys):
    # the count CI prints: one line per module, then the total
    assert code_lines.main([str(TOOL.parent.parent / "src" / "triqent")]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules) > 0
