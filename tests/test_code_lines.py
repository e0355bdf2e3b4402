import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "code_lines.py")

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line


class K:
    """Class docstring."""

    def f(self, a,
          b):
        """Function docstring,

        with a blank line inside."""
        x = (a +  # a trailing comment does not hide the code
             b)
        s = """a string that is no docstring
keeps both of its lines"""
        return x, s
'''


def test_counts_physical_and_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    out = subprocess.run([sys.executable, SCRIPT, str(path)], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    # class K, def (2 lines), x = (2 lines), s = (2 lines), return
    assert out[1].split() == ["19", "8", str(path)]
    assert out[-1].split() == ["19", "8", "total"]
