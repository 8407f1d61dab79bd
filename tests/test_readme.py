"""The README's Python examples run as written, so a change to the public
API that they use has to update them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_fences(text):
    """Each ```python fence's code, padded with blank lines so that a
    traceback gives its README line numbers."""
    for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        yield "\n" * text.count("\n", 0, match.start(1)) + match.group(1)


def test_readme_examples_run(capsys):
    fences = list(python_fences(README.read_text()))
    assert fences
    # in order and in one namespace: later examples reuse earlier names
    namespace = {"__name__": "readme"}
    for code in fences:
        exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out
