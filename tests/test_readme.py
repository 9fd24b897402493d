import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs():
    """The README's library example stays a working program."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "run(" in snippet
    exec(compile(snippet, "README.md", "exec"), {})
