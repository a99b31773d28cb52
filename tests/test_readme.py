"""The README's "Library use" block runs exactly as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_accepts_its_own_map(capsys):
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["decision"].accepted
    assert capsys.readouterr().out.startswith("True ")
