"""The README's "Library use" block runs exactly as written, with the CLI's
defaults, and its Configuration table is ``RunConfig``."""

import inspect
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

from sarloop import detect_and_match, validate_loop
from sarloop.loopclose import match_feature_sets
from sarloop.runconfig import RunConfig

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


def test_library_defaults_are_the_cli_defaults():
    # A stage called without a config gets RunConfig(), the config the CLI
    # starts from, which runs the native detectors.
    cfg = RunConfig()
    assert cfg.detectors == ("orb", "brisk")
    for fn in (match_feature_sets, detect_and_match, validate_loop):
        assert inspect.signature(fn).parameters["cfg"].default == cfg, fn.__name__


def config_rows():
    """``(keys, defaults)`` per row of the Configuration table, from its backticks."""
    text = README.read_text()
    section = text[text.index("## Configuration"):text.index("## Library use")]
    rows = re.findall(r"^\| (`.*?) \| (`.*?) \|", section, re.M)
    return [(re.findall(r"`([^`]*)`", keys), re.findall(r"`([^`]*)`", defaults))
            for keys, defaults in rows]


def test_readme_config_table_is_the_run_config(config_from_text):
    rows = config_rows()
    counts = Counter(key for keys, _ in rows for key in keys)
    assert counts == Counter(f.name for f in fields(RunConfig))
    for keys, defaults in rows:
        assert len(keys) == len(defaults), keys
        text = "".join(f"{key}={default}\n" for key, default in zip(keys, defaults))
        assert config_from_text(text) == RunConfig(), text
