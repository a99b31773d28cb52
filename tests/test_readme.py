"""The README's "Library use" block runs exactly as written, with the CLI's defaults."""

import inspect
import re
from pathlib import Path

from sarloop import (DetectorConfig, RansacConfig, ValidationThresholds,
                     detect_and_match, ratio_test)
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
    # The block above calls the library with its defaults; the CLI builds
    # the same objects from RunConfig(), so the two must agree.
    cfg = RunConfig()
    assert cfg.detector_configs() == [DetectorConfig("orb"), DetectorConfig("brisk")]
    assert cfg.ransac_config() == RansacConfig()
    assert cfg.thresholds() == ValidationThresholds()
    for fn in (ratio_test, match_feature_sets, detect_and_match):
        assert inspect.signature(fn).parameters["ratio"].default == cfg.ratio, fn.__name__
