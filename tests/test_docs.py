"""Every ``hcal ...`` command the documentation shows still parses, and its
options pass the checks the CLI makes before any data loads, so a renamed
option cannot leave a dead example behind."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hcal.cli import build_parser, merge_config

ROOT = Path(__file__).resolve().parent.parent


def documented_commands() -> list[str]:
    """The ``hcal`` lines of README's ``sh`` blocks and of the docstring of
    ``scripts/make_synthetic.py``, ``\\`` continuations joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    script = (ROOT / "scripts" / "make_synthetic.py").read_text(encoding="utf-8")
    texts = [*re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S),
             ast.get_docstring(ast.parse(script))]
    return [line.strip() for text in texts
            for line in re.sub(r"\\\n\s*", " ", text).splitlines()
            if line.strip().startswith("hcal ")]


COMMANDS = documented_commands()


def test_every_command_is_found():
    assert len(COMMANDS) >= 10  # 8 in README, 2 in the script
    assert {shlex.split(line)[1] for line in COMMANDS} == {"train", "eval", "diagram", "compare"}


@pytest.mark.parametrize("line", COMMANDS)
def test_documented_command_passes_the_option_checks(line):
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    cfg = merge_config(args)
    cfg.family_grid()
    cfg.loss_spec()
    cfg.train_config()
    cfg.metric_ids()
