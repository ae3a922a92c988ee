"""Every ``hcal ...`` command the documentation shows still parses, and its
options pass the checks the CLI makes before any data loads, so a renamed
option cannot leave a dead example behind.  README's defaults, default grid
and metric ids are the code's own, and its library example runs."""

import ast
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest

from hcal.cli import build_parser, merge_config
from hcal.dataset import save_dataset
from hcal.loss import HCalConfig
from hcal.maps import FAMILIES, check_sizes
from hcal.metrics import METRICS
from hcal.optim import TrainConfig, standard_grid
from hcal.synthetic import make_overconfident_task

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


def readme_section(title: str) -> str:
    """The text of README's section ``title``, up to the next heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^#+ {title}\n(.*?)(?=^#)", readme + "\n#", re.M | re.S).group(1)


def test_documented_defaults_are_the_dataclass_defaults():
    pairs = re.findall(r"`(\w+) = ([^`]+)`", readme_section("Defaults"))
    defaults = {**asdict(HCalConfig()), **asdict(TrainConfig())}
    assert {name for name, _ in pairs} == set(defaults)
    for name, text in pairs:
        try:
            value = ast.literal_eval(text)
        except ValueError:  # a bare name such as ece_ew
            value = text
        assert value == defaults[name], (name, text)


def readme_prose() -> str:
    """README with every run of white space one space, so a sentence can be
    matched across its line breaks."""
    return " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())


def test_documented_grid_is_the_standard_grid():
    count, text = re.search(r"Without `--family`, `train` and `compare` search the full "
                            r"(\d+)-candidate grid \((.*?)\)\.", readme_prose()).groups()
    # "widths in {2, ...}" gives every size of a family the one number
    stated = [(family, (int(n),) * len(FAMILIES[family].hyper_names))
              for family, sizes in re.findall(r"`(\w+)` \w+ in \{([^}]*)\}", text)
              for n in sizes.split(", ")]
    grid = [(family, check_sizes(FAMILIES[family], hyper)) for family, hyper in standard_grid()]
    assert stated == grid
    assert int(count) == len(grid)


def test_documented_metric_ids_are_the_suite():
    text = re.search(r"\*\*Metric suite\*\* — (.*?) as reference scores", readme_prose()).group(1)
    assert re.findall(r"`(\w+)`", text) == list(METRICS)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", readme_section("Library use"), re.M | re.S)
    task = make_overconfident_task(n_train=300, n_test=200, n_classes=4, seed=0)
    (tmp_path / "data" / "synth").mkdir(parents=True)
    save_dataset(task.train, tmp_path / "data" / "synth" / "train.csv")
    save_dataset(task.test, tmp_path / "data" / "synth" / "test.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert re.search(r"^ece_ew +\d", capsys.readouterr().out, re.M)
