"""numpy is the only runtime dependency of the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, hcal, hcal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pyproject_depends_on_numpy_only():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    deps = re.findall(r'"([^"]+)"', block)
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps]
    assert names == ["numpy"]
    # metrics.kde_ece calls np.trapezoid, which numpy first shipped in 2.0
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", deps[0])
    assert floor is not None, deps[0]
    assert tuple(map(int, floor.groups())) >= (2, 0)
