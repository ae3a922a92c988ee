import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_instance(rng, max_n=50, max_l=5, min_n=2, min_l=2):
    """Random (probs, labels) pair on the simplex."""
    n = int(rng.integers(min_n, max_n + 1))
    l = int(rng.integers(min_l, max_l + 1))
    probs = rng.dirichlet(np.ones(l), size=n)
    labels = rng.integers(0, l, size=n)
    return probs, labels


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "logit_0,logit_1,label\n"
        "1.0,0.0,0\n"
        "0.5,2.0,1\n"
        "-1.0,0.25,0\n",
        encoding="utf-8",
    )
    return path
