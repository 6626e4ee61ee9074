import json
import os
import random
from pathlib import Path

import pytest

from quintcap.classify import RadicandForm, classify_radicand
from quintcap.cyclotomic import CycInt, lambda_expand
from quintcap.fixtures import packaged_data_path
from quintcap.primes import factor_rational_prime

# The CLI, CAS and scan tests start Python subprocesses that import quintcap.
# pytest's ``pythonpath`` setting reaches only this process, so hand the
# checkout's src/ to the children too; the suite then needs no install.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def rng():
    return random.Random(20250808)


def random_cycint(rng, lo=-50, hi=50):
    return CycInt(*(rng.randint(lo, hi) for _ in range(4)))


def digits_congruent(x, y, k):
    # The original congruence test, kept for the oracles: compare digit expansions.
    return lambda_expand(x - y, k).is_zero()


def outcome(fn, *args, **kwargs):
    """What fn returns, or the class, message and proof flags of what it raises."""
    try:
        return ("returned", fn(*args, **kwargs))
    except Exception as exc:
        return (
            "raised",
            type(exc),
            str(exc),
            getattr(exc, "proven_impossible", None),
            getattr(exc, "norm_condition_h1", None),
        )


def oracle_radicands():
    """Every classified corpus row, plus 843 = 281*3 and 7157 = 421*17 whose
    h1 congruence has witnesses."""
    rows = json.loads(packaged_data_path("table1.json").read_text())
    out = []
    for n in [row["n"] for row in rows] + [843, 7157]:
        rc = classify_radicand(n)
        if rc.form is not RadicandForm.NO_MATCH:
            out.append(rc)
    return out


@pytest.fixture(scope="session")
def split_11():
    return factor_rational_prime(11)


@pytest.fixture(scope="session")
def split_31():
    return factor_rational_prime(31)


@pytest.fixture(scope="session")
def split_151():
    return factor_rational_prime(151)
