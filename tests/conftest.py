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


# Radicands beyond the old 4*10^6 trial-division ceiling, which used to raise
# FactorizationLimitExceeded; the p^4 ones come from the benchmark's
# report-large inputs for seed 7.
BEYOND_OLD_CEILING = {
    4_000_037**2 * 3: ("no_match", None, None, 0),
    393_254_282_081**4 * 67: ("p^e*q", 393_254_282_081, 67, 4),
    167_027_695_411**4 * 127: ("p^e*q", 167_027_695_411, 127, 4),
    3_416_596_268_801**4: ("p^e", 3_416_596_268_801, None, 4),
}

# Radicands above MILLER_RABIN_BOUND that trial division up to 4*10^6 has
# always answered: their part free of the primes below 1000 is no perfect
# power, so factorize reaches them only by its own trial division.
ABOVE_BOUND_BY_TRIAL_DIVISION = {
    1009 * 1013 * 1019 * 1021 * 1031 * 1033 * 1039 * 1049 * 1051: ("no_match", None, None, 0),
    1_350_061**4 * 1123: ("p^e*q", 1_350_061, 1123, 4),
    3_999_971**2 * 10_000_000_000_273: ("p^e*q", 3_999_971, 10_000_000_000_273, 2),
}


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
