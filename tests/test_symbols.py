import pytest

from quintcap.cyclotomic import (
    CycInt,
    LAMBDA,
    ONE,
    ZERO,
    ZETA,
    euclid_divmod,
    lambda_key,
    lambda_residue,
)
from quintcap.primes import (
    UnsupportedPrimeError,
    factor_rational_prime,
    residue_field_reduce,
)
from quintcap.symbols import (
    DecompositionType,
    UndefinedSymbolError,
    decomposition_type,
    prime_valuation,
    quintic_symbol,
)

import oracles
from conftest import outcome, random_cycint


def fifth_power_set(p):
    return {pow(x, 5, p) for x in range(1, p)}


def test_symbol_of_one(split_11):
    assert quintic_symbol(ONE, split_11.factors[0]) == 0


def test_symbol_of_fifth_powers(rng, split_31):
    pi = split_31.factors[0]
    for _ in range(20):
        x = random_cycint(rng)
        if residue_field_reduce(x, pi) == 0:
            continue
        assert quintic_symbol(x ** 5, pi) == 0


def test_symbol_pi1_at_pi3_matches_oracle(split_11):
    pi1, pi3 = split_11.factors[0], split_11.factors[2]
    j = quintic_symbol(pi1.value, pi3)
    image = residue_field_reduce(pi1.value, pi3)
    solvable = image in fifth_power_set(11)
    assert (j == 0) == solvable
    assert j == 3  # frozen regression value


def test_symbol_undefined_on_multiples(split_11):
    pi1 = split_11.factors[0]
    with pytest.raises(UndefinedSymbolError):
        quintic_symbol(pi1.value * CycInt(4, 1, 0, 2), pi1)


def test_symbol_rejects_inert():
    q = factor_rational_prime(3).factors[0]
    with pytest.raises(UnsupportedPrimeError):
        quintic_symbol(CycInt(2), q)


def test_symbol_multiplicative(rng, split_31):
    pi = split_31.factors[0]
    for _ in range(40):
        a, b = random_cycint(rng), random_cycint(rng)
        if residue_field_reduce(a, pi) == 0 or residue_field_reduce(b, pi) == 0:
            continue
        assert (
            quintic_symbol(a * b, pi)
            == (quintic_symbol(a, pi) + quintic_symbol(b, pi)) % 5
        )


def test_symbol_galois_compatibility(rng, split_31):
    # conjugating both argument and prime by tau^2 multiplies the exponent by
    # the inverse of 2^2 = 4 mod 5, i.e. by 4
    pi1, pi3 = split_31.factors[0], split_31.factors[2]
    for _ in range(20):
        a = random_cycint(rng)
        if residue_field_reduce(a, pi1) == 0:
            continue
        assert quintic_symbol(a.galois(2), pi3) == (4 * quintic_symbol(a, pi1)) % 5


@pytest.mark.parametrize("p", [11, 31, 41])
def test_symbol_full_oracle(rng, p):
    data = factor_rational_prime(p)
    pi = data.factors[0]
    powers = fifth_power_set(p)
    for _ in range(30):
        a = random_cycint(rng)
        image = residue_field_reduce(a, pi)
        if image == 0:
            continue
        assert (quintic_symbol(a, pi) == 0) == (image in powers)


# --- decomposition ----------------------------------------------------------

def test_valuation_extraction(split_11):
    pi1 = split_11.factors[0]
    v, cof = prime_valuation(pi1.value ** 3 * CycInt(7), pi1)
    assert v == 3
    assert residue_field_reduce(cof, pi1) != 0


def test_decomposition_ramified_at_own_prime(split_11):
    pi1 = split_11.factors[0]
    assert decomposition_type(pi1.value, pi1) is DecompositionType.RAMIFIED


def test_decomposition_split_iff_symbol_zero(split_11, split_31):
    for data in (split_11, split_31):
        pi1, pi3 = data.factors[0], data.factors[2]
        expected = (
            DecompositionType.SPLIT
            if quintic_symbol(pi1.value, pi3) == 0
            else DecompositionType.INERT
        )
        assert decomposition_type(pi1.value, pi3) is expected


def test_decomposition_at_lambda_frozen():
    # 11 is not congruent to +-1, +-7 mod 25, so the fifth-root extension of
    # 11 is ramified above 5 (frozen from the lambda^5/lambda^6 enumeration).
    lam = factor_rational_prime(5).factors[0]
    assert decomposition_type(CycInt(11), lam) is DecompositionType.RAMIFIED


def test_decomposition_at_lambda_split():
    lam = factor_rational_prime(5).factors[0]
    # 7^5 is a fifth power of a lambda-unit, solvable mod lambda^6 by construction
    assert decomposition_type(CycInt(7) ** 5, lam) is DecompositionType.SPLIT


def test_decomposition_at_lambda_valuation():
    lam = factor_rational_prime(5).factors[0]
    assert decomposition_type(LAMBDA * 7, lam) is DecompositionType.RAMIFIED


def test_decomposition_at_lambda_on_every_unit_class():
    # Split exactly when theta's class mod lambda^6 is a unit's fifth power,
    # inert when only its class mod lambda^5 is, ramified otherwise, by the
    # enumeration of fifth powers, on all 12 500 unit classes mod lambda^6.
    lam = factor_rational_prime(5).factors[0]
    split, inert = oracles.fifth_power_keys(6), oracles.fifth_power_keys(5)
    counts = {kind: 0 for kind in DecompositionType}
    for theta in oracles.iter_residues_mod_lambda_pow(6):
        if lambda_residue(theta) == 0:
            continue
        if lambda_key(theta, 6) in split:
            expected = DecompositionType.SPLIT
        elif lambda_key(theta, 5) in inert:
            expected = DecompositionType.INERT
        else:
            expected = DecompositionType.RAMIFIED
        assert decomposition_type(theta, lam) is expected, theta
        counts[expected] += 1
    assert counts == {
        DecompositionType.SPLIT: 4,
        DecompositionType.INERT: 16,
        DecompositionType.RAMIFIED: 12_480,
    }


def test_decomposition_at_lambda_of_lambda_multiples():
    # lambda^v * u, u a unit of each type, is ramified for v = 1..4; from
    # v = 5 on theta is not fifth-power-free at lambda.
    lam = factor_rational_prime(5).factors[0]
    units = [
        ONE, CycInt(7), CycInt(7) * (ONE + LAMBDA ** 5), ZETA, CycInt(11),
        CycInt(3, -10**30, 8, 10**20),
    ]
    kinds = {decomposition_type(u, lam) for u in units}
    assert kinds == set(DecompositionType)
    for u in units:
        for v in range(1, 5):
            assert decomposition_type(LAMBDA ** v * u, lam) is DecompositionType.RAMIFIED
        for v in (5, 6):
            with pytest.raises(ValueError, match="fifth-power-free at lambda"):
                decomposition_type(LAMBDA ** v * u, lam)


PI_11 = factor_rational_prime(11).factors[0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: prime_valuation(CycInt(0), PI_11), "valuation of zero is undefined"),
        (
            lambda: decomposition_type(CycInt(11**5), PI_11),
            "theta must be fifth-power-free at the prime",
        ),
    ],
    ids=["valuation-of-zero", "fifth-power-at-the-prime"],
)
def test_symbols_refusals(call, message):
    assert outcome(call)[:3] == ("raised", ValueError, message)


def test_decomposition_rejects_zero(split_11):
    with pytest.raises(ValueError):
        decomposition_type(ZERO, split_11.factors[0])


def test_decomposition_rejects_inert_primes():
    q = factor_rational_prime(3).factors[0]
    with pytest.raises(UnsupportedPrimeError):
        decomposition_type(CycInt(7), q)


def test_trichotomy_with_independent_valuation(rng, split_11):
    pi1 = split_11.factors[0]
    for _ in range(20):
        x = random_cycint(rng)
        if x.is_zero():
            continue
        # independent valuation by repeated exact division
        v = 0
        y = x
        while True:
            q, r = euclid_divmod(y, pi1.value)
            if not r.is_zero():
                break
            y = q
            v += 1
        if v >= 5:
            continue
        t = decomposition_type(x, pi1)
        if v % 5 != 0:
            assert t is DecompositionType.RAMIFIED
        else:
            assert t in (DecompositionType.SPLIT, DecompositionType.INERT)
