import math
from fractions import Fraction

import pytest

from quintcap.classify import (
    ADMISSIBLE_RESIDUES,
    SHAPE_RESIDUES,
    ClassificationError,
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    RadicandForm,
    classify_radicand,
    trial_factor,
)
from quintcap.cli import main
from quintcap.factor import MILLER_RABIN_BOUND, factorize, is_rational_prime

from conftest import ABOVE_BOUND_BY_TRIAL_DIVISION, BEYOND_OLD_CEILING, outcome
from oracles import radicand_shape


def test_residue_set():
    assert ADMISSIBLE_RESIDUES == {1, 7, 18, 24}
    assert SHAPE_RESIDUES == {0, 1, 5, 7, 18}


def test_only_shape_residues_have_shapes():
    # The scanner writes a fifth-power-free n outside SHAPE_RESIDUES as
    # no_match without factoring it.  Every class of SHAPE_RESIDUES holds a
    # shape, so none of them is factored for nothing; class 24 of
    # ADMISSIBLE_RESIDUES holds none: p^e = 1 (mod 25) and p^e*q = +-2 (mod 5).
    seen = set()
    for n in range(2, 2 * 10**5 + 1):
        factors = factorize(n)
        if max(factors.values()) >= 5:
            continue
        form = radicand_shape(n, factors)[0]
        if form is not RadicandForm.NO_MATCH:
            assert n % 25 in SHAPE_RESIDUES, n
            seen.add(n % 25)
    assert seen == SHAPE_RESIDUES


def test_classify_55():
    rc = classify_radicand(55)
    assert rc.form is RadicandForm.FIVE_POWER_TIMES_P
    assert (rc.p, rc.e) == (11, 1)


def test_classify_93():
    rc = classify_radicand(93)
    assert rc.form is RadicandForm.PRIME_POWER_TIMES_Q
    assert (rc.p, rc.q, rc.e) == (31, 3, 1)
    assert rc.residue_mod_25 == 18


def test_classify_151():
    rc = classify_radicand(151)
    assert rc.form is RadicandForm.PRIME_POWER
    assert (rc.p, rc.e) == (151, 1)


def test_classify_rejects_fifth_powers():
    with pytest.raises(NotFifthPowerFree):
        classify_radicand(32)
    with pytest.raises(NotFifthPowerFree):
        classify_radicand(3 * 2 ** 5)


def test_classify_2111_no_match():
    # prime, but 2111 = 11 (mod 25): no admissible shape
    rc = classify_radicand(2111)
    assert rc.form is RadicandForm.NO_MATCH
    assert rc.residue_mod_25 == 11


def test_classify_2131_squared_no_match():
    rc = classify_radicand(2131 ** 2)
    assert rc.form is RadicandForm.NO_MATCH


def test_classify_rejects_small_inputs():
    for n in (-5, 0, 1):
        with pytest.raises(ClassificationError):
            classify_radicand(n)


def test_classify_rejects_non_integers():
    # A float must not pass as a radicand: 93.0 would factor into p = 31.0.
    for n in (93.0, 151.0, "93", Fraction(93)):
        with pytest.raises(TypeError):
            classify_radicand(n)


TABLE1_FORMS = {
    55: RadicandForm.FIVE_POWER_TIMES_P,
    655: RadicandForm.FIVE_POWER_TIMES_P,
    1775: RadicandForm.FIVE_POWER_TIMES_P,
    1555: RadicandForm.FIVE_POWER_TIMES_P,
    2155: RadicandForm.FIVE_POWER_TIMES_P,
    5125: RadicandForm.FIVE_POWER_TIMES_P,
    8275: RadicandForm.FIVE_POWER_TIMES_P,
    30125: RadicandForm.FIVE_POWER_TIMES_P,
    38125: RadicandForm.FIVE_POWER_TIMES_P,
    113125: RadicandForm.FIVE_POWER_TIMES_P,
    93: RadicandForm.PRIME_POWER_TIMES_Q,
    382: RadicandForm.PRIME_POWER_TIMES_Q,
    943: RadicandForm.PRIME_POWER_TIMES_Q,
    1457: RadicandForm.PRIME_POWER_TIMES_Q,
    6943: RadicandForm.PRIME_POWER_TIMES_Q,
    8507: RadicandForm.PRIME_POWER_TIMES_Q,
    12707: RadicandForm.PRIME_POWER_TIMES_Q,
    151: RadicandForm.PRIME_POWER,
    1301: RadicandForm.PRIME_POWER,
    251 ** 2: RadicandForm.PRIME_POWER,
    601 ** 3: RadicandForm.PRIME_POWER,
    1901 ** 4: RadicandForm.PRIME_POWER,
    1051 ** 4: RadicandForm.PRIME_POWER,
    1801 ** 3: RadicandForm.PRIME_POWER,
    2111: RadicandForm.NO_MATCH,
    2131 ** 2: RadicandForm.NO_MATCH,
}


@pytest.mark.parametrize("n,form", sorted(TABLE1_FORMS.items()))
def test_corpus_forms(n, form):
    assert classify_radicand(n).form is form


def test_reconstruction_and_residue_consistency():
    for n in range(2, 3000):
        try:
            rc = classify_radicand(n)
        except NotFifthPowerFree:
            continue
        assert rc.residue_mod_25 == n % 25
        if rc.form is not RadicandForm.NO_MATCH:
            assert rc.reconstruct() == n
            assert 1 <= rc.e <= 4


def test_shape_constraints_hold():
    for n in range(2, 5000):
        try:
            rc = classify_radicand(n)
        except NotFifthPowerFree:
            continue
        if rc.form is RadicandForm.PRIME_POWER:
            assert rc.p is not None and rc.p % 25 == 1
            assert rc.residue_mod_25 in ADMISSIBLE_RESIDUES
        elif rc.form is RadicandForm.PRIME_POWER_TIMES_Q:
            assert rc.p is not None and rc.q is not None
            assert rc.p % 5 == 1 and rc.p % 25 != 1
            assert rc.q % 5 in (2, 3) and rc.q % 25 not in (7, 18)
            assert rc.residue_mod_25 in ADMISSIBLE_RESIDUES
        elif rc.form is RadicandForm.FIVE_POWER_TIMES_P:
            assert rc.p is not None and rc.p % 5 == 1 and rc.p % 25 != 1
            assert rc.residue_mod_25 not in ADMISSIBLE_RESIDUES


def test_three_prime_shapes_no_match():
    # p1 * p2 * q with three distinct primes is outside the three shapes
    assert classify_radicand(11 * 31 * 3).form is RadicandForm.NO_MATCH


def test_five_power_with_p_squared_no_match():
    # 5^e * p^2 is not the 5^e*p shape
    assert classify_radicand(5 * 11 ** 2).form is RadicandForm.NO_MATCH


def test_trial_factor_limit():
    with pytest.raises(FactorizationLimitExceeded):
        trial_factor(1009 * 1013, limit=500)


def test_trial_factor_basic():
    assert trial_factor(360) == {2: 3, 3: 2, 5: 1}
    assert trial_factor(2111) == {2111: 1}


@pytest.mark.parametrize("n,want", sorted(BEYOND_OLD_CEILING.items()))
def test_classify_beyond_old_ceiling(n, want):
    with pytest.raises(FactorizationLimitExceeded):
        trial_factor(n)
    rc = classify_radicand(n)
    assert (rc.form.value, rc.p, rc.q, rc.e) == want
    assert rc.reconstruct() == n


@pytest.mark.parametrize("n,want", sorted(ABOVE_BOUND_BY_TRIAL_DIVISION.items()))
def test_classify_above_bound_by_trial_division(n, want):
    assert n >= MILLER_RABIN_BOUND
    rc = classify_radicand(n)
    assert (rc.form.value, rc.p, rc.q, rc.e) == want
    # the same shape as from the plain trial-division factoriser
    form, p, q, e = radicand_shape(n, trial_factor(n))
    assert (form.value, p, q, e) == want
    assert main(["classify", str(n)]) == 0


def _fields(n):
    rc = classify_radicand(n)
    return rc.form, rc.p, rc.q, rc.e


def _first_prime(start, residue):
    r = start
    while r % 25 != residue or not is_rational_prime(r):
        r += 1
    return r


def test_classify_matches_the_shape_rules_oracle():
    # classify_radicand decides by the state tables, radicand_shape by the
    # whole factorisation, here found by trial division.
    for n in range(2, 3 * 10**4 + 1):
        assert outcome(_fields, n) == outcome(radicand_shape, n, trial_factor(n)), n
    # The rules read only residues mod 25, so a prime below 2^16 and one
    # above 2^32 of each residue stand for all the others.  No product has
    # two primes above 2^32, which would cost factorize a long rho run.
    smalls = [_first_prime(2, r) for r in range(25) if r % 5]
    bigs = [_first_prime(2**32, r) for r in range(25) if r % 5]
    cases = [{p: e} for p in smalls + bigs for e in range(1, 5)]
    cases += [{5: a, p: e} for a in range(1, 5) for p in smalls + bigs for e in (1, 2)]
    cases += [
        {p: e, q: f}
        for i, p in enumerate(smalls)
        for q in smalls[i + 1 :] + bigs
        for e in range(1, 5)
        for f in range(1, 5)
    ]
    cases += [
        {p: 1, q: 1, r: 1}
        for i, p in enumerate(smalls)
        for q in smalls[i + 1 :]
        for r in [5] + bigs
    ]
    forms = set()
    for factors in cases:
        n = math.prod(r**f for r, f in factors.items())
        want = radicand_shape(n, factors)
        assert _fields(n) == want, factors
        forms.add(want[0])
    assert forms == set(RadicandForm)
    # Refused before the tables are read: factorize cannot decide 2^89 - 1,
    # and 5^5*31 is not fifth-power-free.
    m89 = 2**89 - 1
    for n in (m89, 3 * m89, 41 * m89):
        with pytest.raises(FactorizationLimitExceeded, match=str(n)):
            classify_radicand(n)
    for factors in ({4_000_037: 2}, {5: 3, 1301: 2}, {2: 1, 31: 4}, {5: 5, 31: 1}):
        n = math.prod(r**f for r, f in factors.items())
        assert outcome(_fields, n) == outcome(radicand_shape, n, factors), n
