import functools
import itertools
import operator
from fractions import Fraction

import pytest

from quintcap import cyclotomic
from quintcap.cyclotomic import (
    CycInt,
    LAMBDA,
    ONE,
    ZERO,
    ZETA,
    congruent_mod_lambda_pow,
    euclid_divmod,
    fifth_power_solvable_mod_lambda,
    gcd,
    lambda_expand,
    lambda_inverse,
    lambda_key,
    lambda_multiple_keys,
    lambda_residue,
    lambda_valuation,
)
from quintcap.factor import is_rational_prime
from quintcap.primes import fifth_roots_of_unity

import oracles
from conftest import random_cycint


# --- ring operations ------------------------------------------------------

def test_zeta_power_reduction():
    # zeta * zeta^3 = zeta^4 = -(1 + zeta + zeta^2 + zeta^3)
    assert ZETA * ZETA ** 3 == CycInt(-1, -1, -1, -1)


def test_one_minus_zeta_plus_zeta():
    assert (ONE - ZETA) + ZETA == ONE


def test_minimal_polynomial():
    assert (ONE + ZETA + ZETA ** 2 + ZETA ** 3 + ZETA ** 4).is_zero()
    assert ZETA ** 5 == ONE


def test_lambda_fourth_power_is_unit_times_five():
    l4 = LAMBDA ** 4
    assert l4 == CycInt(0, -5, 5, -5)
    unit = CycInt(0, -1, 1, -1)
    assert unit.norm() == 1
    assert unit * 5 == l4


def test_scalar_multiplication(rng):
    x = random_cycint(rng)
    assert 3 * x == x + x + x
    assert x * -1 == -x


# --- galois action --------------------------------------------------------

def test_galois_sends_zeta_to_square():
    assert ZETA.galois(1) == ZETA ** 2


def test_galois_identity(rng):
    x = random_cycint(rng)
    assert x.galois(0) == x


def test_galois_order_four(rng):
    for _ in range(25):
        x = random_cycint(rng)
        assert x.galois(2).galois(2) == x
        assert x.galois(1).galois(1).galois(1).galois(1) == x


def test_galois_is_ring_homomorphism(rng):
    for _ in range(50):
        a, b = random_cycint(rng), random_cycint(rng)
        for j in range(4):
            assert (a + b).galois(j) == a.galois(j) + b.galois(j)
            assert (a * b).galois(j) == a.galois(j) * b.galois(j)


# --- norm -----------------------------------------------------------------

def test_norm_of_lambda():
    assert LAMBDA.norm() == 5


def test_norm_of_unit_and_integer():
    assert ZETA.norm() == 1
    assert CycInt(7).norm() == 2401


def test_norm_multiplicative(rng):
    for _ in range(200):
        a, b = random_cycint(rng), random_cycint(rng)
        assert (a * b).norm() == a.norm() * b.norm()


def test_norm_galois_invariant(rng):
    for _ in range(50):
        x = random_cycint(rng)
        for j in range(4):
            assert x.galois(j).norm() == x.norm()


def test_norm_positive(rng):
    for _ in range(100):
        x = random_cycint(rng)
        if not x.is_zero():
            assert x.norm() > 0


# --- euclidean division and gcd -------------------------------------------

def test_divmod_by_one(rng):
    x = random_cycint(rng)
    q, r = euclid_divmod(x, ONE)
    assert q == x and r.is_zero()


def test_divmod_eleven_by_lambda():
    q, r = euclid_divmod(CycInt(11), LAMBDA)
    assert CycInt(11) == q * LAMBDA + r
    assert r.norm() < 5


def test_divmod_contract(rng):
    for _ in range(300):
        a, b = random_cycint(rng), random_cycint(rng)
        if b.is_zero():
            continue
        q, r = euclid_divmod(a, b)
        assert (a - q * b - r).is_zero()
        assert r.norm() < b.norm()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        euclid_divmod(ONE, ZERO)


def test_gcd_with_zero(rng):
    x = random_cycint(rng)
    if x.is_zero():
        x = ONE
    assert gcd(x, ZERO) == x


def test_gcd_zero_zero_undefined():
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)


def test_gcd_eleven_and_root():
    # 3^5 = 243 = 1 (mod 11), so zeta - 3 shares a degree-1 prime with 11
    g = gcd(CycInt(11), ZETA - CycInt(3))
    assert g.norm() == 11


def test_gcd_divides_products(rng):
    for _ in range(40):
        a, b = random_cycint(rng, -9, 9), random_cycint(rng, -9, 9)
        if a.is_zero() or b.is_zero():
            continue
        g = gcd(a, a * b)
        # g is an associate of a: the quotient in both directions is exact
        q1, r1 = euclid_divmod(g, a)
        q2, r2 = euclid_divmod(a, g)
        assert r1.is_zero() and r2.is_zero()
        assert q1.norm() == 1 and q2.norm() == 1


# --- kernel, checked against the slow oracles -------------------------------

def test_kernel_matches_oracles(rng):
    # Coordinates up to 10^e for e drawn per element, so small divisors of
    # huge dividends (the gcd steps) occur as well as balanced pairs.
    for _ in range(10_000):
        x, y = (
            CycInt(*(rng.randint(-(10**e), 10**e) for _ in range(4)))
            for e in (rng.randint(0, 30), rng.randint(0, 30))
        )
        assert (x * y).coords == oracles.mul(x, y).coords
        assert x.norm() == oracles.norm(x)
        for j in range(-5, 9):
            assert x.galois(j).coords == oracles.galois(x, j).coords, (x, j)
        if not y.is_zero():
            q, r = euclid_divmod(x, y)
            oq, orr = oracles.euclid_divmod(x, y)
            assert (q.coords, r.coords) == (oq.coords, orr.coords), (x, y)


# Divisions whose rounded quotient leaves too large a remainder, so the
# answer comes from _FALLBACK_OFFSETS; found by a seeded search over
# coordinates in -50..50, where about 1 in 5000 divisions needs the grid.
FALLBACK_DIVISIONS = [
    ((-32, 3, 2, -20), (-4, 4, 4, 6)),
    ((32, -9, 33, -32), (-10, 31, 12, -43)),
    ((2, 1, -23, -46), (-6, 34, -49, 8)),
    ((-3, -24, -36, -44), (-30, -18, -13, -18)),
    ((0, -16, -30, 34), (42, 18, 44, 35)),
    ((48, 4, 9, 44), (44, -17, -45, -37)),
    ((36, 49, 19, -4), (-45, -24, 29, 50)),
    ((-11, 7, 4, 50), (-45, 21, 3, -10)),
    ((-49, -13, 25, -46), (39, -47, -19, -25)),
    ((32, -13, 29, 33), (14, -10, -42, -12)),
    ((-23, 29, -8, 12), (10, -48, -42, 1)),
    ((-27, -22, 24, 5), (13, -50, -36, 50)),
]


def test_divmod_fallback_matches_oracle():
    for a, b in FALLBACK_DIVISIONS:
        a, b = CycInt(*a), CycInt(*b)
        q0, nb = oracles.rounded_quotient(a, b)
        assert oracles.norm(a - oracles.mul(CycInt(*q0), b)) >= nb
        q, r = euclid_divmod(a, b)
        oq, orr = oracles.euclid_divmod(a, b)
        assert (q.coords, r.coords) == (oq.coords, orr.coords)
        assert q != CycInt(*q0) and r.norm() < nb


def _assert_gcd_matches_oracle(a, b):
    # Walks the oracle's chain of remainders, checks euclid_divmod at every
    # step, and checks that gcd ends where the oracle does.
    x, y = a, b
    while not y.is_zero():
        oq, orr = oracles.euclid_divmod(x, y)
        q, r = euclid_divmod(x, y)
        assert (q.coords, r.coords) == (oq.coords, orr.coords), (x, y)
        x, y = y, orr
    assert gcd(a, b).coords == x.coords, (a, b)
    return x


def _split_pair(p):
    # The pair whose gcd is pi_1 in primes._split_prime.
    return CycInt(p), ZETA - CycInt(fifth_roots_of_unity(p)[0])


def test_gcd_matches_oracle_on_small_split_primes():
    for p in range(11, 2 * 10**5, 10):
        if is_rational_prime(p):
            assert _assert_gcd_matches_oracle(*_split_pair(p)).norm() == p


def test_gcd_matches_oracle_on_large_split_primes(rng):
    # The range of p in the report-large benchmark workload.
    count = 0
    while count < 2000:
        p = rng.randrange(10**11, 16 * 10**12) // 10 * 10 + 1
        if is_rational_prime(p):
            assert _assert_gcd_matches_oracle(*_split_pair(p)).norm() == p
            count += 1


def test_gcd_with_fallback_first_step_matches_oracle():
    for a, b in FALLBACK_DIVISIONS:
        _assert_gcd_matches_oracle(CycInt(*a), CycInt(*b))


def test_fallback_grid_is_what_rescues_the_fallback_divisions(monkeypatch):
    # Without the grid past the rounded quotient, each of these divisions
    # has no proven remainder, and both entry points must say so.
    monkeypatch.setattr(cyclotomic, "_FALLBACK_OFFSETS", ((0, 0, 0, 0),))
    for a, b in FALLBACK_DIVISIONS:
        a, b = CycInt(*a), CycInt(*b)
        with pytest.raises(ArithmeticError, match="euclidean division failed"):
            euclid_divmod(a, b)
        with pytest.raises(ArithmeticError, match="euclidean division failed"):
            gcd(a, b)


# --- lambda-adic machinery --------------------------------------------------

def test_lambda_residue_values():
    assert lambda_residue(ZETA) == 1
    assert lambda_residue(LAMBDA) == 0
    assert lambda_residue(CycInt(7)) == 2


def test_div_lambda_exact_rejects_units():
    # The exact division of the expansion oracle.
    with pytest.raises(ValueError):
        oracles.div_lambda_exact(ONE)


def test_lambda_valuation():
    assert lambda_valuation(LAMBDA) == 1
    assert lambda_valuation(CycInt(5)) == 4
    assert lambda_valuation(CycInt(25)) == 8
    assert lambda_valuation(CycInt(7)) == 0


def test_lambda_expand_zero():
    assert lambda_expand(ZERO, 5).digits == (0, 0, 0, 0, 0)


def test_lambda_expand_one():
    assert lambda_expand(ONE, 3).digits == (1, 0, 0)


def test_lambda_expand_five():
    digits = lambda_expand(CycInt(5), 5).digits
    assert digits[:4] == (0, 0, 0, 0)
    assert digits[4] == 4


def test_lambda_expand_roundtrip(rng):
    for _ in range(100):
        x = random_cycint(rng)
        k = rng.randint(1, 8)
        exp = lambda_expand(x, k)
        assert all(0 <= d <= 4 for d in exp.digits)
        diff = x - exp.reassemble()
        if not diff.is_zero():
            assert lambda_valuation(diff) >= k


def test_lambda_expand_and_valuation_match_ring_division_oracle(rng):
    # The coordinate digit step against exact division by lambda in the ring,
    # on x * lambda^e for e up to 12: zero, units, powers of 5 and seeded
    # random x, small and large.
    units = [ONE, -ONE, ZETA, ONE + ZETA, -(ZETA ** 2 + ZETA ** 3), ZETA ** 3 * (ONE + ZETA) ** 7]
    xs = [ZERO] + units + [CycInt(5 ** j) for j in range(1, 5)]
    xs += [random_cycint(rng) for _ in range(40)]
    xs += [random_cycint(rng, -10**15, 10**15) for _ in range(10)]
    for x in xs:
        for e in range(13):
            y = x * LAMBDA ** e
            for k in (16, rng.randint(1, 16)):
                assert lambda_expand(y, k) == oracles.lambda_expand(y, k), (x, e, k)
            if y:
                assert lambda_valuation(y) == oracles.lambda_valuation(y), (x, e)
    for j in range(1, 5):
        assert lambda_valuation(CycInt(5 ** j)) == 4 * j
    with pytest.raises(ValueError, match="zero"):
        lambda_valuation(ZERO)


def test_congruence_examples():
    assert congruent_mod_lambda_pow(CycInt(7), CycInt(7), 5)
    # 1 - (-1) = 2 is a unit mod lambda
    assert not congruent_mod_lambda_pow(ONE, -ONE, 1)
    # 5*lambda has valuation 5
    for n in (CycInt(3), CycInt(-12, 4, 1, 0)):
        assert congruent_mod_lambda_pow(n, n + CycInt(5) * LAMBDA, 5)


def test_congruence_26_vs_1():
    # 25 has lambda-valuation 8
    assert congruent_mod_lambda_pow(CycInt(26), ONE, 5)
    assert not congruent_mod_lambda_pow(ONE + LAMBDA ** 4, ONE, 5)
    assert congruent_mod_lambda_pow(ONE + LAMBDA ** 4, ONE, 4)


# --- fifth-power solvability ------------------------------------------------

def brute_force_solvable(theta, k):
    # Independent oracle for k <= 4: coordinates mod 5 cover Z[zeta]/(lambda^k)
    # because (lambda^4) = (5).
    assert k <= 4
    for coords in itertools.product(range(5), repeat=4):
        x = CycInt(*coords)
        if lambda_residue(x) == 0:
            continue
        if congruent_mod_lambda_pow(x ** 5, theta, k):
            return True
    return False


def test_solvable_trivial_cases():
    assert fifth_power_solvable_mod_lambda(ONE, 6)
    assert fifth_power_solvable_mod_lambda(CycInt(7), 5)
    assert not fifth_power_solvable_mod_lambda(CycInt(6), 5)


def test_solvable_constructed_fifth_powers(rng):
    for _ in range(10):
        x = random_cycint(rng, -6, 6)
        if lambda_residue(x) == 0:
            continue
        assert fifth_power_solvable_mod_lambda(x ** 5, 6)


def test_solvable_zeta_frozen():
    # zeta = 1 - lambda is a fifth power mod lambda but not mod lambda^2;
    # value computed once with the redundant coordinate oracle and frozen.
    assert fifth_power_solvable_mod_lambda(ZETA, 1)
    for k in range(2, 7):
        assert not fifth_power_solvable_mod_lambda(ZETA, k)


def test_solvable_agrees_with_coordinate_oracle(rng):
    for k in (2, 3, 4):
        for _ in range(5):
            theta = random_cycint(rng, -10, 10)
            if lambda_residue(theta) == 0:
                continue
            assert fifth_power_solvable_mod_lambda(theta, k) == brute_force_solvable(
                theta, k
            )


def test_solvable_monotone(rng):
    for _ in range(10):
        theta = random_cycint(rng, -10, 10)
        if lambda_residue(theta) == 0:
            continue
        results = [fifth_power_solvable_mod_lambda(theta, k) for k in (1, 2, 3, 4)]
        for weaker, stronger in zip(results, results[1:]):
            if stronger:
                assert weaker


def test_solvable_rejects_lambda_multiples():
    with pytest.raises(ValueError):
        fifth_power_solvable_mod_lambda(LAMBDA, 3)


def test_residue_enumeration_is_complete():
    seen = {lambda_expand(x, 2).digits for x in oracles.iter_residues_mod_lambda_pow(2)}
    assert len(seen) == 25


# --- residue keys, checked against the digit expansions --------------------------

def test_lambda_key_matches_digit_expansion(rng):
    for k in range(1, 9):
        xs = [random_cycint(rng) for _ in range(12)]
        # adding multiples of lambda^j makes pairs that agree to every depth
        xs += [x + LAMBDA ** rng.randint(0, 9) * random_cycint(rng, -9, 9) for x in xs]
        keys = [lambda_key(x, k) for x in xs]
        digits = [oracles.lambda_expand(x, k).digits for x in xs]
        assert all(0 <= key < 5 ** k for key in keys)
        for i in range(len(xs)):
            for j in range(len(xs)):
                assert (keys[i] == keys[j]) == (digits[i] == digits[j])


def test_lambda_key_labels_every_class():
    for k in range(1, 5):
        keys = {lambda_key(x, k) for x in oracles.iter_residues_mod_lambda_pow(k)}
        assert keys == set(range(5 ** k))
    for k in range(1, 9):
        assert lambda_key(LAMBDA ** k, k) == 0
        assert lambda_key(LAMBDA ** (k - 1), k) != 0


def test_lambda_multiple_keys_are_the_keys_of_the_multiples(rng):
    scalars = [0, 1, -1, 7, 24, -25, 126, 5**9 + 3, rng.randrange(-10**30, 10**30)]
    for k in range(1, 10):
        for x in [random_cycint(rng) for _ in range(6)] + [random_cycint(rng, -10**20, 10**20)]:
            assert lambda_multiple_keys(x, k, scalars) == [lambda_key(c * x, k) for c in scalars]
    with pytest.raises(ValueError, match="at least 1"):
        lambda_multiple_keys(ONE, 0, [1])


def test_lambda_key_rejects_empty_precision():
    with pytest.raises(ValueError):
        lambda_key(ONE, 0)
    with pytest.raises(ValueError):
        congruent_mod_lambda_pow(ONE, ONE, 0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            lambda_inverse(ONE, k)


def test_lambda_inverse(rng):
    # Coordinates up to 10^e for e drawn per element; x runs over units mod
    # lambda only.
    checked = 0
    while checked < 2000:
        e = rng.randint(0, 30)
        x = CycInt(*(rng.randint(-(10**e), 10**e) for _ in range(4)))
        if lambda_residue(x) == 0:
            continue
        checked += 1
        for k in range(1, 9):
            inverse = lambda_inverse(x, k)
            assert lambda_key(inverse, k) == lambda_key(oracles.lambda_inverse(x, k), k), (x, k)
            assert congruent_mod_lambda_pow(x * inverse, ONE, k), (x, k)
    with pytest.raises(ValueError):
        lambda_inverse(LAMBDA, 3)


# --- fifth powers, checked against exhaustive searches --------------------------

@functools.cache
def fifth_power_expansions(k):
    # The original decision procedure, kept as the oracle: the digit
    # expansions, by exact ring division, of the fifth power of every
    # residue mod lambda^k prime to lambda.
    return frozenset(
        oracles.lambda_expand(x ** 5, k).digits
        for x in oracles.iter_residues_mod_lambda_pow(k)
        if lambda_residue(x)
    )


def enumerate_solvable(theta, k):
    return oracles.lambda_expand(theta, k).digits in fifth_power_expansions(k)


@functools.cache
def unit_fifth_powers_mod_25():
    # Z[zeta]/(lambda^8) = Z[zeta]/(25): coordinates mod 25.  (a + 5b)^5 = a^5
    # (mod 25), so the fifth powers of those 25^4 residues are the fifth
    # powers of the 5^4 residues with coordinates mod 5.
    return [
        x ** 5
        for x in map(CycInt.from_coords, itertools.product(range(5), repeat=4))
        if lambda_residue(x)
    ]


def coordinate_solvable(theta, k):
    # Exhaustive over the residues mod lambda^8; y lies in (lambda^k) iff
    # y * lambda^(8-k) lies in (25).
    assert k <= 8
    shift = LAMBDA ** (8 - k)
    return any(
        all(c % 25 == 0 for c in ((y - theta) * shift).coords)
        for y in unit_fifth_powers_mod_25()
    )


def test_solvable_agrees_with_enumeration(rng):
    thetas = []
    while len(thetas) < 12:
        theta = random_cycint(rng, -10, 10)
        if lambda_residue(theta):
            thetas.append(theta)
    fifth = CycInt(2, -1, 3, 0) ** 5
    for k in range(1, 7):
        # one theta that is a fifth power mod lambda^k, and one or two that are not
        cases = [fifth * (ONE + LAMBDA ** k)]
        if k <= 5:
            cases.append(fifth * (ONE + LAMBDA ** (k - 1)))
        for theta in thetas + cases:
            expected = enumerate_solvable(theta, k)
            assert fifth_power_solvable_mod_lambda(theta, k) == expected
            assert coordinate_solvable(theta, k) == expected


def test_solvable_k7_k8_agrees_with_coordinate_search(rng):
    fifths = [CycInt(2, -1, 3, 0) ** 5, CycInt(3, -2, 5, 1) ** 5]
    for k in (7, 8):
        cases = [ZETA] + fifths
        cases += [x * (ONE + LAMBDA ** j) for x in fifths for j in (k - 1, k)]
        cases += [random_cycint(rng) for _ in range(10)]
        for theta in cases:
            if lambda_residue(theta):
                assert fifth_power_solvable_mod_lambda(theta, k) == coordinate_solvable(theta, k)


# --- the Teichmueller rule against the enumerated fifth powers --------------------

def rule_mismatches(thetas, k):
    # The units among thetas on which the rule and the enumeration disagree.
    keys = oracles.fifth_power_keys(k)
    return [
        theta
        for theta in thetas
        if lambda_residue(theta)
        and fifth_power_solvable_mod_lambda(theta, k) != (lambda_key(theta, k) in keys)
    ]


def test_teichmuller_rule_matches_enumeration_on_every_class():
    for k in range(1, 7):
        assert rule_mismatches(oracles.iter_residues_mod_lambda_pow(k), k) == [], k


def test_teichmuller_rule_matches_enumeration_at_k7_k8():
    # The fifth-power classes mod lambda^k, k = 7, 8, are exactly the lifts
    # omega + lambda^6*y of the four omega = d^5 mod 25: the enumeration's key
    # set equals theirs, so the rule holds on all 5^k classes without visiting
    # them.  The function must say yes on every lift, and agree with the keys
    # on one lift of every unit class mod lambda^6.
    omegas = [CycInt(d ** 5 % 25) for d in range(1, 5)]
    lambda6 = LAMBDA ** 6
    classes = list(oracles.iter_residues_mod_lambda_pow(6))
    for k, count in ((7, 20), (8, 100)):
        ys = list(oracles.iter_residues_mod_lambda_pow(k - 6))
        lifts = [w + lambda6 * y for w in omegas for y in ys]
        assert {lambda_key(x, k) for x in lifts} == oracles.fifth_power_keys(k)
        assert len(oracles.fifth_power_keys(k)) == count
        assert all(fifth_power_solvable_mod_lambda(x, k) for x in lifts)
        thetas = (x + lambda6 * ys[i % len(ys)] for i, x in enumerate(classes))
        assert rule_mismatches(thetas, k) == [], k


def test_teichmuller_rule_needs_the_fifth_powers_mod_25(monkeypatch):
    # Plain residues d in place of d^5 mod 25 agree with them mod 5, that is
    # mod lambda^4, so the rule only sees the difference from k = 5 on.
    monkeypatch.setattr(cyclotomic, "_TEICHMULLER", (0, 1, 2, 3, 4))
    assert rule_mismatches(oracles.iter_residues_mod_lambda_pow(4), 4) == []
    assert rule_mismatches(oracles.iter_residues_mod_lambda_pow(5), 5) != []


# --- the fifth-power level against the key rule and the valuation -----------

def level_thetas(rng):
    # Units with coordinates up to 10^e, e drawn per element, negative ones
    # included; then omega + lambda^j*y for each omega = d^5 mod 25, whose
    # level is at least min(j, 6), and each omega itself, whose level is 6.
    thetas = []
    while len(thetas) < 1000:
        e = rng.randint(0, 30)
        theta = CycInt(*(rng.randint(-(10**e), 10**e) for _ in range(4)))
        if lambda_residue(theta):
            thetas.append(theta)
    for d in range(1, 5):
        omega = CycInt(d ** 5 % 25)
        thetas.append(omega)
        for j in range(1, 10):
            for _ in range(20):
                e = rng.randint(0, 30)
                y = CycInt(*(rng.randint(-(10**e), 10**e) for _ in range(4)))
                thetas.append(omega + LAMBDA ** j * y)
    return thetas


def test_fifth_power_level_matches_the_key_rule(rng):
    # On every unit class mod lambda^6 and on large seeded units, the level
    # gives the key comparison's answer at every k = 1..8, and so does
    # fifth_power_solvable_mod_lambda.
    units = [x for x in oracles.iter_residues_mod_lambda_pow(6) if lambda_residue(x)]
    assert len(units) == 12_500
    levels = set()
    for theta in units + level_thetas(rng):
        level = cyclotomic._fifth_power_level(theta)
        levels.add(level)
        for k in range(1, 9):
            expected = oracles.teichmuller_solvable(theta, k)
            assert (level >= min(k, 6)) == expected, (theta, k)
            assert fifth_power_solvable_mod_lambda(theta, k) == expected, (theta, k)
    assert levels == {1, 2, 3, 4, 5, 6}


def test_fifth_power_level_is_the_valuation_of_theta_minus_omega(rng):
    for theta in level_thetas(rng):
        diff = theta - lambda_residue(theta) ** 5 % 25
        expected = 6 if diff.is_zero() else min(6, oracles.lambda_valuation(diff))
        assert cyclotomic._fifth_power_level(theta) == expected, theta


def test_fifth_power_level_is_zero_on_lambda_multiples(rng):
    thetas = [ZERO, LAMBDA, CycInt(5), CycInt(-25, 10**30)]
    for v in range(1, 10):
        e = rng.randint(0, 30)
        y = CycInt(*(rng.randint(-(10**e), 10**e) for _ in range(4)))
        thetas.append(LAMBDA ** v * y)
    for theta in thetas:
        assert lambda_residue(theta) == 0
        assert cyclotomic._fifth_power_level(theta) == 0, theta
        with pytest.raises(ValueError, match="coprime to lambda"):
            fifth_power_solvable_mod_lambda(theta, 6)


# --- operands ---------------------------------------------------------------

def test_non_integer_operands_raise_type_error():
    x = CycInt(1, 2, 3, 4)
    ops = (operator.add, operator.sub, operator.mul, operator.floordiv, operator.mod, divmod)
    for other in (0.5, 1.5, 2.0, Fraction(1, 2)):
        for op in ops:
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        for coords in ((other,), (1, other), (1, 2, 3, other)):
            with pytest.raises(TypeError):
                CycInt(*coords)
    with pytest.raises(TypeError):
        x.galois(1.0)
    with pytest.raises(TypeError):
        CycInt(7) * 2.5
    with pytest.raises(TypeError):
        2.5 * CycInt(7)
    assert CycInt(7) // 2 == CycInt(7) // CycInt(2)
    assert CycInt(7) % 2 == CycInt(7) % CycInt(2)


def test_from_coords_rejects_non_integers():
    # No coordinate is truncated: [1.9, 0, 0, 0] is an error, not CycInt(1).
    for coords in ([1.9, 0, 0, 0], (1, 2, 3, 4.0), [1, Fraction(1, 2), 0, 0], ["1", 0, 0, 0]):
        with pytest.raises(TypeError):
            CycInt.from_coords(coords)
    assert CycInt.from_coords([1, -2, 3, 0]) == CycInt(1, -2, 3, 0)
    assert CycInt.from_coords((True, 0, 0, 0)) == ONE
    with pytest.raises(ValueError):
        CycInt.from_coords([1, 2, 3])
