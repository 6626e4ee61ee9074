import random

import pytest

from quintcap.cyclotomic import (
    CycInt,
    ONE,
    ZETA,
    congruent_mod_lambda_pow,
    euclid_divmod,
    gcd,
    lambda_residue,
)
from quintcap import primes
from quintcap.factor import MILLER_RABIN_BOUND
from quintcap.primes import (
    AssociateNormalization,
    AssociateNotFound,
    PrimeElement,
    PrimeKind,
    UnsupportedPrimeError,
    factor_rational_prime,
    fifth_roots_of_unity,
    is_rational_prime,
    iter_units,
    normalize_associate,
    residue_field_reduce,
    unit_residues_mod_lambda_pow,
)

import oracles
from conftest import digits_congruent, oracle_radicands, outcome, random_cycint
from oracles import smallest_primitive_root


def test_fifth_roots_mod_11():
    assert fifth_roots_of_unity(11) == [3, 4, 5, 9]


def _split_primes_below(n):
    return [p for p in range(11, n, 10) if is_rational_prime(p)]


def _random_large_split_primes(count, seed):
    # p = 1 (mod 5) in the range the report-large benchmark draws from
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randrange(10**11, 16 * 10**12) // 10 * 10 + 1
        if is_rational_prime(p):
            out.append(p)
    return out


def test_fifth_roots_match_primitive_root_construction():
    for p in _split_primes_below(2 * 10**5) + _random_large_split_primes(200, 1):
        assert fifth_roots_of_unity(p) == oracles.fifth_roots_by_primitive_root(p), p


def test_fifth_roots_reject_p_not_1_mod_5():
    for p in (2, 3, 5, 7, 19):
        with pytest.raises(ValueError):
            fifth_roots_of_unity(p)


def test_split_gcd_matches_oracle():
    for p in _split_primes_below(10**4) + _random_large_split_primes(200, 2):
        r = oracles.fifth_roots_by_primitive_root(p)[0]
        args = (CycInt(p), ZETA - CycInt(r))
        assert gcd(*args).coords == oracles.gcd(*args).coords, p


def test_smallest_primitive_root():
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(31) == 3


def _multiplicative_order(g, p):
    order, x = 1, g
    while x != 1:
        x, order = x * g % p, order + 1
    return order


def test_smallest_primitive_root_against_orders():
    for p in range(3, 1500):
        if is_rational_prime(p):
            g = smallest_primitive_root(p)
            assert _multiplicative_order(g, p) == p - 1, p
            assert all(_multiplicative_order(h, p) < p - 1 for h in range(2, g)), p
    # p - 1 = 2 * 1000000000061: one large prime factor, found by the factoriser
    p = 2_000_000_000_123
    assert is_rational_prime(p) and is_rational_prime((p - 1) // 2)
    g = smallest_primitive_root(p)
    assert pow(g, (p - 1) // 2, p) != 1 and pow(g, 2, p) != 1
    assert all(pow(h, (p - 1) // 2, p) == 1 or pow(h, 2, p) == 1 for h in range(2, g))


def test_factor_11(split_11):
    assert split_11.root == 3
    assert len(split_11.factors) == 4
    for f in split_11.factors:
        assert f.kind is PrimeKind.SPLIT
        assert f.value.norm() == 11


def test_factor_inert():
    data = factor_rational_prime(3)
    (f,) = data.factors
    assert f.kind is PrimeKind.INERT
    assert f.label == 5
    assert f.value == CycInt(3)
    assert f.value.norm() == 81


def test_factor_five_is_lambda():
    data = factor_rational_prime(5)
    (f,) = data.factors
    assert f.kind is PrimeKind.LAMBDA
    assert f.label == 0
    assert f.value.norm() == 5


def test_factor_rejects_degree_two_case():
    with pytest.raises(UnsupportedPrimeError):
        factor_rational_prime(19)


def test_factor_rejects_composites():
    with pytest.raises(ValueError):
        factor_rational_prime(21)
    with pytest.raises(ValueError, match="not a rational prime"):
        factor_rational_prime(91)  # 7 * 13, 91 = 1 (mod 5)


@pytest.mark.parametrize("p", [11, 31, 41, 61, 71, 101, 131, 151, 191])
def test_split_factor_invariants(p):
    data = factor_rational_prime(p)
    product = ONE
    for f in data.factors:
        assert f.value.norm() == p
        product = product * f.value
    q, r = euclid_divmod(product, CycInt(p))
    assert r.is_zero()
    assert q.norm() == 1
    # conjugate labelling: pi3 = tau^2(pi1), pi4 = tau^2(pi2)
    assert data.factors[2].value == data.factors[0].value.galois(2)
    assert data.factors[3].value == data.factors[1].value.galois(2)
    g = gcd(data.factors[0].value.galois(2), data.factors[2].value)
    assert g.norm() == p


def test_residue_reduce_definition(split_11):
    pi1 = split_11.factors[0]
    assert residue_field_reduce(CycInt(0, 1), pi1) == 3
    assert residue_field_reduce(pi1.value, pi1) == 0


def test_residue_reduce_own_root_kernel(split_31):
    for f in split_31.factors:
        assert residue_field_reduce(f.value, f) == 0


def test_residue_reduce_homomorphism(rng, split_31):
    pi1 = split_31.factors[0]
    for _ in range(50):
        a, b = random_cycint(rng), random_cycint(rng)
        assert (
            residue_field_reduce(a * b, pi1)
            == residue_field_reduce(a, pi1) * residue_field_reduce(b, pi1) % 31
        )
        assert (
            residue_field_reduce(a + b, pi1)
            == (residue_field_reduce(a, pi1) + residue_field_reduce(b, pi1)) % 31
        )


def test_residue_reduce_surjective(split_11):
    pi1 = split_11.factors[0]
    images = {residue_field_reduce(CycInt(i), pi1) for i in range(11)}
    assert images == set(range(11))


def test_unit_scan_order():
    units = list(iter_units())
    assert len(units) == 5 * (2 * primes.UNIT_BOUND + 1) * 2
    words = [(w.zeta_exp, w.fund_exp, w.sign) for w, _ in units]
    assert words[:5] == [(0, 0, 1), (0, 0, -1), (0, 1, 1), (0, 1, -1), (0, -1, 1)]
    # a increments only after the whole t range
    boundary = 2 * (2 * primes.UNIT_BOUND + 1)
    assert {a for a, _, _ in words[:boundary]} == {0}
    assert words[boundary - 1] == (0, -primes.UNIT_BOUND, -1)
    assert words[boundary] == (1, 0, 1)


def test_unit_words_evaluate():
    units = list(iter_units())
    assert len(units) == 170
    for word, u in units:
        assert u.norm() == 1
        assert oracles.unit_word_value(word) == u


def test_unit_image_subgroup_size():
    # the image of the unit group in (Z[zeta]/lambda^k)* has order 4, 20, 100,
    # 100, 100 for k = 1..5; the scan table is that image, class for class,
    # against the breadth-first closure of the oracle
    from quintcap.cyclotomic import lambda_expand, lambda_key

    for k, order in zip(range(1, 6), (4, 20, 100, 100, 100)):
        image = unit_residues_mod_lambda_pow(k)
        assert len(image) == order == len(oracles.unit_image(k))
        assert all(lambda_key(u, k) == key for key, u in image.items())
        assert {lambda_expand(u, k).digits for u in image.values()} == set(oracles.unit_image(k))


def test_normalize_trivial_targets(split_31):
    pi1 = split_31.factors[0]
    res = normalize_associate(pi1, 1, [1, 2, 3, 4])
    assert res.unit == ONE
    assert res.unit_word.zeta_exp == 0 and res.unit_word.fund_exp == 0
    assert congruent_mod_lambda_pow(res.normalized, res.residue, 1)


def test_normalize_rational_mod_lambda_cubed(split_31):
    # Every split prime admits an associate congruent to a rational integer
    # modulo lambda^3 (computed once; the bound is sharp, lambda^4 fails).
    pi1 = split_31.factors[0]
    res = normalize_associate(pi1, 3, [1, 2, 3, 4])
    assert congruent_mod_lambda_pow(res.unit * pi1.value, res.residue, 3)
    with pytest.raises(AssociateNotFound):
        normalize_associate(pi1, 4, [1, 2, 3, 4])


def test_normalize_151_target_one_impossible(split_151):
    # Computed once by exhausting the full 100-element unit image mod lambda^5:
    # no associate of the prime above 151 is congruent to 1, despite
    # 151 = 1 (mod 25).  The obstruction is a unit condition, not a bound.
    with pytest.raises(AssociateNotFound, match="full unit image was exhausted"):
        normalize_associate(split_151.factors[0], 5, [1])


def test_normalize_31_target_one_impossible(split_31):
    with pytest.raises(AssociateNotFound, match="full unit image was exhausted"):
        normalize_associate(split_31.factors[0], 5, [1])


@pytest.mark.parametrize("bound", [0, 2, 4])
def test_short_unit_scan_is_refused_not_read_as_a_proof(split_151, monkeypatch, bound):
    # A scan table smaller than the unit image must not turn a miss into a
    # false impossibility: building it raises instead.  At k = 5 these scans
    # meet 10, 50 and 90 of the 100 classes.
    monkeypatch.setattr(primes, "UNIT_BOUND", bound)
    monkeypatch.setattr(primes, "_UNIT_TABLES", {})
    with pytest.raises(ArithmeticError, match="misses part of the unit image"):
        normalize_associate(split_151.factors[0], 5, [1])


def test_normalize_pair_product_succeeds(split_151):
    # The tau^2-symmetric product pi1*pi3 does admit a +-1,+-7 normalisation.
    pi1 = split_151.factors[0]
    pair = pi1.value * pi1.value.galois(2)
    hit = None
    for word, u in iter_units():
        v = u * pair
        for r in (1, 7, 18, 24):
            if congruent_mod_lambda_pow(v, CycInt(r), 5):
                hit = r
                break
        if hit:
            break
    assert hit == 1


PI_11 = factor_rational_prime(11).factors[0]
BAD_K = "modulus exponent must be in 1..5"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: residue_field_reduce(CycInt(2), factor_rational_prime(7).factors[0]),
            UnsupportedPrimeError,
            "residue reduction needs a split prime with a root",
        ),
        (lambda: normalize_associate(PI_11, 0, [1]), ValueError, BAD_K),
        (lambda: normalize_associate(PI_11, 6, [1]), ValueError, BAD_K),
        (lambda: normalize_associate(PI_11, 5, []), ValueError, "empty target set"),
    ],
    ids=["reduce-at-inert", "normalize-k-0", "normalize-k-6", "normalize-no-targets"],
)
def test_primes_refusals(call, error, message):
    assert outcome(call)[:3] == ("raised", error, message)


def test_normalize_rejects_inert():
    q = factor_rational_prime(3).factors[0]
    with pytest.raises(UnsupportedPrimeError):
        normalize_associate(q, 5, [1])


# --- primality -----------------------------------------------------------------

def trial_division_is_prime(n):
    # The original primality test, kept as the oracle.
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_miller_rabin_matches_trial_division():
    for n in range(-3, 200_000):
        assert is_rational_prime(n) == trial_division_is_prime(n), n


def test_miller_rabin_strong_pseudoprimes_and_bound():
    # strong pseudoprimes to the prime bases 2..7, 2..31 and 2..37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_rational_prime(n)
    assert is_rational_prime(10**12 + 39)
    assert MILLER_RABIN_BOUND == 1287836182261 * 2575672364521
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2):
        with pytest.raises(ValueError, match="not decided"):
            is_rational_prime(n)
    assert not is_rational_prime(MILLER_RABIN_BOUND - 1)


# --- lookups against the original unit scan --------------------------------------

def test_unit_image_is_returned_as_a_copy():
    image = unit_residues_mod_lambda_pow(3)
    size = len(image)
    image.clear()
    assert len(unit_residues_mod_lambda_pow(3)) == size > 0


def scan_normalize_associate(pi, k, targets):
    # The original bounded scan and image exhaustion, kept as the oracle.
    target_vals = [CycInt(t) for t in targets]
    for word, u in iter_units():
        v = u * pi.value
        for t in target_vals:
            if digits_congruent(v, t, k):
                return AssociateNormalization(u, word, v, t)
    for urep in oracles.unit_image(k).values():
        v = urep * pi.value
        for t in target_vals:
            if digits_congruent(v, t, k):
                raise AssociateNotFound(
                    f"a unit exists mod lambda^{k} but lies outside the scan"
                )
    raise AssociateNotFound(
        f"no associate of the prime above {pi.rational_below} meets the congruence"
        f" mod lambda^{k}; the full unit image was exhausted"
    )


def test_normalize_associate_matches_scan():
    seen = set()
    kinds = set()
    for rc in oracle_radicands():
        if rc.p in seen:
            continue
        seen.add(rc.p)
        pi1 = factor_rational_prime(rc.p).factors[0]
        for k, targets in [
            (5, [1]),
            (3, [1, 2, 3, 4]),
            (2, [7, 1]),
            (4, [1, 7, 18, 24]),
        ]:
            expected = outcome(scan_normalize_associate, pi1, k, targets)
            assert outcome(normalize_associate, pi1, k, targets) == expected
            kinds.add(expected[0])
    # found and proven impossible both occur
    assert kinds == {"returned", "raised"}


def test_normalize_associate_matches_product_oracle_for_every_k():
    # One element of every unit class mod lambda^k for k = 1..5, against
    # integer targets, whose keys come from b^-1 by integer arithmetic.  A
    # target outside Z is refused, not looked up.
    target_lists = ([1], [1, 7, 18, 24])
    found = set()
    for k in range(1, 6):
        for x in oracles.iter_residues_mod_lambda_pow(k):
            if not lambda_residue(x):
                continue
            pi = PrimeElement(x, PrimeKind.SPLIT, 1, x.norm())
            for targets in target_lists:
                vals = [CycInt(t) for t in targets]
                hit = oracles.first_unit_hit(x, k, vals)
                got = outcome(normalize_associate, pi, k, targets)
                if hit is None:
                    assert got[:2] == ("raised", AssociateNotFound), (x, k, targets)
                else:
                    word, u, i = hit
                    expected = AssociateNormalization(u, word, u * x, vals[i])
                    assert got == ("returned", expected), (x, k, targets)
                found.add(hit is not None)
        with pytest.raises(TypeError):
            normalize_associate(pi, k, [2, CycInt(2, 1), 3])
    assert found == {True, False}
