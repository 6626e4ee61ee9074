"""Slow reference versions of the ring kernel, the fifth-root search, the
lambda-adic expansion and valuation by exact ring division, the lambda-adic
inverse, the residue enumeration and its fifth powers, the unit image, the
unit searches by ring products, the primality test, trial division, the
shape rules applied to a whole factorisation, and the scan.

These are the bodies the straight-line kernel in ``quintcap.cyclotomic``,
``quintcap.primes.fifth_roots_of_unity``, the coordinate digit step of
``cyclotomic.lambda_expand`` and ``cyclotomic.lambda_valuation``,
``cyclotomic.lambda_inverse``, the
Teichmueller rule of ``cyclotomic.fifth_power_solvable_mod_lambda`` and its
key comparison (``teichmuller_solvable``), the
unit tables of ``quintcap.primes``, the keys of integer multiples
(``cyclotomic.lambda_multiple_keys``) in the row search of
``primes.first_unit_hit`` that ``capitulation.find_h1`` makes,
``factor.is_rational_prime``, the gcd blocks of ``factor._trial_divide``,
the state tables of ``quintcap.classify``, and the scanner's restricted
sieve and its shape sieve replaced;
the tests cross-check the fast code against them.  The key comparison
gave way to ``cyclotomic._fifth_power_level``: min(6, v(theta - omega)),
read from theta - omega = sum b_j*lambda^j as min_j(4*v_5(b_j) + j), with
omega = d^5 mod 25.  ``report_dict`` is the
report as a JSON object, which ``json.dumps(..., sort_keys=True,
indent=2)`` writes as ``Report.to_json`` does, and ``unit_word_value``
evaluates a unit word by its own ring products, not by ``iter_units``'
running ones.  The formal tables of
``quintcap.capitulation`` are kept as they were written before each shape
had one table of the paper's six words: every word spelled out in every
table.
"""

import functools
import itertools
import math

from quintcap.capitulation import (
    _CASE1_BASE,
    _CASE2_BASE,
    CapitulationType,
    Character,
    ClassWord,
    ExtensionDescriptor,
    H1SearchExhausted,
    H1Witness,
    RadicalWord,
    SubgroupDescriptor,
    norm_condition_h1,
)
from quintcap.cyclotomic import (
    LAMBDA,
    ONE,
    ZETA,
    CycInt,
    LambdaExpansion,
    _key_moduli,
    lambda_inverse as fast_lambda_inverse,
    lambda_key,
    lambda_residue,
)
from quintcap.classify import (
    ADMISSIBLE_RESIDUES,
    SHAPE_RESIDUES,
    SIEVE_PRIME_LIMIT,
    NotFifthPowerFree,
    RadicandForm,
)
from quintcap.primes import UNIT_SCAN, PrimeKind, UnsupportedPrimeError, _unit_table
from quintcap.report import REPORT_SCHEMA_ID
from quintcap.factor import (
    MILLER_RABIN_BOUND,
    TRIAL_DIVISION_LIMIT,
    _prime_flags,
    factorize,
    integer_root,
    primes_up_to,
)
from quintcap.scanner import SIEVE_BLOCK

# The offset grid of euclid_divmod, in its order, kept here so that the
# oracle pins the order; and the wider grid it used to try after that one.
_FALLBACK_OFFSETS = tuple(itertools.product((0, 1, -1), repeat=4))
_WIDE_OFFSETS = tuple(itertools.product((0, 1, -1, 2, -2), repeat=4))


def _reduce_power_vector(v):
    # v holds coefficients of 1, z, z^2, z^3, z^4; eliminate z^4.
    return CycInt(v[0] - v[4], v[1] - v[4], v[2] - v[4], v[3] - v[4])


def mul(x, y):
    """Schoolbook product into seven slots, then zeta^5 = 1 and zeta^4 elimination."""
    a, b = x.coords, y.coords
    v = [0, 0, 0, 0, 0, 0, 0]
    for i in range(4):
        for k in range(4):
            v[i + k] += a[i] * b[k]
    v[0] += v[5]
    v[1] += v[6]
    return _reduce_power_vector(v[:5])


def galois(x, j):
    """tau^j: send zeta^i to zeta^(e*i) with e = 2^j mod 5."""
    e = pow(2, j % 4, 5)
    v = [0, 0, 0, 0, 0]
    for i in range(4):
        v[(e * i) % 5] += x.coords[i]
    return _reduce_power_vector(v)


def norm(x):
    """The product of the four conjugates, checked to land in Z."""
    p = mul(mul(mul(x, galois(x, 1)), galois(x, 2)), galois(x, 3))
    c = p.coords
    assert not (c[1] or c[2] or c[3]), p
    return c[0]


def rounded_quotient(a, b):
    """Nearest-integer rounding, ties up, of a * conj(b) / norm(b); and norm(b)."""
    conj = mul(mul(galois(b, 1), galois(b, 2)), galois(b, 3))
    nb = mul(b, conj).coords[0]
    num = mul(a, conj)
    return tuple((2 * c + nb) // (2 * nb) for c in num.coords), nb


def euclid_divmod(a, b):
    """Rounded quotient, then the fallback grids in their fixed order."""
    q0, nb = rounded_quotient(a, b)
    for off in ((0, 0, 0, 0),) + _FALLBACK_OFFSETS + _WIDE_OFFSETS:
        q = CycInt(*(c + o for c, o in zip(q0, off)))
        r = a - mul(q, b)
        if norm(r) < nb:
            return q, r
    raise ArithmeticError(f"euclidean division failed for {a!r} / {b!r}")


def gcd(a, b):
    while not b.is_zero():
        a, b = b, euclid_divmod(a, b)[1]
    return a


# (1 - zeta^2)(1 - zeta^3)(1 - zeta^4) = 5/lambda, with the powers of zeta
# written out in the power basis.
_FIVE_OVER_LAMBDA = mul(
    mul(ONE - CycInt(0, 0, 1), ONE - CycInt(0, 0, 0, 1)), ONE - CycInt(-1, -1, -1, -1)
)


def div_lambda_exact(x):
    """x/lambda as x * (5/lambda) / 5; raises if lambda does not divide x."""
    c = mul(x, _FIVE_OVER_LAMBDA).coords
    if any(v % 5 for v in c):
        raise ValueError(f"{x!r} is not divisible by lambda")
    return CycInt(*(v // 5 for v in c))


def lambda_expand(x, k):
    """The length-k lambda-adic expansion: each digit is the residue of the
    running cofactor, which then becomes (x - d)/lambda by exact division."""
    digits = []
    for _ in range(k):
        d = lambda_residue(x)
        digits.append(d)
        x = div_lambda_exact(x - d)
    return LambdaExpansion(tuple(digits))


def lambda_valuation(x):
    """The exponent of lambda in x != 0, by repeated exact division."""
    v = 0
    while lambda_residue(x) == 0:
        x = div_lambda_exact(x)
        v += 1
    return v


def smallest_primitive_root(p):
    qs = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")


def fifth_roots_by_primitive_root(p):
    """The powers of g^((p-1)/5) for the smallest primitive root g, ascending."""
    x = pow(smallest_primitive_root(p), (p - 1) // 5, p)
    return sorted(pow(x, i, p) for i in range(1, 5))


def _reduce_coords(x, m):
    c = x.coords
    return CycInt(c[0] % m, c[1] % m, c[2] % m, c[3] % m)


def lambda_inverse(x, k):
    """x^(4*5^(k-1) - 1), the order of (Z[zeta]/lambda^k)^* less one, by
    square-and-multiply with coordinates reduced mod 5^ceil(k/4)."""
    if lambda_residue(x) == 0:
        raise ValueError(f"{x!r} is not invertible modulo lambda")
    m = 5 ** ((k + 3) // 4)
    n = 4 * 5 ** (k - 1) - 1
    result = ONE
    base = _reduce_coords(x, m)
    while n:
        if n & 1:
            result = _reduce_coords(result * base, m)
        n >>= 1
        if n:
            base = _reduce_coords(base * base, m)
    return result


def iter_residues_mod_lambda_pow(k):
    """All 5^k residues modulo lambda^k, sum d_i lambda^i, in digit order."""
    powers = [ONE]
    for _ in range(k - 1):
        powers.append(powers[-1] * LAMBDA)
    for digs in itertools.product(range(5), repeat=k):
        x = CycInt(digs[0])
        for i in range(1, k):
            if digs[i]:
                x = x + powers[i] * digs[i]
        yield x


@functools.cache
def fifth_power_keys(k):
    """The lambda_key mod lambda^k of every unit's fifth power, by
    enumeration.  (a + lambda^m*y)^5 = a^5 (mod lambda^(m+4)), so x^5 mod
    lambda^k depends only on x mod lambda^max(1, k-4)."""
    return frozenset(
        lambda_key(x ** 5, k)
        for x in iter_residues_mod_lambda_pow(max(1, k - 4))
        if lambda_residue(x)
    )


def teichmuller_solvable(theta, k):
    """The Teichmueller rule by one key comparison, for theta prime to
    lambda and 1 <= k <= 8: theta = omega (mod lambda^min(k, 6)) for omega =
    d^5 mod 25, d its residue, whose key mod lambda^j is omega mod
    5^ceil(j/4)."""
    j = min(k, 6)
    return lambda_key(theta, j) == lambda_residue(theta) ** 5 % 25 % _key_moduli(j)[0]


@functools.cache
def unit_image(k):
    """The image of the unit group in (Z[zeta]/lambda^k)^*, by breadth-first
    closure from 1 under -1, zeta, 1+zeta and (1+zeta)^-1.  Keys are the
    digit tuples of ``lambda_expand``, values the representatives the digits
    reassemble to.  Shared between calls: do not mutate."""
    f = ONE + ZETA
    gens = (-ONE, ZETA, f, mul(mul(galois(f, 1), galois(f, 2)), galois(f, 3)))
    image = {lambda_expand(ONE, k).digits: ONE}
    frontier = [ONE]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                expansion = lambda_expand(mul(x, g), k)
                if expansion.digits not in image:
                    rep = expansion.reassemble()
                    image[expansion.digits] = rep
                    nxt.append(rep)
        frontier = nxt
    return image


def unit_word_value(word):
    """sign * zeta^a * (1+zeta)^t of a UnitWord by |t| ring products, with
    (1+zeta)^-1 the product of the other three conjugates of 1+zeta."""
    f = ONE + ZETA
    base = mul(mul(galois(f, 1), galois(f, 2)), galois(f, 3)) if word.fund_exp < 0 else f
    u = ONE
    for _ in range(abs(word.fund_exp)):
        u = mul(u, base)
    for _ in range(word.zeta_exp):
        u = mul(u, ZETA)
    return u if word.sign > 0 else -u


def first_unit_hit(b, k, targets):
    """The first scanned unit u with u*b = t (mod lambda^k), by the key of
    the ring product t * b^-1 for each CycInt target t."""
    table = _unit_table(k)
    inverse = fast_lambda_inverse(b, k)
    hits = []
    for i, t in enumerate(targets):
        entry = table.get(lambda_key(t * inverse, k))
        if entry is not None:
            index, word, u = entry
            hits.append((index, i, word, u))
    if not hits:
        return None
    _, i, word, u = min(hits, key=lambda hit: hit[:2])
    return word, u, i


H1_TARGETS = (1, 7, 18, 24)


def find_h1(pi1, w, *, e=1):
    """For h = 1..4, first_unit_hit(pi_1 * w^h, 5, targets): one inverse and
    four ring products per h."""
    if pi1.kind is not PrimeKind.SPLIT:
        raise UnsupportedPrimeError("pi_1 must be a split prime")
    if w.kind not in (PrimeKind.INERT, PrimeKind.LAMBDA):
        raise UnsupportedPrimeError("w must be an inert prime or lambda")
    fallback = norm_condition_h1(pi1.rational_below, w, e)
    if w.kind is PrimeKind.LAMBDA:
        raise H1SearchExhausted(
            "no witness exists: u*pi_1*lambda^h has lambda-valuation h >= 1 while"
            " every target is a unit mod lambda, so the congruence fails for all"
            " units and exponents",
            norm_condition_h1=fallback,
        )
    targets = [CycInt(r) for r in H1_TARGETS]
    for h in range(1, 5):
        wh = w.value ** h
        hit = first_unit_hit(pi1.value * wh, 5, targets)
        if hit is not None:
            word, u, i = hit
            return H1Witness(h, u, word, H1_TARGETS[i], u * pi1.value * wh)
    raise H1SearchExhausted(
        f"no unit in the full image mod lambda^5 makes u*pi_1*{w.rational_below}^h"
        " congruent to +-1, +-7 for any h in 1..4; the congruence is impossible",
        norm_condition_h1=fallback,
    )


def _require_h1(rc, h1):
    if h1 is None:
        raise ValueError(f"h1 is required for the {rc.form.value} shape")
    if not 1 <= h1 % 5 <= 4:
        raise ValueError("h1 must be nonzero mod 5")
    return h1 % 5


def hilbert_class_field_generators(rc, h1=None):
    if rc.form is RadicandForm.NO_MATCH:
        raise ValueError("no generators for an unclassified radicand")
    if rc.form is RadicandForm.PRIME_POWER:
        return RadicalWord(1, 0, 0), RadicalWord(0, 1, 0)
    h = _require_h1(rc, h1)
    return RadicalWord(1, 0, h), RadicalWord(1, 4, 0)


_CASE1_SUBGROUPS = (
    (1, (1, 1, 0), Character.PLUS),
    (2, (1, 0, 0), Character.MIXED),
    (3, (1, 3, 0), Character.MIXED),
    (4, (1, 2, 0), Character.MIXED),
    (5, (0, 1, 0), Character.MIXED),
    (6, (1, 4, 0), Character.MINUS),
)


def subgroup_table(rc, h1=None):
    if rc.form is RadicandForm.NO_MATCH:
        raise ValueError("no subgroup table for an unclassified radicand")
    if rc.form is RadicandForm.PRIME_POWER:
        return [
            SubgroupDescriptor(i, ClassWord(*exps), ch)
            for i, exps, ch in _CASE1_SUBGROUPS
        ]
    h = _require_h1(rc, h1)
    rows = (
        (1, (1, 1, 2 * h), Character.PLUS),
        (2, (1, 0, h), Character.MIXED),
        (3, (2, 4, h), Character.MIXED),
        (4, (4, 2, h), Character.MIXED),
        (5, (0, 1, h), Character.MIXED),
        (6, (1, 4, 0), Character.MINUS),
    )
    return [SubgroupDescriptor(i, ClassWord(*exps), ch) for i, exps, ch in rows]


def correspondence(rc, symbol_exponent, h1=None):
    if rc.form is RadicandForm.NO_MATCH:
        raise ValueError("no correspondence for an unclassified radicand")
    if rc.form is RadicandForm.PRIME_POWER:
        if symbol_exponent is None:
            raise ValueError("the p^e shape needs the (pi_1/pi_3) symbol exponent")
        pi1 = RadicalWord(1, 0, 0)
        pi3 = RadicalWord(0, 1, 0)
        k2, k5 = (pi3, pi1) if symbol_exponent % 5 == 0 else (pi1, pi3)
        return [
            ExtensionDescriptor(1, (RadicalWord(1, 1, 0), RadicalWord(1, 4, 0)), False),
            ExtensionDescriptor(2, (k2,), True),
            ExtensionDescriptor(3, (RadicalWord(1, 2, 0), RadicalWord(1, 3, 0)), False),
            ExtensionDescriptor(4, (RadicalWord(1, 3, 0), RadicalWord(1, 2, 0)), False),
            ExtensionDescriptor(5, (k5,), True),
            ExtensionDescriptor(6, (RadicalWord(1, 4, 0), RadicalWord(1, 1, 0)), False),
        ]
    h = _require_h1(rc, h1)
    x1 = RadicalWord(1, 0, h)
    x2 = RadicalWord(1, 4, 0)
    plus_word = RadicalWord(1, 1, 2 * h)
    k3a, k4a = RadicalWord(2, 4, h), RadicalWord(4, 2, h)
    k5a = RadicalWord(0, 1, h)
    return [
        ExtensionDescriptor(1, (x2, plus_word), False),
        ExtensionDescriptor(2, (x1, k5a), False),
        ExtensionDescriptor(3, (k3a, k4a), False),
        ExtensionDescriptor(4, (k4a, k3a), False),
        ExtensionDescriptor(5, (k5a, x1), False),
        ExtensionDescriptor(6, (plus_word, x2), False),
    ]


def guaranteed_capitulations(rc, h1=None):
    if rc.form is RadicandForm.NO_MATCH:
        raise ValueError("no capitulation data for an unclassified radicand")
    if rc.form is RadicandForm.PRIME_POWER:
        words = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 4, 0)]
    else:
        h = _require_h1(rc, h1)
        words = [
            (1, 0, h),
            (1, 4, 0),
            (1, 1, 2 * h),
            (2, 4, h),
            (4, 2, h),
            (0, 1, h),
        ]
    return {RadicalWord(*w): ClassWord(*w) for w in words}


def alternate_k6_types(base):
    """The types of the other K_6 assignment, in order and without repeats:
    each type of base with its K_1 entry 6 where it was nonzero, then its
    K_6 entry 0 and 1."""
    out = []
    for i1, i2, i3, i4, i5, _ in base:
        for i6 in (0, 1):
            t = (6 if i1 else 0, i2, i3, i4, i5, i6)
            if t not in out:
                out.append(t)
    return out


def swap_2_5(t):
    """The type with K_2 and K_5 exchanged, as positions and as values."""
    i1, i2, i3, i4, i5, i6 = t
    other = {2: 5, 5: 2}
    return tuple(other.get(i, i) for i in (i1, i5, i3, i4, i2, i6))


def possible_types(rc, symbol_exponent, k6_choice, h1=None):
    if rc.form is RadicandForm.NO_MATCH:
        raise ValueError("no capitulation types for an unclassified radicand")
    if rc.form is RadicandForm.PRIME_POWER:
        minus_word = RadicalWord(1, 4, 0)
        plus_word = RadicalWord(1, 1, 0)
    else:
        h = _require_h1(rc, h1)
        minus_word = RadicalWord(1, 4, 0)
        plus_word = RadicalWord(1, 1, 2 * h)
    if k6_choice == minus_word:
        tuples = list(_CASE1_BASE if rc.form is RadicandForm.PRIME_POWER else _CASE2_BASE)
    elif k6_choice == plus_word:
        base = _CASE1_BASE if rc.form is RadicandForm.PRIME_POWER else _CASE2_BASE
        tuples = alternate_k6_types(base)
    else:
        raise ValueError("k6_choice is not one of the two K6 candidates")
    if rc.form is RadicandForm.PRIME_POWER:
        if symbol_exponent is None:
            raise ValueError("the p^e shape needs the (pi_1/pi_3) symbol exponent")
        if symbol_exponent % 5 != 0:
            tuples = [swap_2_5(t) for t in tuples]
    return [CapitulationType(t) for t in tuples]


MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_rational_prime(n):
    """Miller-Rabin to all thirteen bases, whatever the size of n."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality is not decided at or above {MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _trial_flags():
    return _prime_flags(TRIAL_DIVISION_LIMIT)


def trial_divide(m, factors, k):
    """factor._trial_divide by one division per prime from 1000 to
    TRIAL_DIVISION_LIMIT, stopping once m is below MILLER_RABIN_BOUND."""
    flags = memoryview(_trial_flags())[1000:]
    for p in itertools.compress(range(1000, TRIAL_DIVISION_LIMIT + 1), flags):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = factors.get(p, 0) + k * e
            if m < MILLER_RABIN_BOUND:
                break
    return m


def factor_window(lo, hi):
    """Yield (n, factorize(n)) for every n = lo..hi, from a segmented sieve
    over every integer: each block is sieved by every prime power p^k <= its
    top with p <= min(isqrt(hi), SIEVE_PRIME_LIMIT)."""
    primes = primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT))
    for start in range(lo, hi + 1, SIEVE_BLOCK):
        end = min(start + SIEVE_BLOCK - 1, hi)
        size = end - start + 1
        rest = list(range(start, end + 1))
        found = [[] for _ in range(size)]
        for p in primes:
            pk = p
            while pk <= end:
                for i in range(-start % pk, size, pk):
                    rest[i] //= p
                    found[i].append(p)
                pk *= p
        for i in range(size):
            factors = {}
            for p in found[i]:
                factors[p] = factors.get(p, 0) + 1
            if rest[i] >= SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT:
                factors.update(factorize(rest[i]))
            elif rest[i] > 1:
                factors[rest[i]] = 1
            yield start + i, factors


# q = +-7 (mod 25) is excluded in the p^e*q shape.
_EXCLUDED_Q_RESIDUES = frozenset({7, 18})

Shape = tuple[RadicandForm, int | None, int | None, int]

_NO_MATCH: Shape = (RadicandForm.NO_MATCH, None, None, 0)


def radicand_shape(n: int, factors: dict[int, int]) -> Shape:
    """(form, p, q, e) of n > 1 from its factorisation {prime: exponent}.

    These are the fields of classify_radicand(n); NO_MATCH comes with
    (None, None, 0).  Raises NotFifthPowerFree like classify_radicand.
    """
    if max(factors.values()) >= 5:
        raise NotFifthPowerFree(f"{n} is divisible by a fifth power")
    residue = n % 25

    if len(factors) == 1:
        (p, e), = factors.items()
        if p != 5 and p % 25 == 1 and residue in ADMISSIBLE_RESIDUES:
            return RadicandForm.PRIME_POWER, p, None, e
        return _NO_MATCH

    if len(factors) == 2:
        if 5 in factors:
            e5 = factors[5]
            (p, ep), = ((f, e) for f, e in factors.items() if f != 5)
            if (
                ep == 1
                and p % 5 == 1
                and p % 25 != 1
                and residue not in ADMISSIBLE_RESIDUES
            ):
                return RadicandForm.FIVE_POWER_TIMES_P, p, None, e5
            return _NO_MATCH
        split = [f for f in factors if f % 5 == 1]
        inert = [f for f in factors if f % 5 in (2, 3)]
        if len(split) == 1 and len(inert) == 1:
            p, q = split[0], inert[0]
            if (
                factors[q] == 1
                and p % 25 != 1
                and q % 25 not in _EXCLUDED_Q_RESIDUES
                and residue in ADMISSIBLE_RESIDUES
            ):
                return RadicandForm.PRIME_POWER_TIMES_Q, p, q, factors[p]
        return _NO_MATCH

    return _NO_MATCH


def scan_all(lo, hi):
    """scan_range(lo, hi) with every n factored and classified: the full
    sieve, then radicand_shape on every n, skipping those it finds not
    fifth-power-free."""
    out = []
    for n, factors in factor_window(lo, hi):
        try:
            out.append((n, radicand_shape(n, factors)[0].value))
        except NotFifthPowerFree:
            pass
    return out


def restricted_scan(lo, hi):
    """scan_range(lo, hi) by the scanner's restricted sieve: the multiples
    of p^5 are marked and radicand_shape classifies every member of the
    classes of SHAPE_RESIDUES mod 25, factored by the full sieve."""
    keep = bytearray(b"\x01") * (hi - lo + 1)
    for p in primes_up_to(integer_root(hi, 5)):
        q = p**5
        keep[-lo % q :: q] = bytes(len(range(-lo % q, len(keep), q)))
    shapes = {}
    for n, factors in factor_window(lo, hi):
        if n % 25 not in SHAPE_RESIDUES:
            continue
        try:
            form = radicand_shape(n, factors)[0]
        except NotFifthPowerFree:
            keep[n - lo] = 0
            continue
        if form is not RadicandForm.NO_MATCH:
            shapes[n] = form.value
    return [(n, shapes.get(n, "no_match")) for n in itertools.compress(range(lo, hi + 1), keep)]


def report_dict(report):
    """The report as a JSON object, each key built from the report's fields;
    the formal part is ``report.formal.json_dict()``."""
    rc = report.classification
    out = {
        "schema": REPORT_SCHEMA_ID,
        "n": report.n,
        "no_match": report.no_match,
        "classification": {
            "form": rc.form.value,
            "p": rc.p,
            "q": rc.q,
            "e": rc.e,
            "residue_mod_25": rc.residue_mod_25,
        },
    }
    if report.no_match:
        return out
    ws = report.formal.w_symbol
    out["w_symbol"] = ws.radical_name if ws else None
    out["primes"] = [
        {
            "label": "lambda" if pe.kind is PrimeKind.LAMBDA else f"pi{pe.label}",
            "kind": pe.kind.value,
            "rational_below": pe.rational_below,
            "coords": list(pe.value.coords),
            "root": pe.root,
        }
        for pe in report.primes
    ]
    out["normalization"] = report.normalization
    out["h1"] = report.h1
    out["symbol"] = report.symbol_exponent
    out.update(report.formal.json_dict())
    out["conventions"] = {
        "root": report.root,
        "unit_scan": UNIT_SCAN,
        "notes": report.notes,
    }
    return out
