import pytest

from quintcap.capitulation import (
    _CASE1_BASE,
    _CASE2_BASE,
    CapitulationType,
    Character,
    ClassWord,
    H1SearchExhausted,
    H1Witness,
    RadicalWord,
    WSymbol,
    _alternate_k6_expansion,
    correspondence,
    find_h1,
    guaranteed_capitulations,
    hilbert_class_field_generators,
    norm_condition_h1,
    possible_types,
    satisfies_pair_parity,
    six_extensions,
    subgroup_index,
    subgroup_table,
    tau2_orbit,
    w_symbol_for,
)
from quintcap.classify import RadicandForm, classify_radicand
from quintcap.cyclotomic import (
    LAMBDA,
    CycInt,
    lambda_residue,
    lambda_valuation,
)
from quintcap.primes import (
    PrimeElement,
    PrimeKind,
    UnsupportedPrimeError,
    factor_rational_prime,
    first_unit_hit,
    iter_units,
)
from quintcap.scanner import scan_range

import oracles
from conftest import digits_congruent, oracle_radicands, outcome

CASE1 = classify_radicand(151)
CASE2 = classify_radicand(93)
CASE3 = classify_radicand(55)


# --- words ------------------------------------------------------------------

def test_radical_word_projective_equality():
    assert RadicalWord(1, 2, 0) == RadicalWord(2, 4, 0)
    assert RadicalWord(1, 2, 0) == RadicalWord(3, 6, 0)
    assert RadicalWord(1, 2, 0) != RadicalWord(1, 3, 0)
    assert hash(RadicalWord(2, 4, 1)) == hash(RadicalWord(4, 8, 2))


def test_class_word_exact_equality():
    assert ClassWord(1, 2, 0) != ClassWord(2, 4, 0)
    assert ClassWord(1, 2, 0).generates_same_subgroup(ClassWord(2, 4, 0))
    assert ClassWord(6, 2, 0) == ClassWord(1, 2, 0)


def test_word_rendering():
    w = RadicalWord(1, 3, 2)
    assert w.render(WSymbol.PI5) == "pi1*pi3^3*pi5^2"
    assert w.render(WSymbol.LAMBDA) == "pi1*pi3^3*lambda^2"
    c = ClassWord(2, 0, 1)
    assert c.render(WSymbol.LAMBDA) == "[P1^2*I]"
    assert c.render(WSymbol.PI5) == "[P1^2*P5]"


def test_words_refuse_non_integer_exponents():
    # A float exponent would render as pi5^2.0; exponents must be integers.
    with pytest.raises(TypeError):
        RadicalWord(1.5, 0, 0)
    with pytest.raises(TypeError):
        ClassWord(1, 0, 2.0)
    with pytest.raises(TypeError):
        hilbert_class_field_generators(CASE2, h1=2.0)
    with pytest.raises(TypeError):
        subgroup_table(CASE3, h1=1.5)
    assert RadicalWord(True, 6, -1) == RadicalWord(1, 1, 4)


def test_w_symbol_per_case():
    assert w_symbol_for(CASE1) is None
    assert w_symbol_for(CASE2) is WSymbol.PI5
    assert w_symbol_for(CASE3) is WSymbol.LAMBDA


# --- generators and extensions -----------------------------------------------

def test_generators_case1():
    x1, x2 = hilbert_class_field_generators(CASE1)
    assert (x1.e1, x1.e3, x1.ew) == (1, 0, 0)
    assert (x2.e1, x2.e3, x2.ew) == (0, 1, 0)


def test_generators_case2():
    x1, x2 = hilbert_class_field_generators(CASE2, h1=3)
    assert (x1.e1, x1.e3, x1.ew) == (1, 0, 3)
    assert (x2.e1, x2.e3, x2.ew) == (1, 4, 0)


def test_generators_case3_same_shape():
    assert hilbert_class_field_generators(CASE3, h1=2) == hilbert_class_field_generators(
        CASE2, h1=2
    )


def test_generators_require_h1():
    with pytest.raises(ValueError):
        hilbert_class_field_generators(CASE2)


def test_six_extensions_case1():
    x1, x2 = hilbert_class_field_generators(CASE1)
    words = six_extensions(x1, x2)
    expected = [
        RadicalWord(1, 0, 0),
        RadicalWord(0, 1, 0),
        RadicalWord(1, 1, 0),
        RadicalWord(1, 2, 0),
        RadicalWord(1, 3, 0),
        RadicalWord(1, 4, 0),
    ]
    assert set(words) == set(expected)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_six_extensions_case2(h):
    x1, x2 = hilbert_class_field_generators(CASE2, h1=h)
    words = six_extensions(x1, x2)
    expected = {
        RadicalWord(1, 0, h),
        RadicalWord(1, 4, 0),
        RadicalWord(1, 1, 2 * h),
        RadicalWord(2, 4, h),
        RadicalWord(4, 2, h),
        RadicalWord(0, 1, h),
    }
    assert set(words) == expected


def test_six_extensions_pairwise_distinct():
    for x1, x2 in [
        (RadicalWord(1, 0, 0), RadicalWord(0, 1, 0)),
        (RadicalWord(1, 0, 2), RadicalWord(1, 4, 0)),
        (RadicalWord(1, 2, 3), RadicalWord(0, 1, 1)),
    ]:
        words = six_extensions(x1, x2)
        assert len(set(words)) == 6
        assert x1 in words and x2 in words


def test_six_extensions_rejects_dependent():
    with pytest.raises(ValueError):
        six_extensions(RadicalWord(1, 2, 0), RadicalWord(2, 4, 0))


# --- tau^2 ------------------------------------------------------------------

def test_tau2_examples():
    assert tau2_orbit(RadicalWord(1, 0, 0)) == RadicalWord(0, 1, 0)
    assert tau2_orbit(RadicalWord(1, 1, 0)) == RadicalWord(1, 1, 0)
    image = tau2_orbit(RadicalWord(2, 4, 3))
    assert (image.e1, image.e3, image.ew) == (4, 2, 3)


def test_tau2_involution():
    for w in (RadicalWord(1, 2, 3), RadicalWord(0, 1, 4), RadicalWord(3, 3, 1)):
        assert tau2_orbit(tau2_orbit(w)) == w


def _induced_permutation(extensions):
    perm = {}
    for ext in extensions:
        image = tau2_orbit(ext.primary())
        matches = [e.index for e in extensions if e.primary() == image]
        assert len(matches) == 1, f"ambiguous tau^2 image for K{ext.index}"
        perm[ext.index] = matches[0]
    return perm


@pytest.mark.parametrize(
    "rc,symbol,h1",
    [(CASE1, 0, None), (CASE1, 2, None), (CASE2, 1, 4), (CASE3, 1, 1)],
)
def test_tau2_permutes_extensions(rc, symbol, h1):
    exts = correspondence(rc, symbol, h1)
    perm = _induced_permutation(exts)
    assert perm == {1: 1, 2: 5, 3: 4, 4: 3, 5: 2, 6: 6}


def test_candidate_pairs_are_tau2_partners():
    for rc, symbol, h1 in [(CASE1, 0, None), (CASE2, None, 2), (CASE3, None, 3)]:
        exts = correspondence(rc, symbol, h1)
        for ext in exts:
            if ext.index in (1, 6):
                for cand in ext.candidates:
                    assert tau2_orbit(cand) == cand
            if len(ext.candidates) == 2 and ext.index in (3, 4):
                a, b = ext.candidates
                assert tau2_orbit(a) == b


# --- subgroup table -----------------------------------------------------------

def test_subgroup_table_case1():
    table = subgroup_table(CASE1)
    gens = {d.index: (d.generator.e1, d.generator.e3, d.generator.ew) for d in table}
    assert gens == {
        1: (1, 1, 0),
        2: (1, 0, 0),
        3: (1, 3, 0),
        4: (1, 2, 0),
        5: (0, 1, 0),
        6: (1, 4, 0),
    }
    chars = {d.index: d.character for d in table}
    assert chars[1] is Character.PLUS
    assert chars[6] is Character.MINUS
    assert all(chars[i] is Character.MIXED for i in (2, 3, 4, 5))


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_subgroup_table_case2(h):
    table = subgroup_table(CASE2, h1=h)
    gens = {d.index: (d.generator.e1, d.generator.e3, d.generator.ew) for d in table}
    assert gens == {
        1: (1, 1, (2 * h) % 5),
        2: (1, 0, h),
        3: (2, 4, h),
        4: (4, 2, h),
        5: (0, 1, h),
        6: (1, 4, 0),
    }


def test_subgroup_table_case3_matches_case2():
    assert [
        (d.index, d.generator, d.character) for d in subgroup_table(CASE3, h1=2)
    ] == [(d.index, d.generator, d.character) for d in subgroup_table(CASE2, h1=2)]


def test_h1_and_h6_characters_under_swap():
    for rc, h1 in [(CASE1, None), (CASE2, 3)]:
        table = subgroup_table(rc, h1)
        g1 = table[0].generator
        swapped = ClassWord(g1.e3, g1.e1, g1.ew)
        assert swapped == g1  # plus class is swap-fixed
        g6 = table[5].generator
        swapped6 = ClassWord(g6.e3, g6.e1, g6.ew)
        assert swapped6 == g6.power(-1)  # minus class maps to its inverse


def test_subgroup_index_identifications_case1():
    table = subgroup_table(CASE1)
    a = ClassWord(1, 1, 0)
    x = ClassWord(1, 4, 0)
    assert subgroup_index(a, table) == 1
    assert subgroup_index(x, table) == 6
    # products A*X^(j-1) land in H_j for the p^e shape
    assert subgroup_index(a.times(x), table) == 2
    assert subgroup_index(a.times(x.power(2)), table) == 3
    assert subgroup_index(a.times(x.power(3)), table) == 4
    assert subgroup_index(a.times(x.power(4)), table) == 5
    # A*X = [P1]^2
    assert a.times(x) == ClassWord(2, 0, 0)


def test_subgroup_index_rejects_trivial_and_outside():
    table = subgroup_table(CASE2, h1=1)
    with pytest.raises(ValueError):
        subgroup_index(ClassWord(0, 0, 0), table)
    # [P1] alone lies outside the span of the two generators when h1 = 1
    with pytest.raises(ValueError):
        subgroup_index(ClassWord(1, 0, 0), table)


# --- correspondence -----------------------------------------------------------

def test_correspondence_case1_symbol_zero():
    exts = {e.index: e for e in correspondence(CASE1, 0)}
    assert exts[2].resolved and exts[2].primary() == RadicalWord(0, 1, 0)
    assert exts[5].resolved and exts[5].primary() == RadicalWord(1, 0, 0)
    assert not exts[1].resolved
    assert set(exts[1].candidates) == {RadicalWord(1, 1, 0), RadicalWord(1, 4, 0)}
    assert set(exts[3].candidates) == {RadicalWord(1, 2, 0), RadicalWord(1, 3, 0)}


def test_correspondence_case1_symbol_nonzero_swaps_k2_k5():
    exts = {e.index: e for e in correspondence(CASE1, 2)}
    assert exts[2].primary() == RadicalWord(1, 0, 0)
    assert exts[5].primary() == RadicalWord(0, 1, 0)


def test_correspondence_case2_all_unresolved():
    h = 4
    exts = {e.index: e for e in correspondence(CASE2, 1, h)}
    assert all(not e.resolved for e in exts.values())
    assert set(exts[1].candidates) == {RadicalWord(1, 4, 0), RadicalWord(1, 1, 2 * h)}
    assert exts[1].candidates[0] == RadicalWord(1, 4, 0)
    assert set(exts[2].candidates) == {RadicalWord(1, 0, h), RadicalWord(0, 1, h)}
    assert set(exts[3].candidates) == {RadicalWord(2, 4, h), RadicalWord(4, 2, h)}


def test_correspondence_case1_needs_symbol():
    with pytest.raises(ValueError):
        correspondence(CASE1, None)


# --- guaranteed capitulations ---------------------------------------------------

def test_guaranteed_capitulations_case1():
    caps = guaranteed_capitulations(CASE1)
    assert caps[RadicalWord(1, 2, 0)] == ClassWord(1, 2, 0)
    assert caps[RadicalWord(1, 0, 0)] == ClassWord(1, 0, 0)
    assert len(caps) == 6


def test_guaranteed_capitulations_case2():
    h = 2
    caps = guaranteed_capitulations(CASE2, h1=h)
    assert caps[RadicalWord(0, 1, h)] == ClassWord(0, 1, h)
    assert caps[RadicalWord(1, 1, 2 * h)] == ClassWord(1, 1, 2 * h)
    # keys are the six extensions
    x1, x2 = hilbert_class_field_generators(CASE2, h1=h)
    assert set(caps) == set(six_extensions(x1, x2))


def test_capitulation_class_matches_subgroup_for_k1_k6():
    # the class dying in each K1/K6 candidate generates H1 or H6
    table = subgroup_table(CASE2, h1=3)
    caps = guaranteed_capitulations(CASE2, h1=3)
    plus = RadicalWord(1, 1, 6)
    minus = RadicalWord(1, 4, 0)
    assert subgroup_index(caps[plus], table) == 1
    assert subgroup_index(caps[minus], table) == 6


# --- possible types -------------------------------------------------------------

CASE1_BASE_EXPECTED = [
    (0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 2, 0, 0, 5, 0),
    (1, 2, 0, 0, 5, 0),
    (0, 0, 3, 4, 0, 0),
    (0, 0, 4, 3, 0, 0),
    (1, 0, 3, 4, 0, 0),
    (1, 0, 4, 3, 0, 0),
    (0, 2, 3, 4, 5, 0),
    (0, 2, 4, 3, 5, 0),
    (1, 2, 3, 4, 5, 0),
    (1, 2, 4, 3, 5, 0),
]


def test_case1_base_type_list_exact():
    got = possible_types(CASE1, 0, RadicalWord(1, 4, 0))
    assert [t.entries for t in got] == CASE1_BASE_EXPECTED


def test_case1_alternate_k6_constraints():
    got = possible_types(CASE1, 0, RadicalWord(1, 1, 0))
    assert len(got) == 24
    for t in got:
        assert t.entries[0] in (0, 6)
        assert t.entries[5] in (0, 1)
    middles = {t.entries[1:5] for t in got}
    assert middles == {t[1:5] for t in CASE1_BASE_EXPECTED}


def test_case1_symbol_swap_fixes_lists():
    # the 2<->5 position+value swap maps the published lists to themselves
    for k6 in (RadicalWord(1, 4, 0), RadicalWord(1, 1, 0)):
        base = [t.entries for t in possible_types(CASE1, 0, k6)]
        swapped = [t.entries for t in possible_types(CASE1, 3, k6)]
        assert base == swapped


def test_case2_base_type_list():
    h = 4
    got = [t.entries for t in possible_types(CASE2, None, RadicalWord(1, 4, 0), h)]
    assert len(got) == 18
    assert (1, 5, 4, 3, 2, 0) in got
    assert (0, 0, 0, 0, 0, 0) in got
    assert (1, 2, 3, 4, 5, 0) in got
    assert all(t[5] == 0 for t in got)


def test_case2_alternate_k6():
    h = 4
    got = [t.entries for t in possible_types(CASE2, None, RadicalWord(1, 1, 2 * h), h)]
    assert len(got) == 36
    for t in got:
        assert t[0] in (0, 6)
        assert t[5] in (0, 1)


def test_case3_lists_equal_case2():
    for h in (1, 2, 3, 4):
        for k6 in (RadicalWord(1, 4, 0), RadicalWord(1, 1, 2 * h)):
            a = possible_types(CASE2, None, k6, h)
            b = possible_types(CASE3, None, k6, h)
            assert [t.entries for t in a] == [t.entries for t in b]


def test_pair_parity_everywhere():
    lists = [
        possible_types(CASE1, 0, RadicalWord(1, 4, 0)),
        possible_types(CASE1, 0, RadicalWord(1, 1, 0)),
        possible_types(CASE1, 1, RadicalWord(1, 4, 0)),
        possible_types(CASE2, None, RadicalWord(1, 4, 0), 2),
        possible_types(CASE2, None, RadicalWord(1, 1, 4), 2),
        possible_types(CASE3, None, RadicalWord(1, 4, 0), 1),
    ]
    for types in lists:
        for t in types:
            assert satisfies_pair_parity(t)
            assert all(0 <= i <= 6 for i in t.entries)


def test_possible_types_k6_validation():
    with pytest.raises(ValueError):
        possible_types(CASE1, 0, RadicalWord(1, 2, 0))
    with pytest.raises(ValueError):
        possible_types(CASE2, None, RadicalWord(1, 0, 1), 1)


def test_paper_tables_expand_with_no_repeats():
    # _alternate_k6_expansion keeps every tuple it builds, so no table may
    # give one twice.
    for base in (_CASE1_BASE, _CASE2_BASE):
        expanded = _alternate_k6_expansion(base)
        assert len(expanded) == 2 * len(base) == len(set(expanded))
    assert len(_CASE1_BASE) == 12 and len(_CASE2_BASE) == 18


def test_capitulation_type_validation():
    with pytest.raises(ValueError):
        CapitulationType((0, 1, 2, 3, 4, 7))
    with pytest.raises(ValueError):
        CapitulationType((0, 0, 0))


# --- h1 search ---------------------------------------------------------------

def test_norm_condition_h1_case2_rows():
    for n, expected in [(93, 4), (382, 4), (943, 4), (1457, 4)]:
        rc = classify_radicand(n)
        w = factor_rational_prime(rc.q).factors[0]
        assert norm_condition_h1(rc.p, w, rc.e) == expected


def test_norm_condition_h1_case3_is_e():
    lam = factor_rational_prime(5).factors[0]
    for n, e in [(55, 1), (1775, 2), (5125, 3), (38125, 4)]:
        rc = classify_radicand(n)
        assert rc.e == e
        assert norm_condition_h1(rc.p, lam, rc.e) == e


def test_find_h1_exhausts_with_proof_case2():
    # Computed once against the full unit image mod lambda^5: no associate of
    # pi1 * q^h lands on +-1, +-7, so the bounded search must report a proven
    # impossibility and carry the norm-condition fallback.
    rc = classify_radicand(93)
    pi1 = factor_rational_prime(rc.p).factors[0]
    w = factor_rational_prime(rc.q).factors[0]
    with pytest.raises(H1SearchExhausted) as exc:
        find_h1(pi1, w, e=rc.e)
    assert "the congruence is impossible" in str(exc.value)
    assert exc.value.norm_condition_h1 == 4


def test_find_h1_lambda_valuation_proof():
    rc = classify_radicand(55)
    pi1 = factor_rational_prime(rc.p).factors[0]
    lam = factor_rational_prime(5).factors[0]
    with pytest.raises(H1SearchExhausted) as exc:
        find_h1(pi1, lam, e=rc.e)
    assert "no witness exists" in str(exc.value)
    assert exc.value.norm_condition_h1 == 1


def test_find_h1_has_a_witness_exactly_when_x3_is_primary():
    # In exponents pi1 is a quarter of the sum of p's tau-eigenwords x_mu;
    # x_2 and x_4 are primary up to a unit and x_1 = p is rational, so
    # u*pi1*q^h can meet +-1, +-7 only when x_3(p) = pi1*pi2^2*pi3^4*pi4^3
    # is.  On every admissible p^e*q below 2*10^4 the converse holds too.
    radicands = [
        n for n, form in scan_range(2, 2 * 10**4)
        if form == RadicandForm.PRIME_POWER_TIMES_Q.value
    ]
    assert len(radicands) == 211
    witnesses = []
    for n in radicands:
        rc = classify_radicand(n)
        pi1, pi2, pi3, pi4 = factor_rational_prime(rc.p).factors
        x3 = pi1.value * pi2.value**2 * pi3.value**4 * pi4.value**3
        primary = first_unit_hit(x3, 5, [[1, -1, 7, -7]]) is not None
        w = factor_rational_prime(rc.q).factors[0]
        try:
            witness = find_h1(pi1, w, e=rc.e)
        except H1SearchExhausted:
            assert not primary, n
        else:
            assert primary, n
            witnesses.append((n, witness.h1))
    assert len(witnesses) == 32
    assert witnesses[0] == (843, 4)


def test_find_h1_rejects_bad_arguments(split_11):
    pi1 = split_11.factors[0]
    with pytest.raises(Exception):
        find_h1(pi1, pi1)


PI_11 = factor_rational_prime(11).factors[0]
INERT_7 = factor_rational_prime(7).factors[0]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: w_symbol_for(classify_radicand(4)),
            ValueError,
            "unclassified radicand has no extension data",
        ),
        (
            lambda: hilbert_class_field_generators(CASE2, h1=5),
            ValueError,
            "h1 must be nonzero mod 5",
        ),
        (
            lambda: possible_types(CASE1, None, RadicalWord(1, 4, 0)),
            ValueError,
            "the p^e shape needs the (pi_1/pi_3) symbol exponent",
        ),
        (
            lambda: find_h1(INERT_7, factor_rational_prime(3).factors[0]),
            UnsupportedPrimeError,
            "pi_1 must be a split prime",
        ),
        (
            lambda: find_h1(PI_11, PrimeElement(CycInt(3, 1), PrimeKind.INERT, 5, 3)),
            UnsupportedPrimeError,
            "an inert w must be a rational prime",
        ),
    ],
    ids=["no-match", "h1-zero-mod-5", "pe-without-symbol", "inert-pi1", "inert-w-not-rational"],
)
def test_capitulation_refusals(call, error, message):
    assert outcome(call)[:3] == ("raised", error, message)


def test_norm_condition_h1_has_no_solution_when_q4_is_one_mod_25():
    # 7^4 = 1 (mod 25): p * 7^(4h) = 1 (mod 25) has no h for p = 31.
    assert pow(7, 4, 25) == 1
    assert norm_condition_h1(31, INERT_7) is None


def lambda_coprime_twist(value, n, e, h):
    """Divide value * lambda^h * n^j by lambda^(5m) to reach a lambda-unit.

    j is the unique exponent in 0..4 with 4*e*j + h = 0 (mod 5).  Returns
    the twisted element together with (j, m).  Exact throughout; raises if
    the division leaves the ring.  A starting point for a local criterion
    at the ramified prime of the 5^e*p shape.
    """
    j = (-h * pow(4 * e, -1, 5)) % 5
    total = h + 4 * e * j
    if total % 5:
        raise ArithmeticError("twist exponent bookkeeping failed")
    m = total // 5
    v = value * (LAMBDA ** h) * (CycInt(n) ** j)
    for _ in range(5 * m):
        v = oracles.div_lambda_exact(v)
    return v, j, m


def test_lambda_coprime_twist_exact():
    pi1 = factor_rational_prime(11).factors[0]
    for h in (1, 2, 3, 4):
        twisted, j, m = lambda_coprime_twist(pi1.value, 55, 1, h)
        assert lambda_valuation(twisted) == 0
        assert (4 * 1 * j + h) % 5 == 0
        assert m == (h + 4 * j) // 5


# --- the lookups against the original (h, unit, target) scan ------------------

def scan_find_h1(pi1, w, *, e=1):
    # The original joint scan and image exhaustion, kept as the oracle.
    residues = (1, 7, 18, 24)
    targets = [CycInt(r) for r in residues]
    for h in range(1, 5):
        wh = w.value ** h
        for word, u in iter_units():
            v = u * pi1.value * wh
            for r, t in zip(residues, targets):
                if digits_congruent(v, t, 5):
                    return H1Witness(h, u, word, r, v)
    fallback = norm_condition_h1(pi1.rational_below, w, e)
    if w.kind is PrimeKind.LAMBDA:
        raise H1SearchExhausted(
            "no witness exists: u*pi_1*lambda^h has lambda-valuation h >= 1 while"
            " every target is a unit mod lambda, so the congruence fails for all"
            " units and exponents",
            norm_condition_h1=fallback,
        )
    for h in range(1, 5):
        wh = w.value ** h
        for urep in oracles.unit_image(5).values():
            v = urep * pi1.value * wh
            for t in targets:
                if digits_congruent(v, t, 5):
                    raise H1SearchExhausted(
                        f"a witness exists at h={h} but its unit lies beyond the scan",
                        norm_condition_h1=fallback,
                    )
    raise H1SearchExhausted(
        f"no unit in the full image mod lambda^5 makes u*pi_1*{w.rational_below}^h"
        " congruent to +-1, +-7 for any h in 1..4; the congruence is impossible",
        norm_condition_h1=fallback,
    )


def test_find_h1_matches_scan():
    kinds = set()
    for rc in oracle_radicands():
        if rc.form is RadicandForm.PRIME_POWER:
            continue
        pi1 = factor_rational_prime(rc.p).factors[0]
        w = factor_rational_prime(rc.q or 5).factors[0]
        expected = outcome(scan_find_h1, pi1, w, e=rc.e)
        assert outcome(find_h1, pi1, w, e=rc.e) == expected
        kinds.add(expected[0])
    # a witness and a proven impossibility both occur
    assert kinds == {"returned", "raised"}


# --- the integer keys against the ring-product oracle -------------------------

# The least prime in each class mod 25 that the inert q of a p^e*q radicand
# can lie in: q = +-2 (mod 5) and q^4 != 1 (mod 25).
INERT_Q_BY_CLASS = (2, 3, 83, 37, 13, 17, 47, 23)


def h1_grid():
    """(pi1, w): pi1 runs through one element of every unit class mod
    lambda^5 (2500), each against two of the eight q, taken in turn so
    that every q meets 625 classes; the whole product would take the
    oracle about 3 s.  find_h1 reads pi1's value and kind and, for the
    norm condition, its rational_below, here its norm."""
    ws = [PrimeElement(CycInt(q), PrimeKind.INERT, 5, q) for q in INERT_Q_BY_CLASS]
    classes = [x for x in oracles.iter_residues_mod_lambda_pow(5) if lambda_residue(x)]
    for i, x in enumerate(classes):
        pi1 = PrimeElement(x, PrimeKind.SPLIT, 1, x.norm())
        yield pi1, ws[2 * i % 8]
        yield pi1, ws[(2 * i + 1) % 8]


def mutant_h1(pi1, w):
    """find_h1's lookups with the fold t * q^h in place of t * q^-h:
    (h, word, residue) of the first hit, or None."""
    q = w.rational_below
    rows = [[t * pow(q, h, 25) for t in oracles.H1_TARGETS] for h in range(1, 5)]
    hit = first_unit_hit(pi1.value, 5, rows)
    if hit is not None:
        word, _, r, i = hit
        return r + 1, word, oracles.H1_TARGETS[i]
    return None


def test_find_h1_matches_product_oracle_on_every_class():
    admissible = {c for c in range(25) if c % 5 in (2, 3) and pow(c, 4, 25) != 1}
    assert {q % 25 for q in INERT_Q_BY_CLASS} == admissible
    kinds = set()
    mutant_caught = False
    for pi1, w in h1_grid():
        expected = outcome(oracles.find_h1, pi1, w)
        assert outcome(find_h1, pi1, w) == expected, (pi1, w)
        kinds.add(expected[0])
        if not mutant_caught:
            found = expected[1] if expected[0] == "returned" else None
            mutant_caught = mutant_h1(pi1, w) != (
                found and (found.h1, found.unit_word, found.residue)
            )
    assert kinds == {"returned", "raised"}
    # The grid tells the fold q^-h from q^h.
    assert mutant_caught


def test_first_unit_hit_answers_from_the_first_row_with_a_hit():
    # Rows built as find_h1 builds them, for one element of every unit class
    # mod lambda^5, each against one of the eight q in turn: the answer comes
    # from the first row whose flat product-oracle search hits, with that
    # hit's word, unit and target index.
    classes = [x for x in oracles.iter_residues_mod_lambda_pow(5) if lambda_residue(x)]
    answered_by = set()
    for n, x in enumerate(classes):
        q = INERT_Q_BY_CLASS[n % 8]
        rows = [[t * pow(q, -h, 25) % 25 for t in oracles.H1_TARGETS] for h in range(1, 5)]
        expected = None
        for r, row in enumerate(rows):
            hit = oracles.first_unit_hit(x, 5, [CycInt(t) for t in row])
            if hit is not None:
                word, u, i = hit
                expected = word, u, r, i
                break
        assert first_unit_hit(x, 5, rows) == expected, (x, q)
        answered_by.add(expected and expected[2])
    # Every row answers for some class, and some classes have no hit at all.
    assert answered_by == {None, 0, 1, 2, 3}


# --- independent oracle for the frozen impossibility ---------------------------
#
# Raw 5-coefficient tuple arithmetic mod z^5 - 1, no CycInt, and the golden
# unit -(z^2+z^3) as the fundamental generator instead of 1+z.  Membership in
# (lambda^5) = (5*lambda) is tested by exact division.  The scan range
# |t| <= 30 strictly covers the whole image of the unit group mod lambda^5
# (the fundamental unit has image order 20 there).

def _mul5(a, b):
    out = [0] * 5
    for i in range(5):
        if a[i]:
            for j in range(5):
                out[(i + j) % 5] += a[i] * b[j]
    return tuple(out)


def _pow5(a, n):
    r = (1, 0, 0, 0, 0)
    while n:
        if n & 1:
            r = _mul5(r, a)
        a = _mul5(a, a)
        n >>= 1
    return r


def _conj5(a, e):
    out = [0] * 5
    for i in range(5):
        out[(e * i) % 5] += a[i]
    return tuple(out)


def _in_five_lambda(z):
    c = (z[0] - z[4], z[1] - z[4], z[2] - z[4], z[3] - z[4])
    if any(v % 5 for v in c):
        return False
    return sum(v // 5 for v in c) % 5 == 0


def test_find_h1_impossibility_independent_oracle():
    pi1 = (-2, 1, 0, 0, 0)  # prime above 31 with zeta -> 2
    assert (pi1[0] + 2 * pi1[1]) % 31 == 0
    eps = (0, 0, -1, -1, 0)
    eps_inv = _mul5(_mul5(_conj5(eps, 2), _conj5(eps, 4)), _conj5(eps, 3))
    zeta = (0, 1, 0, 0, 0)
    hits = 0
    for h in range(1, 5):
        qh = _pow5((3, 0, 0, 0, 0), h)
        for a in range(5):
            za = _pow5(zeta, a)
            for t in range(-30, 31):
                base = _pow5(eps if t >= 0 else eps_inv, abs(t))
                u = _mul5(za, base)
                for s in (1, -1):
                    v = _mul5(_mul5(tuple(s * c for c in u), pi1), qh)
                    for r in (1, 7, 18, 24):
                        if _in_five_lambda(
                            (v[0] - r, v[1], v[2], v[3], v[4])
                        ):
                            hits += 1
    assert hits == 0


# --- documented divergence: case-1 K2/K5 labels vs guaranteed deaths -----------

def test_case1_published_list_k2_label_anomaly():
    # With symbol exponent 0, K2 resolves to the fifth-root field of pi3,
    # whose guaranteed dying class [P3] generates H5 in the standard table;
    # the published type tuples nevertheless put value 2 (not 5) in position
    # 2.  The engine reproduces the published tuples verbatim; this test
    # pins both facts so the divergence stays visible.
    table = subgroup_table(CASE1)
    exts = {e.index: e for e in correspondence(CASE1, 0)}
    caps = guaranteed_capitulations(CASE1)
    dying = caps[exts[2].primary()]
    assert subgroup_index(dying, table) == 5
    base = [t.entries for t in possible_types(CASE1, 0, RadicalWord(1, 4, 0))]
    assert (0, 2, 0, 0, 5, 0) in base
    assert (0, 5, 0, 0, 2, 0) not in base


# --- the per-shape word table against the tables written out in full -----------

def _exact(word):
    return (type(word).__name__, word.e1, word.e3, word.ew)


def _formal_keys():
    for rc, h1s in ((CASE1, [None]), (CASE2, [1, 2, 3, 4]), (CASE3, [1, 2, 3, 4])):
        for h1 in h1s:
            for symbol in range(5):
                yield rc, h1, symbol


def _tables(module, rc, h1, symbol):
    # Exact exponents, not ==: projective equality would pass a rescaled word.
    extensions = module.correspondence(rc, symbol, h1)
    return {
        "generators": [_exact(w) for w in module.hilbert_class_field_generators(rc, h1)],
        "extensions": [
            (e.index, e.label, e.resolved, [_exact(w) for w in e.candidates])
            for e in extensions
        ],
        "subgroups": [
            (d.index, d.label, d.character, _exact(d.generator))
            for d in module.subgroup_table(rc, h1)
        ],
        "capitulations": [
            (_exact(w), _exact(c)) for w, c in module.guaranteed_capitulations(rc, h1).items()
        ],
        "types": [
            (_exact(k6), [t.entries for t in module.possible_types(rc, symbol, k6, h1)])
            for k6 in extensions[5].candidates
        ],
    }


def test_word_table_matches_written_out_tables_on_every_key():
    from quintcap import capitulation
    from quintcap.report import FormalTables, formal_tables

    keys = list(_formal_keys())
    assert len(keys) == 45
    for rc, h1, symbol in keys:
        assert _tables(capitulation, rc, h1, symbol) == _tables(oracles, rc, h1, symbol)
        extensions = tuple(oracles.correspondence(rc, symbol, h1))
        written_out = FormalTables(
            w_symbol_for(rc),
            oracles.hilbert_class_field_generators(rc, h1),
            extensions,
            tuple(oracles.subgroup_table(rc, h1)),
            tuple(oracles.guaranteed_capitulations(rc, h1).items()),
            tuple(
                (k6, tuple(t.entries for t in oracles.possible_types(rc, symbol, k6, h1)))
                for k6 in extensions[5].candidates
            ),
        )
        assert formal_tables(rc, h1, symbol).fragments == written_out.fragments
