"""Genus generators, the six unramified quintic extensions, their subgroup
correspondence, and the enumeration of possible capitulation types.

Everything here is formal linear algebra over F_5.  A word is a vector of
three exponents mod 5, of pi_1, pi_3 and an auxiliary symbol w, which is
the inert prime (p^e*q shape) or lambda (5^e*p shape) and is absent for
the p^e shape.  One base class holds the exponents, their reduction, the
projective key and the rendering; its two subclasses differ in equality.
A radical word (RadicalWord) describes an extension of the degree-20 base
field, and two describe the same extension exactly when one is a nonzero
scalar multiple of the other, so RadicalWord compares projectively.
Ideal-class words (ClassWord) are genuine group elements and compare
exactly.

Each shape has one table of the paper's six words S_1..S_6, where S_j
generates H_j; the w-exponents are multiples of h1.  The generators, the
extension candidates, the subgroup table, the guaranteed capitulations and
the K_6 words of the type lists all read that table, each in its own order.

The class group is (5,5), generated by a tau^2-fixed class A and a
tau^2-inverted class X.  Its six order-5 subgroups H_1..H_6 correspond to
the six extensions K_1..K_6; H_1 = <A>, H_6 = <X>.  The capitulation type
(i_1,...,i_6) records, for each K_j, which subgroup's classes die in K_j
(0 meaning all of them).
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import ClassVar, Iterable

from ._record import Record
from .classify import ADMISSIBLE_RESIDUES, RadicandClass, RadicandForm
from .cyclotomic import CycInt, congruent_mod_lambda_pow
from .primes import (
    PrimeElement,
    PrimeKind,
    UnitWord,
    UnsupportedPrimeError,
    first_unit_hit,
)


class WSymbol(Enum):
    """How the auxiliary base symbol is realised per radicand shape."""

    PI5 = ("pi5", "P5")
    LAMBDA = ("lambda", "I")

    @property
    def radical_name(self) -> str:
        return self.value[0]

    @property
    def ideal_name(self) -> str:
        return self.value[1]


def w_symbol_for(rc: RadicandClass) -> WSymbol | None:
    if rc.form is RadicandForm.PRIME_POWER_TIMES_Q:
        return WSymbol.PI5
    if rc.form is RadicandForm.FIVE_POWER_TIMES_P:
        return WSymbol.LAMBDA
    if rc.form is RadicandForm.PRIME_POWER:
        return None
    raise ValueError("unclassified radicand has no extension data")


class _Word(Record):
    """Integer exponents of pi_1, pi_3 and w, or of their classes, mod 5.

    ``KEYS`` name the exponents in report JSON, and in the rendering when
    no w symbol is given.  Equality is exact; RadicalWord overrides it.
    The subclasses declare no ``__slots__``: only the exponents are frozen.
    """

    KEYS: ClassVar[tuple[str, str, str]]

    __slots__ = ("e1", "e3", "ew")

    def __init__(self, e1: int, e3: int, ew: int = 0) -> None:
        self._set(operator.index(e1) % 5, operator.index(e3) % 5, operator.index(ew) % 5)

    def is_zero(self) -> bool:
        return self.e1 == self.e3 == self.ew == 0

    def proj_key(self) -> tuple[int, int, int]:
        """The exponents scaled so that the first nonzero one is 1."""
        for lead in (self.e1, self.e3, self.ew):
            if lead:
                inv = pow(lead, -1, 5)
                return (self.e1 * inv % 5, self.e3 * inv % 5, self.ew * inv % 5)
        return (0, 0, 0)

    def _render(self, wname: str) -> str:
        names = (self.KEYS[0], self.KEYS[1], wname)
        exps = (self.e1, self.e3, self.ew)
        return "*".join(n if e == 1 else f"{n}^{e}" for e, n in zip(exps, names) if e) or "1"


class RadicalWord(_Word):
    """Formal fifth-root generator pi_1^e1 * pi_3^e3 * w^ew, compared projectively."""

    KEYS = ("pi1", "pi3", "w")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalWord):
            return self.proj_key() == other.proj_key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.proj_key())

    def combine(self, other: "RadicalWord", times: int = 1) -> "RadicalWord":
        return RadicalWord(
            self.e1 + times * other.e1,
            self.e3 + times * other.e3,
            self.ew + times * other.ew,
        )

    def render(self, w: WSymbol | None) -> str:
        return self._render(w.radical_name if w else "w")


class ClassWord(_Word):
    """Ideal-class word P1^e1 * P3^e3 * Pw^ew; a group element, compared exactly."""

    KEYS = ("P1", "P3", "Pw")

    def generates_same_subgroup(self, other: "ClassWord") -> bool:
        return self.proj_key() == other.proj_key()

    def power(self, k: int) -> "ClassWord":
        return ClassWord(self.e1 * k, self.e3 * k, self.ew * k)

    def times(self, other: "ClassWord") -> "ClassWord":
        return ClassWord(self.e1 + other.e1, self.e3 + other.e3, self.ew + other.ew)

    def render(self, w: WSymbol | None) -> str:
        return "[" + self._render(w.ideal_name if w else "Pw") + "]"


class Character(Enum):
    PLUS = "plus"
    MINUS = "minus"
    MIXED = "mixed"


class SubgroupDescriptor(Record):
    __slots__ = ("index", "generator", "character")

    def __init__(self, index: int, generator: ClassWord, character: Character) -> None:
        self._set(index, generator, character)

    @property
    def label(self) -> str:
        return f"H{self.index}"


class ExtensionDescriptor(Record):
    __slots__ = ("index", "candidates", "resolved")

    def __init__(self, index: int, candidates: tuple[RadicalWord, ...], resolved: bool) -> None:
        self._set(index, candidates, resolved)

    @property
    def label(self) -> str:
        return f"K{self.index}"

    def primary(self) -> RadicalWord:
        return self.candidates[0]


class CapitulationType(Record):
    """The 6-tuple (i_1,...,i_6); entry 0 means every class capitulates."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, int, int, int, int, int]) -> None:
        if len(entries) != 6 or any(not 0 <= i <= 6 for i in entries):
            raise ValueError("capitulation type needs six entries in 0..6")
        self._set(entries)

    def __repr__(self) -> str:
        return "(" + ",".join(str(i) for i in self.entries) + ")"


def satisfies_pair_parity(ct: CapitulationType) -> bool:
    """Positions (2,5) and (3,4) are each both zero or both nonzero."""
    e = ct.entries
    return ((e[1] == 0) == (e[4] == 0)) and ((e[2] == 0) == (e[3] == 0))


# The paper's six words S_1..S_6 per shape; S_j generates H_j, S_1 is the
# tau^2-fixed (plus) word and S_6 the tau^2-inverted (minus) word.  Written
# (e1, e3, m) with w-exponent m*h1; the p^e shape has no w.
_PE_WORDS = ((1, 1, 0), (1, 0, 0), (1, 3, 0), (1, 2, 0), (0, 1, 0), (1, 4, 0))
_W_WORDS = ((1, 1, 2), (1, 0, 1), (2, 4, 1), (4, 2, 1), (0, 1, 1), (1, 4, 0))
_CHARACTERS = (Character.PLUS,) + (Character.MIXED,) * 4 + (Character.MINUS,)


def _paper_words(rc: RadicandClass, h1: int | None) -> dict[int, tuple[int, int, int]]:
    """S_j of rc's shape by j = 1..6, as (e1, e3, ew); refuses NO_MATCH and,
    for the shapes with a w, a missing h1 or one divisible by 5."""
    if w_symbol_for(rc) is None:
        return dict(enumerate(_PE_WORDS, 1))
    if h1 is None:
        raise ValueError(f"h1 is required for the {rc.form.value} shape")
    if h1 % 5 == 0:
        raise ValueError("h1 must be nonzero mod 5")
    return {j: (e1, e3, m * h1) for j, (e1, e3, m) in enumerate(_W_WORDS, 1)}


def hilbert_class_field_generators(
    rc: RadicandClass, h1: int | None = None
) -> tuple[RadicalWord, RadicalWord]:
    """The two radical generators (x1, x2) of the genus field over the base.

    p^e shape: (pi_1, pi_3).  Other shapes: (pi_1 * w^h1, pi_1 * pi_3^4),
    with w = pi_5 or lambda respectively; the pi_3-exponent 4 is the fixed
    labelling convention used by every table downstream.  These are S_2 and
    S_5 (p^e) or S_6 (other shapes).
    """
    s = _paper_words(rc, h1)
    return RadicalWord(*s[2]), RadicalWord(*s[5 if rc.form is RadicandForm.PRIME_POWER else 6])


def six_extensions(x1: RadicalWord, x2: RadicalWord) -> list[RadicalWord]:
    """The six projective classes x1, x2, x1*x2, ..., x1*x2^4.

    Combined words are rescaled so their first nonzero exponent is 1; the
    projective equality of RadicalWord makes the choice immaterial.
    """
    if x1.is_zero() or x2.is_zero() or x1 == x2:
        raise ValueError("generators must be projectively independent")
    out = [x1, x2]
    for j in range(1, 5):
        combined = x1.combine(x2, j)
        out.append(RadicalWord(*combined.proj_key()))
    return out


def tau2_orbit(word: RadicalWord) -> RadicalWord:
    """The image of a radical word under tau^2: swap the pi_1, pi_3 exponents."""
    return RadicalWord(word.e3, word.e1, word.ew)


def subgroup_table(rc: RadicandClass, h1: int | None = None) -> list[SubgroupDescriptor]:
    """The six labelled order-5 subgroups with their standard generators.

    p^e shape: H1=<[P1P3]>, H2=<[P1]>, H3=<[P1P3^3]>, H4=<[P1P3^2]>,
    H5=<[P3]>, H6=<[P1P3^4]>.  Other shapes carry w-exponents: H1 gains
    Pw^(2*h1), H2..H5 gain Pw^h1, and H6 stays [P1P3^4].
    """
    s = _paper_words(rc, h1)
    return [
        SubgroupDescriptor(j, ClassWord(*s[j]), character)
        for j, character in zip(s, _CHARACTERS)
    ]


def subgroup_index(word: ClassWord, table: Iterable[SubgroupDescriptor]) -> int:
    """The label j of the unique H_j whose generator is a power of ``word``."""
    if word.is_zero():
        raise ValueError("the trivial class generates no order-5 subgroup")
    for desc in table:
        if word.generates_same_subgroup(desc.generator):
            return desc.index
    raise ValueError(f"{word!r} lies outside the span of the class-group generators")


def correspondence(
    rc: RadicandClass, symbol_exponent: int | None, h1: int | None = None
) -> list[ExtensionDescriptor]:
    """Assign radical words to K_1..K_6.

    p^e shape: the symbol (pi_1/pi_3) resolves K_2 and K_5 (exponent 0 puts
    K_2 = fifth root of pi_3, otherwise of pi_1); the K_1/K_6 and K_3/K_4
    assignments stay two-candidate.  Other shapes: all six stay
    two-candidate, ordered as the tables state them.  Each row lists the j
    of its candidates S_j.
    """
    s = _paper_words(rc, h1)
    if rc.form is RadicandForm.PRIME_POWER:
        if symbol_exponent is None:
            raise ValueError("the p^e shape needs the (pi_1/pi_3) symbol exponent")
        k2, k5 = (5, 2) if symbol_exponent % 5 == 0 else (2, 5)
        rows = ((1, 6), (k2,), (4, 3), (3, 4), (k5,), (6, 1))
    else:
        rows = ((6, 1), (2, 5), (3, 4), (4, 3), (5, 2), (1, 6))
    return [
        ExtensionDescriptor(i, tuple(RadicalWord(*s[j]) for j in row), len(row) == 1)
        for i, row in enumerate(rows, 1)
    ]


def guaranteed_capitulations(
    rc: RadicandClass, h1: int | None = None
) -> dict[RadicalWord, ClassWord]:
    """For each of the six extension words, the class that provably dies there.

    The fifth power of the class word equals the radicand of the extension,
    so extending the ideal makes it principal: the class [P1^a P3^b Pw^c]
    capitulates in the fifth-root field of pi_1^a pi_3^b w^c.
    """
    s = _paper_words(rc, h1)
    order = (2, 5, 1, 4, 3, 6) if rc.form is RadicandForm.PRIME_POWER else (2, 6, 1, 3, 4, 5)
    return {RadicalWord(*s[j]): ClassWord(*s[j]) for j in order}


# Possible-type tables.  Brace alternatives in the source tables are already
# expanded into separate tuples; order follows the statements.
_CASE1_BASE = (
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
)

_CASE2_BASE = (
    (0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 5, 0, 0, 2, 0),
    (0, 2, 0, 0, 5, 0),
    (1, 5, 0, 0, 2, 0),
    (1, 2, 0, 0, 5, 0),
    (0, 5, 4, 3, 2, 0),
    (0, 2, 4, 3, 5, 0),
    (1, 5, 4, 3, 2, 0),
    (1, 2, 4, 3, 5, 0),
    (0, 5, 3, 4, 2, 0),
    (0, 2, 3, 4, 5, 0),
    (1, 5, 3, 4, 2, 0),
    (1, 2, 3, 4, 5, 0),
    (0, 0, 3, 4, 0, 0),
    (0, 0, 4, 3, 0, 0),
    (1, 0, 3, 4, 0, 0),
    (1, 0, 4, 3, 0, 0),
)


def _alternate_k6_expansion(base: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    # When the tau^2-fixed pair (K_1, K_6) takes the other assignment, the
    # guaranteed deaths swap roles: i_1 becomes 0 or 6 and i_6 becomes 0 or 1.
    # Both paper tables expand with no repeats.
    return [(6 if t[0] else 0, t[1], t[2], t[3], t[4], i6) for t in base for i6 in (0, 1)]


def _swap_positions_and_values_2_5(t: tuple[int, ...]) -> tuple[int, ...]:
    swapped = (t[0], t[4], t[2], t[3], t[1], t[5])
    relabel = {2: 5, 5: 2}
    return tuple(relabel.get(v, v) for v in swapped)


def possible_types(
    rc: RadicandClass,
    symbol_exponent: int | None,
    k6_choice: RadicalWord,
    h1: int | None = None,
) -> list[CapitulationType]:
    """Enumerate the admissible capitulation types for a given K_6 assignment.

    ``k6_choice`` must be one of the two K_6 candidate words.  For the p^e
    shape a nonzero symbol exponent exchanges the roles of positions 2 and 5
    (values included); for the other shapes the symbol plays no role.
    """
    s = _paper_words(rc, h1)
    base = _CASE1_BASE if rc.form is RadicandForm.PRIME_POWER else _CASE2_BASE
    if k6_choice == RadicalWord(*s[6]):
        tuples = list(base)
    elif k6_choice == RadicalWord(*s[1]):
        tuples = _alternate_k6_expansion(base)
    else:
        raise ValueError("k6_choice is not one of the two K6 candidates")
    if rc.form is RadicandForm.PRIME_POWER:
        if symbol_exponent is None:
            raise ValueError("the p^e shape needs the (pi_1/pi_3) symbol exponent")
        if symbol_exponent % 5 != 0:
            tuples = [_swap_positions_and_values_2_5(t) for t in tuples]
    return [CapitulationType(t) for t in tuples]


# --- the h1 search --------------------------------------------------------

_H1_TARGETS = tuple(sorted(ADMISSIBLE_RESIDUES))


class H1SearchExhausted(Exception):
    """No (unit, h) witness exists, and the failure is proved.

    For lambda the product u*pi_1*lambda^h has positive valuation while
    every target is a lambda-unit; for an inert w the unit scan, which
    covers the full unit image modulo lambda^5, has no hit.
    ``norm_condition_h1`` carries the unique exponent solving the
    norm-level necessary condition, which callers may use as an explicitly
    unverified stand-in.
    """

    def __init__(self, message: str, *, norm_condition_h1: int | None) -> None:
        super().__init__(message)
        self.norm_condition_h1 = norm_condition_h1


class H1Witness(Record):
    __slots__ = ("h1", "unit", "unit_word", "residue", "product")

    def __init__(
        self, h1: int, unit: CycInt, unit_word: UnitWord, residue: int, product: CycInt
    ) -> None:
        self._set(h1, unit, unit_word, residue, product)

    def verify(self) -> bool:
        return congruent_mod_lambda_pow(self.product, CycInt(self.residue), 5)


def norm_condition_h1(p: int, w: PrimeElement, e: int = 1) -> int | None:
    """The unique h in 1..4 solving the norm-level congruence, if any.

    Inert w = q: the witness congruence forces p * q^(4h) = 1 (mod 25);
    q != +-1, +-7 (mod 25) makes q^4 an order-5 element, so the solution is
    unique, and it is nonzero exactly when p != 1 (mod 25).  Lambda: the
    lambda-free twist of pi_1 * lambda^h by n^j has norm p^(1+4j); killing it
    mod 25 forces j = 1, i.e. h = e (mod 5).
    """
    if w.kind is PrimeKind.LAMBDA:
        h = e % 5
        return h if 1 <= h <= 4 else None
    q = w.rational_below
    q4 = pow(q, 4, 25)
    if q4 == 1:
        return None
    target = pow(p, -1, 25)
    acc = 1
    for h in range(1, 5):
        acc = (acc * q4) % 25
        if acc == target:
            return h
    return None


def find_h1(pi1: PrimeElement, w: PrimeElement, *, e: int = 1) -> H1Witness:
    """Joint search for (h, u) with u * pi_1 * w^h = +-1, +-7 (mod lambda^5).

    Takes h ascending and, for each h, the first unit of the normalize_associate
    scan order that meets a target t.  For w = lambda the valuation proof is
    raised without any lookup.  The scan covers the full unit image mod
    lambda^5, so when no h has a hit the congruence is impossible: no silent
    default is ever produced.

    For w = q the integers mod lambda^5 are the integers mod 25, so
    u*pi_1*q^h = t exactly when u*pi_1 = t*q^-h mod 25: one ``first_unit_hit``
    on pi_1 with the row of targets t*q^-h for each h, row r giving h = r + 1.
    q^h and the product are built for the witness only.
    """
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
    q, *rest = w.value.coords
    if any(rest):
        raise UnsupportedPrimeError("an inert w must be a rational prime")
    q_inverse = pow(q, -1, 25)
    rows = [[t * q_inverse**h % 25 for t in _H1_TARGETS] for h in range(1, 5)]
    hit = first_unit_hit(pi1.value, 5, rows)
    if hit is not None:
        word, u, r, i = hit
        h = r + 1
        return H1Witness(h, u, word, _H1_TARGETS[i], u * pi1.value * w.value ** h)
    raise H1SearchExhausted(
        f"no unit in the full image mod lambda^5 makes u*pi_1*{w.rational_below}^h"
        " congruent to +-1, +-7 for any h in 1..4; the congruence is impossible",
        norm_condition_h1=fallback,
    )
