"""The package's records print, compare, hash and refuse assignment as the
frozen dataclasses they replaced did; ``Report``, whose fields hold lists,
is unhashable.

Every repr, and every hash that does not depend on the string-hash seed, is
the value the dataclass version gave.  A hash over an Enum or a string
changes with the seed, so for those the test pins the dataclass rule: the
hash of the tuple of the fields.
"""

import copy
import pickle

import pytest

from quintcap.capitulation import (
    CapitulationType,
    Character,
    ClassWord,
    ExtensionDescriptor,
    H1Witness,
    RadicalWord,
    SubgroupDescriptor,
    _Word,
)
from quintcap.classify import RadicandClass, RadicandForm, classify_radicand
from quintcap.cyclotomic import CycInt, LambdaExpansion
from quintcap.primes import (
    AssociateNormalization,
    PrimeElement,
    PrimeKind,
    SplittingData,
    UnitWord,
    factor_rational_prime,
    normalize_associate,
)
from quintcap.report import FormalTables, Report, build_report

PI_11 = PrimeElement(CycInt(-1, 1, 1, 0), PrimeKind.SPLIT, 1, 11, 3)
INERT_2 = PrimeElement(CycInt(2), PrimeKind.INERT, 5, 2)


def _formal(generators=(RadicalWord(1, 0), RadicalWord(0, 1))):
    return FormalTables(None, generators, (), (), (), ())


# (record, repr, an equal record built anew, a record that differs in one
# field, hash or None when it depends on the seed)
CASES = [
    (
        LambdaExpansion((1, 2, 0)),
        "LambdaExpansion(digits=(1, 2, 0))",
        LambdaExpansion(digits=(1, 2, 0)),
        LambdaExpansion((1, 2, 1)),
        6639689466887606419,
    ),
    (
        factor_rational_prime(11).factors[0],
        "PrimeElement(value=CycInt(-1, 1, 1, 0), kind=<PrimeKind.SPLIT: 'split'>,"
        " label=1, rational_below=11, root=3)",
        PI_11,
        PrimeElement(CycInt(-1, 1, 1, 0), PrimeKind.SPLIT, 1, 11),
        None,
    ),
    (
        factor_rational_prime(2),
        "SplittingData(prime=2, factors=(PrimeElement(value=CycInt(2, 0, 0, 0),"
        " kind=<PrimeKind.INERT: 'inert'>, label=5, rational_below=2, root=None),),"
        " root=None)",
        SplittingData(prime=2, factors=(INERT_2,), root=None),
        SplittingData(2, (INERT_2,), 1),
        None,
    ),
    (
        UnitWord(1, -2, -1),
        "UnitWord(zeta_exp=1, fund_exp=-2, sign=-1)",
        UnitWord(sign=-1, fund_exp=-2, zeta_exp=1),
        UnitWord(1, -2, 1),
        -1188510296819470066,
    ),
    (
        normalize_associate(PI_11, 2, [1]),
        "AssociateNormalization(unit=CycInt(0, 3, 5, 3), unit_word=UnitWord(zeta_exp=0,"
        " fund_exp=4, sign=1), normalized=CycInt(-5, -11, -10, -3),"
        " residue=CycInt(1, 0, 0, 0))",
        AssociateNormalization(
            CycInt(0, 3, 5, 3), UnitWord(0, 4, 1), CycInt(-5, -11, -10, -3), CycInt(1)
        ),
        AssociateNormalization(
            CycInt(0, 3, 5, 3), UnitWord(0, 4, 1), CycInt(-5, -11, -10, -3), CycInt(7)
        ),
        7764475928992672773,
    ),
    (
        classify_radicand(93),
        "RadicandClass(n=93, form=<RadicandForm.PRIME_POWER_TIMES_Q: 'p^e*q'>, p=31,"
        " q=3, e=1, residue_mod_25=18)",
        RadicandClass(93, RadicandForm.PRIME_POWER_TIMES_Q, 31, 3, 1, residue_mod_25=18),
        RadicandClass(93, RadicandForm.PRIME_POWER_TIMES_Q, 31, 3, 2, 18),
        None,
    ),
    (
        _Word(6, 3),
        "_Word(e1=1, e3=3, ew=0)",
        _Word(e1=1, e3=-2),
        _Word(1, 3, 1),
        99011318116142104,
    ),
    (
        RadicalWord(1, 2, 3),
        "RadicalWord(e1=1, e3=2, ew=3)",
        RadicalWord(2, 4, 6),  # projectively equal
        RadicalWord(1, 2, 4),
        529344067295497451,
    ),
    (
        ClassWord(1, 2),
        "ClassWord(e1=1, e3=2, ew=0)",
        ClassWord(1, 2, 0),
        ClassWord(2, 4),  # exact: a multiple is another class
        -3194506032951434905,
    ),
    (
        SubgroupDescriptor(1, ClassWord(1, 0), Character.PLUS),
        "SubgroupDescriptor(index=1, generator=ClassWord(e1=1, e3=0, ew=0),"
        " character=<Character.PLUS: 'plus'>)",
        SubgroupDescriptor(index=1, generator=ClassWord(1, 0), character=Character.PLUS),
        SubgroupDescriptor(1, ClassWord(1, 0), Character.MINUS),
        None,
    ),
    (
        ExtensionDescriptor(2, (RadicalWord(1, 1), RadicalWord(1, 4)), False),
        "ExtensionDescriptor(index=2, candidates=(RadicalWord(e1=1, e3=1, ew=0),"
        " RadicalWord(e1=1, e3=4, ew=0)), resolved=False)",
        ExtensionDescriptor(2, (RadicalWord(2, 2), RadicalWord(3, 2)), resolved=False),
        ExtensionDescriptor(2, (RadicalWord(1, 1), RadicalWord(1, 4)), True),
        2719085095630218007,
    ),
    (
        CapitulationType((0, 1, 2, 2, 1, 6)),
        "(0,1,2,2,1,6)",
        CapitulationType(entries=(0, 1, 2, 2, 1, 6)),
        CapitulationType((0, 1, 2, 2, 1, 5)),
        -2143923560811325570,
    ),
    (
        H1Witness(2, CycInt(1), UnitWord(0, 0, 1), 7, CycInt(7)),
        "H1Witness(h1=2, unit=CycInt(1, 0, 0, 0), unit_word=UnitWord(zeta_exp=0,"
        " fund_exp=0, sign=1), residue=7, product=CycInt(7, 0, 0, 0))",
        H1Witness(2, CycInt(1), UnitWord(0, 0, 1), residue=7, product=CycInt(7)),
        H1Witness(3, CycInt(1), UnitWord(0, 0, 1), 7, CycInt(7)),
        5275850677814833981,
    ),
    (
        _formal(),
        "FormalTables(w_symbol=None, generators=(RadicalWord(e1=1, e3=0, ew=0),"
        " RadicalWord(e1=0, e3=1, ew=0)), extensions=(), subgroups=(), capitulations=(),"
        " type_lists=())",
        _formal(),
        _formal((RadicalWord(1, 0), RadicalWord(1, 1))),
        None,
    ),
]

REPORT_4 = (
    "Report(n=4, classification=RadicandClass(n=4, form=<RadicandForm.NO_MATCH:"
    " 'no_match'>, p=None, q=None, e=0, residue_mod_25=4), no_match=True, primes=[],"
    " root=None, normalization=None, h1=None, symbol_exponent=None, notes=[],"
    " formal=None)"
)


def _fields(record):
    return {
        LambdaExpansion: ("digits",),
        PrimeElement: ("value", "kind", "label", "rational_below", "root"),
        SplittingData: ("prime", "factors", "root"),
        UnitWord: ("zeta_exp", "fund_exp", "sign"),
        AssociateNormalization: ("unit", "unit_word", "normalized", "residue"),
        RadicandClass: ("n", "form", "p", "q", "e", "residue_mod_25"),
        _Word: ("e1", "e3", "ew"),
        RadicalWord: ("e1", "e3", "ew"),
        ClassWord: ("e1", "e3", "ew"),
        SubgroupDescriptor: ("index", "generator", "character"),
        ExtensionDescriptor: ("index", "candidates", "resolved"),
        CapitulationType: ("entries",),
        H1Witness: ("h1", "unit", "unit_word", "residue", "product"),
        FormalTables: (
            "w_symbol",
            "generators",
            "extensions",
            "subgroups",
            "capitulations",
            "type_lists",
            "fragments",
        ),
    }[type(record)]


@pytest.mark.parametrize("case", CASES, ids=lambda case: type(case[0]).__name__)
def test_record_repr_eq_and_hash_are_the_dataclass_ones(case):
    record, text, same, other, pinned = case
    assert repr(record) == text
    assert record == same and not record != same
    assert record != other and not record == other
    assert hash(record) == hash(same)
    if pinned is not None:
        assert hash(record) == pinned
    if isinstance(record, RadicalWord):
        assert hash(record) == hash(record.proj_key())
    else:
        assert hash(record) == hash(tuple(getattr(record, f) for f in _fields(record)))
    # A record never equals a record of another class with the same fields.
    assert record != object()
    if type(record) in (_Word, RadicalWord, ClassWord):
        for cls in {_Word, RadicalWord, ClassWord} - {type(record)}:
            assert record != cls(record.e1, record.e3, record.ew)


@pytest.mark.parametrize("case", CASES, ids=lambda case: type(case[0]).__name__)
def test_record_fields_cannot_be_assigned_or_deleted(case):
    record = case[0]
    for name in _fields(record):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value


@pytest.mark.parametrize("case", CASES, ids=lambda case: type(case[0]).__name__)
def test_record_survives_pickle_and_copy(case):
    record = case[0]
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)


def test_word_subclasses_freeze_only_the_exponents():
    word = RadicalWord(1, 2)
    word.note = "kept"
    assert word.note == "kept" and word == RadicalWord(1, 2)
    with pytest.raises(AttributeError):
        _Word(1, 2).note = "refused"


def test_records_keep_their_field_defaults():
    # CASES pins the other defaults through repr.
    report = Report(4, classify_radicand(4), True)
    assert report.primes == [] and report.primes is not report.notes
    assert Report(4, classify_radicand(4), True).primes is not report.primes
    with pytest.raises(TypeError):
        PrimeElement(CycInt(2), PrimeKind.INERT, 5)
    with pytest.raises(TypeError):
        UnitWord(0, 0, 1, zeta_exp=0)


@pytest.mark.parametrize("n", [93, 151, 55, 2111])
def test_report_survives_pickle(n):
    # Each shape and a no_match n: the report's fields stay plain lists,
    # dicts and records, which pickle.
    report = build_report(n)
    twin = pickle.loads(pickle.dumps(report))
    assert twin == report
    assert twin.to_json() == report.to_json()
    assert twin.to_text(explain=True) == report.to_text(explain=True)


def test_report_is_frozen_compared_by_fields_and_unhashable():
    report = build_report(4)
    assert repr(report) == REPORT_4
    assert report == build_report(4)
    assert report != build_report(8)
    with pytest.raises(TypeError):
        hash(report)
    for name in Report.__slots__:
        value = getattr(report, name)
        with pytest.raises(AttributeError):
            setattr(report, name, value)
        with pytest.raises(AttributeError):
            delattr(report, name)
        assert getattr(report, name) is value
    # Its lists are its own to change.
    report.notes.append("changed")
    assert report.notes == ["changed"]
    assert report != build_report(4)
