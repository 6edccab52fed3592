"""Value semantics of the package's immutable classes: equality, hashing,
repr, immutability, slotted fields, keyword construction, copies and
cached attributes."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from functools import cached_property

import pytest

from kscheck import (
    Context,
    DensityOperator,
    FiniteProbabilitySpace,
    FuncReport,
    KSScenario,
    NoncontextualModel,
    ParityCertificate,
    Projector,
    RMatrix,
    RVector,
    Ray,
    Subspace,
    TwoParticleState,
    Valuation,
    boolean_algebra_of,
    build_scenario,
    cabello18,
    cabello18_text,
    context_distribution,
    find_valuation,
    join,
    meet,
    noncontextual_model,
    ortho,
    parity_certificate,
    parse_scenario,
    projector_of,
    symmetrize,
    without_context,
)
from kscheck.frozen import _Frozen
from kscheck.probability import ClassicalAxiomReport, PvmReport, StateAxiomReport


def _scenario():
    a, b = Ray("a", (1, 0)), Ray("b", (0, 1))
    return KSScenario(2, (a, b), (Context((a, b)),))


# Per class: its field names, in order, and a function that builds a fresh
# value, so two calls give equal values that are distinct objects.
VALUES = {
    RVector: (("entries",), lambda: RVector((1, Fraction(1, 2)))),
    RMatrix: (("rows",), lambda: RMatrix(((1, 0), (0, 1)))),
    Ray: (("id", "ints"), lambda: Ray("a", (2, 0))),
    Projector: (("matrix",), lambda: Projector(RMatrix(((1, 0), (0, 0))))),
    Subspace: (("ambient_dim", "basis"), lambda: Subspace.span([(1, 1)])),
    Context: (("rays",), lambda: Context((Ray("a", (1, 0)), Ray("b", (0, 1))))),
    Valuation: (("assignment",), lambda: Valuation({"a": 1, "b": 0})),
    ParityCertificate: (("ray_multiplicities", "contexts"), lambda: ParityCertificate({"a": 2}, (0,))),
    NoncontextualModel: (
        ("weights", "valuations"),
        lambda: NoncontextualModel({0: Fraction(1)}, {0: Valuation({"a": 1, "b": 0})}),
    ),
    KSScenario: (("dim", "rays", "contexts"), _scenario),
    FuncReport: (
        ("idempotence_violations", "product_violations", "additivity_violations"),
        lambda: FuncReport(("a",), ((0, "a", "b"),), ((0, 2),)),
    ),
    FiniteProbabilitySpace: (("outcomes", "weights"), lambda: FiniteProbabilitySpace.uniform("ab")),
    ClassicalAxiomReport: (("violations",), lambda: ClassicalAxiomReport(("weights sum to 2",))),
    DensityOperator: (("_scaled",), lambda: DensityOperator.pure((1, 1))),
    StateAxiomReport: (("violations",), lambda: StateAxiomReport(())),
    PvmReport: (("violations",), lambda: PvmReport(())),
    TwoParticleState: (("amplitudes",), lambda: symmetrize((1, 0), (0, 1), -1)),
}

# Their fields hold dicts, so hashing raises, as it always has.
UNHASHABLE = {Valuation, ParityCertificate, NoncontextualModel, FiniteProbabilitySpace}

# Classes whose constructor parameters are their fields.
FIELD_PARAMETERS = [cls for cls in VALUES if cls not in (Ray, DensityOperator)]

by_name = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


@by_name
def test_equal_values_are_equal_and_hash_equal(cls):
    _, make = VALUES[cls]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@by_name
def test_values_of_other_classes_are_not_equal(cls):
    a = VALUES[cls][1]()
    assert a.__eq__(object()) is NotImplemented
    for other, (_, make) in VALUES.items():
        if other is not cls:
            assert a != make() and not a == make()


def test_same_fields_in_another_class_are_not_equal():
    assert StateAxiomReport(()) != PvmReport(())
    assert ClassicalAxiomReport(()) != StateAxiomReport(())


def _pair_classes():
    """A value class that annotates two fields and states no ``_fields``,
    and a subclass of it that annotates nothing."""

    class Pair(_Frozen):
        second: int
        first: str

        def __init__(self, second: int, first: str) -> None:
            object.__setattr__(self, "second", second)
            object.__setattr__(self, "first", first)

    class SamePair(Pair):
        pass

    return Pair, SamePair


def test_fields_are_the_annotated_names_in_order():
    Pair, _ = _pair_classes()
    assert Pair._fields == ("second", "first")
    a = Pair(1, "x")
    assert a == Pair(1, "x") and hash(a) == hash(Pair(1, "x"))
    assert a != Pair(2, "x") and a != Pair(1, "y")
    assert hash(a) != hash(Pair(1, "y"))
    assert repr(a) == f"{Pair.__qualname__}(second=1, first='x')"


def test_a_subclass_without_annotations_keeps_its_parents_fields():
    Pair, SamePair = _pair_classes()
    assert SamePair._fields == ("second", "first")
    a = SamePair(1, "x")
    assert a == SamePair(1, "x") and a != SamePair(1, "y") and a != SamePair(2, "x")
    assert a != Pair(1, "x") and Pair(1, "x") != a
    assert repr(a) == f"{SamePair.__qualname__}(second=1, first='x')"


@by_name
def test_repr_names_each_field(cls):
    fields, make = VALUES[cls]
    a = make()
    expected = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({expected})"


def test_repr_literal():
    assert repr(Ray("a", (2, 0))) == "Ray(id='a', ints=(1, 0))"
    assert repr(RVector((1, 2))) == "RVector(entries=(Fraction(1, 1), Fraction(2, 1)))"
    assert repr(FuncReport()) == (
        "FuncReport(idempotence_violations=(), product_violations=(), additivity_violations=())"
    )


@by_name
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, make = VALUES[cls]
    a = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == make()


# The classes with a cached_property, whose values also get an instance
# __dict__ for the cached results.
CACHING = {KSScenario, DensityOperator, TwoParticleState}


def _assert_holds_exactly_its_fields(value):
    """Each field is in a set slot, and only a caching class's value has an
    instance __dict__, which holds cached names only, never a field."""
    cls = type(value)
    slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
    assert [name for name in slots if name != "__dict__"] == list(cls._fields)
    for name in cls._fields:
        getattr(value, name)  # AttributeError if the slot is not set
    cached = {
        name
        for klass in cls.__mro__
        for name, attr in vars(klass).items()
        if isinstance(attr, cached_property)
    }
    assert bool(cached) == (cls in CACHING) == ("__dict__" in slots)
    if cached:
        for name in cached:
            getattr(value, name)
        assert set(vars(value)) == cached
    else:
        assert not hasattr(value, "__dict__")


@by_name
def test_values_hold_exactly_their_fields(cls):
    fields, make = VALUES[cls]
    assert cls._fields == fields
    for value in (make(), _checked(make())):
        _assert_holds_exactly_its_fields(value)


@pytest.mark.parametrize("cls", FIELD_PARAMETERS, ids=lambda cls: cls.__name__)
def test_keyword_construction_from_fields(cls):
    fields, make = VALUES[cls]
    a = make()
    assert cls(**{name: getattr(a, name) for name in fields}) == a


def test_keyword_construction():
    cert = ParityCertificate(ray_multiplicities={"a": 2, "b": 4}, contexts=[0, 1, 2])
    assert cert.contexts == (0, 1, 2) and cert.context_count == 3
    assert Ray(id="a", coords=(2, 0)) == Ray("a", (1, 0))
    rho = DensityOperator.pure((1, 1))
    assert DensityOperator(matrix=rho.matrix) == rho
    with pytest.raises(ValueError, match="not odd"):
        ParityCertificate(ray_multiplicities={"a": 2}, contexts=(0, 1))


def test_func_report_defaults():
    report = FuncReport()
    assert report.idempotence_violations == ()
    assert report.product_violations == ()
    assert report.additivity_violations == ()
    assert report.ok and report.lines() == []
    assert report == FuncReport((), (), ())


def _listed(value):
    """``value`` with each tuple in it, at any depth, made a list."""
    return [_listed(x) for x in value] if type(value) is tuple else value


def _tuples(value):
    """Every tuple in ``value``, at any depth, ``value`` itself included."""
    if type(value) is not tuple:
        return []
    return [value] + [part for x in value for part in _tuples(x)]


@pytest.mark.parametrize("cls", FIELD_PARAMETERS, ids=lambda cls: cls.__name__)
def test_tuple_fields_hold_tuples(cls):
    """A value built with each tuple in its fields given as a list equals
    the one built from tuples, hashes as it does, and holds tuples there,
    which cannot grow."""
    fields, make = VALUES[cls]
    a = make()
    listed = cls(**{name: _listed(getattr(a, name)) for name in fields})
    assert listed == a
    if cls not in UNHASHABLE:
        assert hash(listed) == hash(a)
    for name in fields:
        assert len(_tuples(getattr(listed, name))) == len(_tuples(getattr(a, name)))


def test_cached_properties_cache():
    s = _scenario()
    components = s._components
    assert components == ((0,), ()) and s._components is components
    assert vars(s)["_components"] is components
    assert s == _scenario()

    rho = DensityOperator.pure((1, 1))
    matrix = rho.matrix
    assert rho.matrix is matrix and matrix == RMatrix(((Fraction(1, 2),) * 2,) * 2)
    assert rho == DensityOperator.pure((1, 1))

    state = TwoParticleState(RMatrix(((0, 1), (-1, 0))))
    norm = state.norm_squared
    assert norm == 2 and state.norm_squared is norm
    assert vars(state)["norm_squared"] is norm


# Values built with _trusted, without their constructor's checks, each
# reached through a public function. The scenario text declares f
# proportional to b, so merging rebuilds the third context.
MERGING = """dim 3
ray a 1 0 0
ray b 0 1 1
ray c 0 1 -1
ray d 0 1 0
ray e 0 0 1
ray f 0 -2 -2
context a b c
context a d e
context f c a
"""


def _scenario_values(s):
    return [s, *s.contexts]


TRUSTED = {
    "projector_of": lambda: [projector_of(Ray("a", (1, -2, 3)))],
    "boolean_algebra_of": lambda: list(boolean_algebra_of(parse_scenario(MERGING).contexts[0])),
    "Projector.zero": lambda: [Projector.zero(3)],
    "Projector.identity": lambda: [Projector.identity(3)],
    "Projector.complement": lambda: [projector_of(Ray("a", (1, 1, 0))).complement()],
    "parse_scenario merge": lambda: _scenario_values(parse_scenario(MERGING)),
    "parse_scenario no merge": lambda: _scenario_values(parse_scenario(MERGING, merge=False)),
    "without_context": lambda: [
        without_context(parse_scenario(MERGING), 0),
        without_context(parse_scenario(cabello18_text()), 8),
    ],
    "context_distribution": lambda: [
        context_distribution(DensityOperator.pure((1, 2, 3)), c)
        for c in parse_scenario(MERGING).contexts
    ],
    "DensityOperator.pure": lambda: [DensityOperator.pure((2, -1, 0))],
    "DensityOperator.mixture": lambda: [
        DensityOperator.mixture([(Fraction(1, 3), (1, 1)), (Fraction(2, 3), (3, -1))])
    ],
    "DensityOperator.maximally_mixed": lambda: [DensityOperator.maximally_mixed(3)],
    "find_valuation": lambda: [find_valuation(parse_scenario(MERGING))],
    "parse_scenario minted rays": lambda: list(parse_scenario(MERGING, merge=False).rays),
    "build_scenario minted rays": lambda: list(
        build_scenario([("a", (2, 0)), ("b", (0, -3))], [["a", "b"], ["b", "a"]], merge=False).rays
    ),
    "Subspace.span": lambda: [Subspace.span([(1, 2, 3), (2, 4, 6), (0, 1, Fraction(1, 2))])],
    "Subspace.full": lambda: [Subspace.full(1), Subspace.full(3)],
    "join": lambda: [join(Subspace.span([(1, 1, 0)]), Subspace.span([(0, 2, 1)]))],
    "meet": lambda: [meet(Subspace.span([(1, 0, 0), (0, 1, 0)]), Subspace.span([(1, 1, 1), (0, 0, 1)]))],
    "ortho": lambda: [ortho(Subspace.span([(1, -1, 2)])), ortho(Subspace.zero(2))],
    "parity_certificate": lambda: [parity_certificate(cabello18())],
    "noncontextual_model": lambda: [
        noncontextual_model(without_context(cabello18(), 0), DensityOperator.maximally_mixed(4))
    ],
}

by_site = pytest.mark.parametrize("site", list(TRUSTED))


def _checked(value):
    """The value the checked constructor builds from the same fields."""
    cls = type(value)
    if cls is DensityOperator:
        return DensityOperator(value.matrix)
    if cls is Ray:
        return Ray(value.id, value.ints)
    if cls is KSScenario:
        return KSScenario(value.dim, value.rays, tuple([_checked(c) for c in value.contexts]))
    return cls(**{name: getattr(value, name) for name in cls._fields})


@by_site
def test_trusted_values_equal_checked_ones(site):
    values = TRUSTED[site]()
    assert values
    for value in values:
        checked = _checked(value)
        assert value == checked and checked == value
        if type(value) not in UNHASHABLE:
            assert hash(value) == hash(checked)


@by_site
def test_trusted_values_are_frozen(site):
    for value in TRUSTED[site]():
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)


@by_site
def test_trusted_values_hold_exactly_their_fields(site):
    for value in TRUSTED[site]():
        _assert_holds_exactly_its_fields(value)


def _copies(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


def _assert_copies_are_equal(value):
    for twin in _copies(value):
        assert type(twin) is type(value) and twin == value
        _assert_holds_exactly_its_fields(twin)


@by_name
def test_values_copy_and_pickle(cls):
    _assert_copies_are_equal(VALUES[cls][1]())


@by_site
def test_trusted_values_copy_and_pickle(site):
    for value in TRUSTED[site]():
        _assert_copies_are_equal(value)
