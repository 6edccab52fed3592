"""kscheck: exact-rational verification of Kochen-Specker style arguments.

Everything in this package computes over arbitrary-precision rationals.
Orthogonality, lattice laws, valuation counts, Born probabilities and
model feasibility are all decided exactly; there is no epsilon anywhere.

The public names in ``__all__`` load on first access: ``import kscheck``
alone imports no submodule, and reading ``kscheck.born`` imports
:mod:`kscheck.probability` and what it needs. So the command line, which
starts a fresh process for every command, loads only the modules its
subcommand uses.

The modules split at the ``Fraction`` boundary. Rays and contexts
(:mod:`kscheck.qlogic`), the search, parity and the graph
(:mod:`kscheck.ksengine`), scenario parsing (:mod:`kscheck.dsl`) and
the rational token grammar (:mod:`kscheck.rational`) work on ints, and
with :mod:`kscheck.frozen` and :mod:`kscheck.cli` they are all that
``check``, ``color``, ``parity`` and ``graph`` load. The
``Fraction`` side, :mod:`kscheck.exactlin` and :mod:`fractions`, loads
with states (:mod:`kscheck.probability`, for ``prob``), the
noncontextual model (:mod:`kscheck.model`, for ``model``), the subspace
lattice (:mod:`kscheck.lattice`) and two-particle states
(:mod:`kscheck.symmetry`, for ``symm``, which loads no scenario code).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, grouped by the submodule that defines it.
_EXPORTS = {
    "data": ("cabello18", "cabello18_text"),
    "dsl": ("ParseError", "parse_scenario", "parse_state", "serialize_scenario"),
    "exactlin": (
        "RMatrix",
        "RVector",
        "Rational",
        "kernel_basis",
        "nonneg_solve",
        "outer",
        "row_reduce",
        "trace_product",
    ),
    "ksengine": (
        "FuncReport",
        "KSScenario",
        "ParityCertificate",
        "SEARCH_NODE_BUDGET",
        "ScenarioError",
        "ScenarioTooLargeError",
        "Valuation",
        "build_scenario",
        "count_valuations",
        "enumerate_valuations",
        "find_valuation",
        "orthogonality_graph",
        "parity_certificate",
        "verify_func",
        "without_context",
    ),
    "model": ("MODEL_VALUATION_LIMIT", "NoncontextualModel", "noncontextual_model"),
    "probability": (
        "DensityOperator",
        "FiniteProbabilitySpace",
        "born",
        "check_classical_axioms",
        "check_state_axioms",
        "context_distribution",
        "event_probability",
        "expectation",
        "finite_pvm_check",
    ),
    "lattice": (
        "Projector",
        "Subspace",
        "boolean_algebra_of",
        "canonical_ray_coords",
        "join",
        "meet",
        "ortho",
        "projector_of",
    ),
    "qlogic": ("Context", "ContextError", "Ray", "validate_context"),
    "rational": ("parse_rational",),
    "symmetry": (
        "TwoParticleState",
        "exchange_parity",
        "pair_probability",
        "product_state",
        "swap",
        "symmetrize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's submodule on first access, and bind the name
    here so later reads are plain attribute lookups."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
