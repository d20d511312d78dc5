"""Partial-identification bounds on agent behaviour over causal world models.

Given an agent's observed per-decision behaviour, compute provable intervals
on its out-of-distribution preference gaps, counterfactual fairness gaps, and
harm gaps, and certify the tight ones against an exact linear-programming
oracle over canonical response-type models.

Submodules and public names load on first access (PEP 562), so importing the
package, or only the closed-form parts of it, never imports numpy.  hashlib
(and with it OpenSSL) loads on the first read of an interval's provenance
digest (`GapInterval.inputs_digest`), not with `bounds`.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by defining module; the keys are also reachable as submodules.
_EXPORTS = {
    "bounds": (
        "GapInterval",
        "causal_harm_interval",
        "direct_discrimination_interval",
        "fairness_gap_interval",
        "harm_gap_interval",
        "thm1_gap_interval",
        "thm2_multidomain_lower",
        "thm3_unknown_shift_interval",
        "thm4_covariate_shift_lower",
    ),
    "errors": (
        "AtomLimitError",
        "BeliefBoundError",
        "DataError",
        "InputError",
        "ModelError",
        "OracleError",
        "ProviderError",
        "SamplingError",
        "UnsupportedError",
        "ZeroMassError",
    ),
    "lp": (),
    "oracle": (
        "CanonicalAtomSpace",
        "Polytope",
        "ResponseTypeTable",
        "SkeletonVariable",
        "build_polytope",
        "canonical_zy_table",
        "feasible_scm",
        "optimize_gap",
        "unknown_shift_witnesses",
        "witness_thm1_scm",
    ),
    "predictability": (
        "Certificate",
        "PredictabilityVerdict",
        "strong_verdict",
        "weak_verdict",
    ),
    "relaxations": (
        "GroundingBall",
        "approx_grounding_lower",
        "partial_unconfoundedness_interval",
        "proxy_alignment_lower",
    ),
    "report": ("Report",),
    "scm": (
        "ExoDistribution",
        "Mechanism",
        "Scm",
        "apply_shift",
        "counterfactual_probability",
        "evaluate",
        "joint_distribution",
        "policy_model",
        "scm_dataset",
        "submodel",
    ),
    "tables": (
        "BehaviouralDataset",
        "DistTable",
        "ExperimentalDomain",
        "Policy",
        "VariableRef",
        "estimate_from_samples",
        "expectation",
        "merge_assignments",
        "policy_to_atomic",
        "query",
        "total_variation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain global reads
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
