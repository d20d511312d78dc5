"""cli-fixture: the golden-report CLI commands, each a fresh interpreter.

Every job runs ``python -m beliefbound.cli ...`` from the repository root,
one child at a time, and checks exit code 0 and stdout byte-equal to
``tests/golden/<case>.json``.  The seed only fixes the order of the commands
within each cycle.
"""

from __future__ import annotations

import random

FIXTURES = "src/beliefbound/fixtures"
TABLES = f"{FIXTURES}/medai.tables.json"
EXPERIMENT = f"{FIXTURES}/medai_experiment.tables.json"
GAP = ["--decision", "1", "--baseline", "0"]
SHIFT = ["--shift", "Z=1", "--context", "Z=1"]

# The golden cases of tests/test_cli.py, by golden file name.
CASES = {
    "bounds_intervention": ["bounds", "--data", TABLES, "--theorem", "intervention",
                            *SHIFT, *GAP],
    "bounds_intervention_swapped": ["bounds", "--data", TABLES, "--theorem", "intervention",
                                    *SHIFT, "--decision", "0", "--baseline", "1"],
    "bounds_multidomain": ["bounds", "--data", EXPERIMENT, "--theorem", "multidomain",
                           *SHIFT, *GAP],
    "bounds_unknown_shift": ["bounds", "--theorem", "unknown-shift"],
    "bounds_covariate_shift": ["bounds", "--data", TABLES, "--theorem", "covariate-shift",
                               "--sigma-context", "Z=1:0.9", *SHIFT, *GAP],
    "bounds_fairness": ["bounds", "--data", TABLES, "--theorem", "fairness",
                        "--decision", "1", "--attribute-baseline", "Z=0"],
    "bounds_harm": ["bounds", "--data", TABLES, "--theorem", "harm", *GAP],
    "bounds_direct_discrimination": ["bounds", "--data", TABLES, "--theorem",
                                     "direct-discrimination", "--decision", "1",
                                     "--attribute-baseline", "Z=0", "--attribute-value", "Z=1"],
    "bounds_causal_harm": ["bounds", "--data", "tests/data/policy_joint.json", "--theorem",
                           "causal-harm", *GAP],
    "predict_weak": ["predict", "--data", TABLES, "--theorem", "intervention", *SHIFT,
                     "--mode", "weak"],
    "predict_strong": ["predict", "--data", EXPERIMENT, "--theorem", "multidomain", *SHIFT,
                       "--mode", "strong"],
    "oracle_min": ["oracle", "--data", TABLES, "--direction", "min", *SHIFT, *GAP],
    "oracle_max": ["oracle", "--data", TABLES, "--direction", "max", *SHIFT, *GAP],
    "relax_exact": ["relax", "--data", TABLES, "--kind", "approx-grounding", "--delta", "0.1",
                    *SHIFT, *GAP],
    "relax_sample_seed7": ["relax", "--data", TABLES, "--kind", "approx-grounding",
                           "--delta", "0.1", "--method", "sample", "--seed", "7", *SHIFT,
                           "--decision", "0", "--baseline", "1"],
    "relax_proxy": ["relax", "--data", TABLES, "--kind", "proxy", "--alpha", "0.9",
                    "--shift", "Z=1", *GAP],
}


def generate(seed: int) -> list[str]:
    """Case order for every cycle of this seed."""
    order = sorted(CASES)
    random.Random(seed).shuffle(order)
    return order
