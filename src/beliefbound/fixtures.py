"""Built-in example models and datasets.

`medai` is a three-variable clinical decision-support model (treatment D,
blood-pressure marker Z, recovery Y, one five-valued latent cause U uniform on
1..5) whose two variants entail identical per-decision behaviour but opposite
optimal treatments once Z is clamped.  It exercises every bound in the
package.  Its one definition is the JSON shipped under
``beliefbound/fixtures/``, which the CLI examples and the golden reports read
too; this module loads it through `importlib.resources`, so a zipped package
loads it as well.
"""

from __future__ import annotations

import json
from importlib import resources

from .fileio import load_scm
from .scm import Scm, scm_dataset
from .tables import BehaviouralDataset


def medai_scm() -> Scm:
    """Primary variant (`medai.scm.json`): D is 0, Z is 1 exactly when U is 1
    or 4, and treated recovery under Z=1 tracks every latent state but U=2.
    The do(Z=1) gap of treating is +3/5."""
    return load_scm(json.loads(fixture_path("medai.scm.json").read_text(encoding="utf-8")))


def medai_alt_scm() -> Scm:
    """Alternative variant (`medai_alt.scm.json`): the same D and Z, a recovery
    rule with the same per-decision tables, and the opposite optimum under
    do(Z=1): the gap of treating is -2/5."""
    return load_scm(json.loads(fixture_path("medai_alt.scm.json").read_text(encoding="utf-8")))


def medai_dataset() -> BehaviouralDataset:
    """Observational per-decision tables of the primary variant."""
    return scm_dataset(medai_scm(), "D")


def medai_experiment_dataset() -> BehaviouralDataset:
    """Observational tables plus the do(Z=1) experimental domain."""
    return scm_dataset(medai_scm(), "D", domains=[("do_z1", {"Z": 1})])


def fixture_path(name: str):
    """Filesystem path of a shipped fixture file (context-manager free)."""
    return resources.files("beliefbound").joinpath("fixtures", name)
