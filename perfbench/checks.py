"""Correctness checks for the generated-program workloads (``sweep``, ``predict``).

Two kinds of check, neither of which trusts one engine's answer on its own:

* **Planted-violation properties** (the generator's feature tags and
  ``docs/models.md``): the unchecked ``pdp11`` baseline runs every generated
  program to completion, so its cell is ``agree``; a program carrying one of
  :data:`PLANTED` performs an out-of-bounds access, a use after ``free`` or a
  use of a dead stack frame, which every one of the six checking models
  traps (``trap:*``).  The same rules hold for static verdicts, except that
  ``unknown`` is never wrong, only imprecise.
* **Second engine**: the static predictor and the dynamic oracle must agree
  on every cell the predictor decides (``crossval.prediction_matches``), and
  no dynamically trapping cell may be predicted safe
  (``crossval.is_soundness_violation``).
"""

from __future__ import annotations

from repro.staticcheck.crossval import is_soundness_violation, prediction_matches

BASELINE = "pdp11"

#: generator features that plant a memory-safety violation every checking
#: model detects.
PLANTED = ("oob_read", "oob_write", "helper_oob", "uaf", "stack_escape")


def property_failure(model: str, category: str, features) -> str | None:
    """Why one cell (dynamic category or static verdict) breaks a
    planted-violation property, or None."""
    if category == "unknown":
        return None
    if model == BASELINE:
        return None if category == "agree" else f"{model} is {category}, expected agree"
    planted = [feature for feature in features if feature in PLANTED]
    if planted and not category.startswith("trap:"):
        return f"{model} is {category} although {','.join(planted)} is planted"
    return None


def crossval_failure(static: str, dynamic: str) -> str | None:
    """Why a static verdict and the dynamic cell of the same (program, model)
    disagree, or None."""
    if static == "unknown":
        return None
    if is_soundness_violation(static, dynamic):
        return f"soundness violation: predicted {static}, dynamic {dynamic}"
    if not prediction_matches(static, dynamic):
        return f"predicted {static}, dynamic {dynamic}"
    return None
