"""simlint: AST-based invariant checks for this repository.

Rule families (full documentation: ``docs/static-analysis.md``):

- ``SL1xx`` determinism -- no wall clocks, entropy, hash-order or
  identity-order dependence in sim code;
- ``SL2xx`` checkpoint coverage -- mutable state of a ``Checkpointable``
  must be declared in ``CKPT`` or, with a reason, in ``CKPT_SKIP``;
- ``SL3xx`` instrumentation hygiene -- metric/event names are literal,
  grammatical, and registered through the hub;
- ``SL4xx`` callback safety -- engine callbacks never re-enter ``run()``,
  block on I/O, or touch the clock.

Run with ``python -m repro.lint [paths]``; see ``--help`` for the
suppression and baseline workflow.
"""

from repro.lint.engine import (
    Finding,
    LintUsageError,
    Rule,
    apply_baseline,
    baseline_payload,
    load_baseline,
    run_rules,
)
from repro.lint.registry import all_rules

__all__ = [
    "Finding",
    "LintUsageError",
    "Rule",
    "all_rules",
    "apply_baseline",
    "baseline_payload",
    "load_baseline",
    "run_rules",
]
