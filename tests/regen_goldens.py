"""Regenerate every committed golden file in one command::

    python -m tests.regen_goldens            # every golden file
    python -m tests.regen_goldens pipeline   # just one of them

Five golden files pin the repo's outputs, each with its own format and
pinned run matrix:

``golden_rubis_digests.json``
    Byte-identity of the spec-interpreted RUBiS deployment: record and
    ground-truth hashes over six seed configurations
    (``tests/test_rubis_identity.py``).
``golden_pipeline_digests.json``
    The backend-equivalence matrix: one ``verify_equivalence`` digest
    per library scenario (``tests/test_pipeline.py``).
``golden_sampling_digests.json``
    The same matrix under uniform request sampling
    (``tests/test_sampling.py``).
``golden_figures.json``
    Every evaluation figure at the test scale ``TINY``: id, title,
    columns, notes and every row, minus the wall-clock and
    tracemalloc columns (``tests/test_experiments.py``).
``golden_cag_queries.json``
    Every query answer of every finished CAG of two runs (RUBiS
    identity trace, ``fanout_aggregator``), one digest per run
    (``tests/test_cag_queries.py``).

Regenerate **only** after an intentional output change, and commit the
JSON diff together with the change that caused it -- an unexpected diff
here means the change was not behaviour-neutral.

This module stays importable as ``tests.regen_goldens`` without a
``tests/__init__.py`` (the directory is a namespace package; adding the
init file would break pytest's rootdir-based ``from helpers import``
resolution), so it bootstraps ``sys.path`` itself the same way pytest
does: the tests directory and ``src/`` go first, then the test modules
import as top level names.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent

for entry in (str(TESTS_DIR), str(TESTS_DIR.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.topology import run_scenario  # noqa: E402


def regen_rubis() -> None:
    """The six byte-identity digests of ``test_rubis_identity.py``."""
    from test_rubis_identity import GOLDEN_CONFIGS, run_digest

    digests = {}
    for key, config in GOLDEN_CONFIGS.items():
        digests[key] = run_digest(run_scenario(config))
        print(f"{key:20s} records={digests[key]['records'][:16]}...")
    path = TESTS_DIR / "golden_rubis_digests.json"
    path.write_text(json.dumps(digests, indent=1), encoding="utf-8")
    print(f"wrote {path}")


def regen_pipeline() -> None:
    """The backend-equivalence digests of ``test_pipeline.py``."""
    from test_pipeline import _regenerate_goldens

    _regenerate_goldens()


def regen_sampling() -> None:
    """The sampled-equivalence digests of ``test_sampling.py``."""
    from test_sampling import _regenerate_goldens

    _regenerate_goldens()


def regen_figures() -> None:
    """Every figure's pinned rows, for ``test_experiments.py``."""
    from test_experiments import _regenerate_figures_golden

    _regenerate_figures_golden()


def regen_cag_queries() -> None:
    """The finished-CAG query digests of ``test_cag_queries.py``."""
    from test_cag_queries import _regenerate_golden

    _regenerate_golden()


REGENERATORS = {
    "rubis": regen_rubis,
    "pipeline": regen_pipeline,
    "sampling": regen_sampling,
    "figures": regen_figures,
    "cag_queries": regen_cag_queries,
}


def main(argv=None) -> int:
    targets = list(argv if argv is not None else sys.argv[1:]) or list(REGENERATORS)
    unknown = sorted(set(targets) - set(REGENERATORS))
    if unknown:
        print(
            f"unknown golden set(s): {', '.join(unknown)}; "
            f"choose from {', '.join(REGENERATORS)}",
            file=sys.stderr,
        )
        return 2
    for target in targets:
        print(f"== regenerating {target} goldens ==")
        REGENERATORS[target]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
