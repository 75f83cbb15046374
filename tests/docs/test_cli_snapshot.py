"""``docs/cli.md`` must match the live argparse definitions.

The reference is regenerated in memory by
:func:`repro.api.cli.help_snapshot` (80-column pinned) and compared to
the checked-in file, so a flag change cannot land without its
documentation.  argparse help layout differs across Python minor
versions (3.9 prints ``optional arguments:``, 3.10+ ``options:``), so
the byte comparison only runs under the version CI pins.
"""

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CLI_DOC = os.path.join(REPO_ROOT, "docs", "cli.md")

SNAPSHOT_PYTHON = (3, 11)


def test_snapshot_covers_every_subcommand():
    """Version-independent floor: each documented section exists."""
    from repro.api.cli import help_snapshot

    snapshot = help_snapshot()
    for section in ("## `repro-bench`", "## `repro-bench sweep run`",
                    "## `repro-bench trace export`",
                    "## `repro-bench fuzz run`",
                    "## `repro-bench store prune`",
                    "## `repro-bench store verify`"):
        assert section in snapshot, f"help snapshot lost {section}"


@pytest.mark.skipif(sys.version_info[:2] != SNAPSHOT_PYTHON,
                    reason="argparse help text differs across Python "
                           "minor versions; docs/cli.md is pinned to "
                           f"{'.'.join(map(str, SNAPSHOT_PYTHON))}")
def test_checked_in_cli_reference_is_current():
    from repro.api.cli import help_snapshot

    with open(CLI_DOC, encoding="utf-8") as handle:
        checked_in = handle.read()
    assert checked_in == help_snapshot(), (
        "docs/cli.md is stale; regenerate with "
        "PYTHONPATH=src python -c \"from repro.api.cli import "
        "write_help_snapshot; write_help_snapshot('docs/cli.md')\""
    )
