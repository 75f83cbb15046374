"""Every ``repro-bench`` command the docs show must parse.

Commands in the code fences of README.md, ``docs/*.md`` (except the
generated ``docs/cli.md``) and the verify skill go through the live
argparse definitions, so a retired subcommand or flag cannot linger in
an example.  Comments, ``\\`` continuations and ``...`` placeholders are
stripped; ``python -m repro.api.cli`` counts as ``repro-bench``.
Nothing runs: parsing is the whole check.
"""

import os
import re
import shlex

import pytest

from repro.api.cli import _build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: A fenced block, indented or not (the skill's fences sit in a list).
FENCE_RE = re.compile(r"^[ \t]*```[^\n]*\n(.*?)^[ \t]*```",
                      re.MULTILINE | re.DOTALL)


def _sources():
    docs = sorted(f"docs/{name}"
                  for name in os.listdir(os.path.join(REPO_ROOT, "docs"))
                  if name.endswith(".md") and name != "cli.md")
    return ["README.md", *docs, ".claude/skills/verify/SKILL.md"]


def _commands(source):
    """The argument lists of every CLI command in ``source``'s fences."""
    with open(os.path.join(REPO_ROOT, source), encoding="utf-8") as handle:
        text = handle.read()
    for block in FENCE_RE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            if "repro-bench" not in line and "repro.api.cli" not in line:
                continue
            words = shlex.split(line, comments=True)
            for i, word in enumerate(words):
                if word == "repro-bench":
                    start = i + 1
                elif word == "repro.api.cli" and words[i - 1] == "-m":
                    start = i + 1
                else:
                    continue
                yield [w for w in words[start:] if w != "..."]
                break


@pytest.mark.parametrize("source", _sources())
def test_documented_commands_parse(source, capsys):
    parser = _build_parser()
    bad = []
    for argv in _commands(source):
        try:
            parser.parse_args(argv)
        except SystemExit:
            bad.append(f"repro-bench {shlex.join(argv)}: "
                       f"{capsys.readouterr().err.strip().splitlines()[-1]}")
    assert not bad, "\n".join(bad)


def test_the_docs_show_commands_at_all():
    """A floor, so a broken extractor cannot pass by finding nothing."""
    found = sum(1 for source in _sources() for _ in _commands(source))
    assert found >= 25
