"""The golden table: the sha256 of every file a CLI golden writes.

``tests/data/goldens.json`` maps each golden's name to its ``argv`` and to
the digest of each file it writes, one entry per line.  An ``--input``
names a file of ``tests/data/``; every other path is relative to the
directory the command runs in, a fresh one per entry.  Every entry exits 0.
A change that moves output bytes edits the entries it moves; run one with
``pytest tests/test_goldens.py -k NAME``.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from lipderiv.cli import main

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
TABLE = json.loads((DATA / "goldens.json").read_text())

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("name", sorted(TABLE))
def test_golden(tmp_path, monkeypatch, name):
    entry = TABLE[name]
    argv = [str(DATA / arg) if flag == "--input" else arg
            for flag, arg in zip([None] + entry["argv"], entry["argv"])]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, name
    moved = []
    for file, want in entry["files"].items():
        got = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        if got != want:
            moved.append(f"{name}: {file}: got {got}, want {want}")
    assert not moved, "\n".join(moved)


DIGEST = re.compile(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])")


def test_every_digest_is_written_once():
    # a digest copied into a second test or into the CI workflow would let
    # the copies drift apart; the workflow runs this module instead
    root = TESTS.parent
    places = {}
    for path in [*sorted(TESTS.rglob("*.py")), DATA / "goldens.json",
                 *sorted((root / ".github" / "workflows").glob("*.yml"))]:
        for digest in DIGEST.findall(path.read_text()):
            places.setdefault(digest, []).append(
                path.relative_to(root).as_posix())
    twice = {d: p for d, p in places.items() if len(p) > 1}
    assert not twice
    in_workflow = {d: p for d, p in places.items()
                   if any(x.startswith(".github/") for x in p)}
    assert not in_workflow
