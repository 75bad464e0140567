"""The cheap lines of ``tests/fingerprint.py`` against the committed
``tests/fingerprint.txt``: the basis line and the three 20x20 lines."""

from pathlib import Path

import fingerprint


def test_basis_and_20x20_lines_match_the_committed_file():
    committed = Path(__file__).with_name("fingerprint.txt").read_text()
    expected = [line for line in committed.splitlines()
                if line.split()[0] in ("basis", "20x20")]
    assert len(expected) == 4
    assert list(fingerprint.lines((20,))) == expected
