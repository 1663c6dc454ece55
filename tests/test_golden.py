"""Golden reports: the exact bytes of two CLI reports, pinned by sha256.

Any change to claims, witnesses, generic points or sequence values changes
these digests. Update them only for a deliberate change of the report.
"""
import hashlib

import pytest

from figurate.cli import main

GOLDEN = {
    "pipeline --builtin cube:3 --builtin cross:3 --builtin pyramid:square --summary":
        "daae3076cb6d2e5dce24b157f34954e1e83ddea8b800ea5b9b65cd7d7512b0bb",
    "sequence --builtin cube:3 --interior --method k --n 50":
        "8ee8669bca72c94e02a1ee3a6cced9e9c5d7607bf626fc28dd1248f2f3994821",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_are_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
