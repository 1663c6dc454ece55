"""Golden reports: the exact bytes of CLI reports, pinned by sha256.

``sphere2_6.json`` gives six rational points on S^2 by coordinates only, so
its report comes through the hull search. ``cube3_in_q4.json`` is cube:3
under a rational affine map into Q^4, so its points are first put in
coordinates for their 3-dimensional hull. On ``seed_tie7.json`` the weights
(1, M, M^2) tie two vertices, so its apexes come from the tie-break of
``vertex_order``. cube:4 and bipyramid:cross:3 are 4-polytopes with 24 and 8
maximal simplices. cube:5 + cross:5 and simplex:9 + pyramid:simplex:8 are
the ``verify-dense`` and ``verify-highdim`` benchmark invocations, and
``gen cross 5`` pins the face order of ``polytope_to_json``.
cube:6 has 18,732 simplices and 720 maximal ones, the largest complex pinned.
Any change to claims, witnesses, generic points, sequence values or face order
changes these digests. Update them only for a deliberate change of the report.
"""
import hashlib
from pathlib import Path

import pytest

from figurate.cli import main

GOLDEN = {
    "pipeline --builtin cube:3 --builtin cross:3 --builtin pyramid:square --summary":
        "daae3076cb6d2e5dce24b157f34954e1e83ddea8b800ea5b9b65cd7d7512b0bb",
    "sequence --builtin cube:3 --interior --method k --n 50":
        "8ee8669bca72c94e02a1ee3a6cced9e9c5d7607bf626fc28dd1248f2f3994821",
    "pipeline --input sphere2_6.json --summary":
        "3bc4cc5a99f3f67a3d90c020f9e540d1655d4d0dff3a13fb17ab0c294f4e3838",
    "pipeline --input cube3_in_q4.json --summary":
        "4467f01825bbc0948328526a1517130b0c3277cc2cc8ffabe6561dfcbab39ddc",
    "pipeline --input seed_tie7.json --summary":
        "386c2d0ccc7cfb1ee0fc917bb95972cda06cd3962a9a2ff1ea115d55f8024c96",
    "sequence --builtin cross:4 --method recursive --n 300":
        "83f6d42fad46c76294a0bbdbb55b015a7088b0d19f9b39f8cf597998cfdf5a3b",
    "sequence --builtin cross:4 --method recursive --n 300 --interior":
        "ff937f4ae0147bc978f8e4d8fc9119614a4ee4c5d35b7fb2964fbe952dff3ca9",
    "pipeline --builtin simplex:6 --builtin pyramid:simplex:5 --points 1 --summary":
        "6e685b6a33113d867a116922d013e69fc25c4135b171e87e01fa5da3f0ff0e55",
    "pipeline --builtin cube:4 --builtin bipyramid:cross:3 --points 1 --summary":
        "f5dcc36f09fda706ef4d90a68d2e6e67f466a5e960c3dcfdc7af89630fdd953b",
    "pipeline --builtin cube:5 --builtin cross:5 --summary":
        "80fc8bbfcd186f50e5574ff664107c2fd7b9aba4fc827355afd583a2bfb557d7",
    "pipeline --builtin simplex:9 --builtin pyramid:simplex:8 --points 1 --summary":
        "e3f7d1afbe558b093b30fbaafaa45f94fa61af1a5d6cb360a8a63f5e6733455c",
    "pipeline --builtin cube:6 --points 1 --summary":
        "1aaa1c06164291fb7810fda8c636d78fd5f6bfa611be89b3adbebdb9a3d276aa",
    "gen cross 5":
        "f8dcde399c6cd4d4e963dedd89851e8f8c913a9b0927f0dc480852e498a3ae5f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.chdir(Path(__file__).parent)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
