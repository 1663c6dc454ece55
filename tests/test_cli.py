"""CLI surface: generation, pipelines, sequences, exit codes, determinism."""
import json
from pathlib import Path

import pytest

from figurate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cube(tmp_path, capsys):
    out = tmp_path / "cube3.json"
    code, _, _ = run(capsys, "gen", "cube", "3", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["name"] == "cube:3"
    assert len(data["vertices"]) == 8
    assert all(isinstance(c, str) for v in data["vertices"] for c in v)


def test_gen_cross_4_facets(capsys):
    code, out, _ = run(capsys, "gen", "cross", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 8
    assert sum(1 for f in data["faces"] if len(f) == 4) == 16


def test_gen_pyramid_from_base(tmp_path, capsys):
    base = tmp_path / "square.json"
    run(capsys, "gen", "cube", "2", "--out", str(base))
    code, out, _ = run(capsys, "gen", "pyramid", "--base", str(base))
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 5


def test_gen_usage_errors(capsys):
    code, _, err = run(capsys, "gen", "cube")
    assert code == 2 and "dimension" in err
    code, _, err = run(capsys, "gen", "pyramid")
    assert code == 2 and "--base" in err


def test_pipeline_passes_and_reports(capsys):
    code, out, _ = run(capsys, "pipeline", "--builtin", "cube:3", "--n", "12", "--summary")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["record"] == "summary"
    assert records[-1]["failed"] == []
    claims = [r for r in records if r["record"] == "claim"]
    assert all(r["pass"] for r in claims)
    three_way = next(r for r in claims if r["claim"] == "sequence-three-way")
    assert three_way["witness"]["h"] == [1, 4, 1, 0, 0]
    assert three_way["witness"]["values"][:5] == [0, 1, 8, 27, 64]


def test_pipeline_reports_are_byte_identical(capsys):
    args = ("pipeline", "--builtin", "cross:3", "--builtin", "cube:2", "--n", "9", "--seed", "3", "--summary")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_pipeline_from_input_file(tmp_path, capsys):
    path = tmp_path / "bipyr.json"
    base = tmp_path / "sq.json"
    run(capsys, "gen", "cube", "2", "--out", str(base))
    run(capsys, "gen", "bipyramid", "--base", str(base), "--out", str(path))
    code, out, _ = run(capsys, "pipeline", "--input", str(path), "--n", "8")
    assert code == 0
    assert all(json.loads(line)["pass"] for line in out.strip().splitlines())


def test_pipeline_without_polytope_is_usage_error(capsys):
    code, _, err = run(capsys, "pipeline", "--n", "5")
    assert code == 2 and "no polytope" in err


def test_pipeline_rejects_huge_n(capsys):
    code, _, err = run(capsys, "pipeline", "--builtin", "cube:2", "--n", "10001")
    assert code == 2 and "10000" in err


def test_sequence_h_method(capsys):
    code, out, _ = run(capsys, "sequence", "--builtin", "cube:3", "--method", "h", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [0, 1, 8, 27, 64, 125]
    assert data["h"] == [1, 4, 1, 0, 0]
    assert data["interior"] is False


def test_sequence_interior_clamps_at_small_n(capsys):
    code, out, _ = run(capsys, "sequence", "--builtin", "cube:3", "--interior", "--method", "k", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [0, 0, 0, 1, 8, 27]
    assert data["k"] == [0, 0, 1, 4, 1]


def test_sequence_methods_agree_byte_for_byte(capsys):
    _, out_rec, _ = run(capsys, "sequence", "--builtin", "cross:3", "--method", "recursive", "--n", "9")
    _, out_h, _ = run(capsys, "sequence", "--builtin", "cross:3", "--method", "h", "--n", "9")
    values_rec = json.dumps(json.loads(out_rec)["values"])
    values_h = json.dumps(json.loads(out_h)["values"])
    assert values_rec == values_h


def test_sequence_method_k_requires_interior(capsys):
    code, _, err = run(capsys, "sequence", "--builtin", "cube:3", "--method", "k")
    assert code == 2 and "interior" in err


def test_unknown_builtin_family(capsys):
    code, _, err = run(capsys, "sequence", "--builtin", "dodecahedron:3")
    assert code == 2 and "unknown builtin" in err


def test_bad_input_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "pipeline", "--input", str(path))
    assert code == 2


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "pipeline", "--input", "/nonexistent/p.json")
    assert code == 2


def test_argparse_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "--builtin", "cube:3", "--method", "nonsense"])
    assert exc.value.code == 2


_SQUARE = [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]


def _square_with_faces(tmp_path, name, faces):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "vertices": _SQUARE, "faces": faces}))
    return str(path)


def test_wrong_faces_square_exit_codes(tmp_path, capsys):
    # the diagonals as faces, and a triangle as a face: rejected at load
    # under both profiles, naming the face
    wrong = {
        "sqdiag": ([[0, 3], [1, 2]], "face [0, 3] has dimension 1, but the faces inside it grade it as 0"),
        "sqtri": ([[0, 1, 3]], "face [0, 1, 3] has dimension 2, but the faces inside it grade it as 0"),
    }
    for name, (faces, detail) in wrong.items():
        path = _square_with_faces(tmp_path, name, faces)
        for profile in ("debug", "release"):
            code, out, err = run(capsys, "pipeline", "--input", path, "--profile", profile)
            assert code == 2 and out == ""
            assert err == f"figurate: error: faces of {name!r} are not a face lattice: {detail}\n"


def test_square_with_diagonals_and_vertices_exits_2(capsys):
    # graded right, but a diagonal has vertices of the square on both sides;
    # CI runs the installed console script on the same file
    path = str(Path(__file__).parent / "square_diagonals_and_vertices.json")
    for profile in ("debug", "release"):
        code, out, err = run(capsys, "pipeline", "--input", path, "--profile", profile)
        assert code == 2 and out == ""
        assert err == (
            "figurate: error: faces of 'square-diagonals' are not a face lattice: "
            "facet [0, 3] has vertices on both sides of its hyperplane\n"
        )


def test_face_index_out_of_range_exits_2(tmp_path, capsys):
    path = _square_with_faces(tmp_path, "sqbig", [[0, 1], [1, 5]])
    code, out, err = run(capsys, "pipeline", "--input", path)
    assert code == 2 and out == ""
    assert err == "figurate: error: face [1, 5] of 'sqbig' must list vertex indices in [0, 3]\n"


def test_negative_face_index_exits_2(tmp_path, capsys):
    path = _square_with_faces(tmp_path, "sqneg", [[0, -1]])
    code, out, err = run(capsys, "pipeline", "--input", path)
    assert code == 2 and out == ""
    assert err == "figurate: error: face [0, -1] of 'sqneg' must list vertex indices in [0, 3]\n"
