"""CLI surface: generation, pipelines, sequences, exit codes, determinism."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import figurate.partitions as partitions
import figurate.pipeline as pipeline
import figurate.triangulation as triangulation
from figurate.cli import build_parser, main
from figurate.lattice import parse_builtin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("options, name", [((), "cube:3"), (("--name", "X"), "X")])
def test_gen_cube(tmp_path, capsys, options, name):
    out = tmp_path / "cube3.json"
    code, _, _ = run(capsys, "gen", "cube", "3", *options, "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["name"] == name
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


def test_gen_rejects_an_argument_its_family_does_not_use(tmp_path, capsys):
    base = tmp_path / "square.json"
    run(capsys, "gen", "cube", "2", "--out", str(base))
    # the unused --base is refused before the file is opened
    code, out, err = run(capsys, "gen", "cube", "3", "--base", "/nonexistent")
    assert (code, out, err) == (2, "", "figurate: error: gen cube does not use --base /nonexistent\n")
    code, out, err = run(capsys, "gen", "pyramid", "3", "--base", str(base))
    assert (code, out, err) == (2, "", "figurate: error: gen pyramid does not use dimension 3\n")


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


@pytest.mark.parametrize("spec", ["cube:4", "cross:4"])
def test_the_three_load_paths_give_one_report(tmp_path, capsys, spec):
    # the facet planes are made on first use, by the load-time check of gen's
    # faces, and by the hull search of its vertices alone
    faces, bare = tmp_path / "faces.json", tmp_path / "bare.json"
    assert run(capsys, "gen", *spec.split(":"), "--out", str(faces))[0] == 0
    data = json.loads(faces.read_text())
    del data["faces"]
    bare.write_text(json.dumps(data))
    reports = [
        run(capsys, "pipeline", *source, "--summary")
        for source in (("--builtin", spec), ("--input", str(faces)), ("--input", str(bare)))
    ]
    assert reports[0][0] == 0 and reports[0] == reports[1] == reports[2]


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


@pytest.mark.parametrize("command", ["pipeline", "sequence"])
@pytest.mark.parametrize("n", ["10001", "-1"])
def test_n_outside_its_range_exits_2(capsys, command, n):
    code, out, err = run(capsys, command, "--builtin", "cube:2", "--n", n)
    assert (code, out, err) == (2, "", "figurate: error: --n must lie in [0, 10000]\n")


def test_sequence_h_method(capsys):
    code, out, _ = run(capsys, "sequence", "--builtin", "cube:3", "--method", "h", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [0, 1, 8, 27, 64, 125]
    assert data["h"] == [1, 4, 1, 0, 0]
    assert (data["polytope"], data["method"], data["interior"]) == ("cube:3", "h", False)


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


def test_calls_that_share_the_parser_print_the_bytes_of_a_fresh_process(capsys):
    # one parser serves every call in a process: no appended --builtin list,
    # --interior flag or default may carry over from an earlier call
    calls = [
        ("pipeline", "--builtin", "cube:2", "--builtin", "cross:3", "--n", "5", "--summary"),
        ("sequence", "--builtin", "cube:3", "--method", "simplex-sum", "--interior", "--n", "7"),
        ("pipeline", "--builtin", "simplex:2", "--n", "4"),
        ("sequence", "--builtin", "cross:3", "--method", "k", "--n", "6"),
        ("sequence", "--builtin", "cross:3", "--n", "6"),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "figurate.cli", *argv], capture_output=True, env=env)
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


TIE7 = str(Path(__file__).parent / "seed_tie7.json")


def test_sequence_bytes_do_not_depend_on_the_seed(capsys):
    # (1, M, M^2) ties two vertices of seed_tie7, the case the seed once decided
    outs = {run(capsys, "sequence", "--input", TIE7, "--n", "6", "--seed", seed)[1] for seed in ("0", "1", "3")}
    assert outs == {'{"polytope":"seed-tie7","method":"recursive","interior":false,'
                    '"h":[1,3,1,0,0],"k":[0,0,1,3,1],"values":[0,1,7,23,54,105,181]}\n'}


def test_pipeline_vectors_and_sequences_do_not_depend_on_the_seed(capsys):
    witnesses = []
    for seed in ("0", "1"):
        code, out, _ = run(capsys, "pipeline", "--input", TIE7, "--n", "8", "--seed", seed)
        assert code == 0
        witnesses.append([
            (r["claim"], r["witness"]) for r in map(json.loads, out.splitlines())
            if r["claim"] in ("h-from-partition-matches-f", "k-reverses-h", "h-top-vanishes",
                              "sequence-three-way", "interior-four-way")
        ])
    assert len(witnesses[0]) == 2 * 3 + 3
    assert witnesses[0] == witnesses[1]


def test_sequence_takes_one_polytope(capsys):
    code, out, err = run(capsys, "sequence", "--builtin", "cube:3", "--builtin", "cross:3")
    assert code == 2 and out == ""
    assert err == "figurate: error: sequence takes one polytope, got 2\n"


def test_sequence_method_k_requires_interior(capsys):
    code, _, err = run(capsys, "sequence", "--builtin", "cube:3", "--method", "k")
    assert code == 2 and "interior" in err


def test_unknown_builtin_family(capsys):
    code, _, err = run(capsys, "sequence", "--builtin", "dodecahedron:3")
    assert code == 2 and "unknown builtin" in err


@pytest.mark.parametrize("spec, level", [
    ("prism:cube:7", "prism:cube:7"),
    ("prism:prism:cube:7", "prism:cube:7"),
    ("bipyramid:cross:7", "bipyramid:cross:7"),
    ("pyramid:simplex:10", "pyramid:simplex:10"),
    ("pyramid:" * 1200 + "simplex:0", "pyramid:" * 11 + "simplex:0"),
])
def test_compound_builtin_past_the_face_cap_exits_2(capsys, spec, level):
    # the first level past 2188 faces, the cube:7 count, is named and never built
    code, out, err = run(capsys, "pipeline", "--builtin", spec)
    assert code == 2 and out == ""
    assert err.startswith(f"figurate: error: builtin {level} would have ")


def test_compound_builtins_up_to_the_face_cap_are_accepted():
    # prism:cube:6 and bipyramid:cross:6 have the faces of cube:7 and cross:7
    assert len(parse_builtin("prism:cube:6")) == 2188
    assert len(parse_builtin("bipyramid:cross:6")) == 2188
    assert len(parse_builtin("pyramid:simplex:9")) == 2048


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
    # the diagonals as faces, a triangle as a face, a crossed quadrilateral
    # whose diagonal supports nothing, and an edge that lists a vertex
    # twice: rejected at load, naming the face
    wrong = {
        "sqdiag": ([[0, 3], [1, 2]], "face [0, 3] has dimension 1, but the faces inside it grade it as 0"),
        "sqtri": ([[0, 1, 3]], "face [0, 1, 3] has dimension 2, but the faces inside it grade it as 0"),
        "sqbowtie": ([[0, 3], [1, 3], [1, 2], [0, 2]], "facet [0, 3] has vertices on both sides of its hyperplane"),
        "sqtwice": ([[0, 1], [0, 2], [1, 3, 1], [2, 3]], "face [1, 3, 1] lists vertex 1 more than once"),
    }
    for name, (faces, detail) in wrong.items():
        path = _square_with_faces(tmp_path, name, faces)
        code, out, err = run(capsys, "pipeline", "--input", path)
        assert code == 2 and out == ""
        assert err == f"figurate: error: faces of {name!r} are not a face lattice: {detail}\n"


def test_square_with_diagonals_and_vertices_exits_2(capsys):
    # the vertices are checked, but only the maximal faces generate the
    # lattice, so a diagonal grades as a vertex; CI runs the installed
    # console script on the same file
    path = str(Path(__file__).parent / "square_diagonals_and_vertices.json")
    code, out, err = run(capsys, "pipeline", "--input", path)
    assert code == 2 and out == ""
    assert err == (
        "figurate: error: faces of 'square-diagonals' are not a face lattice: "
        "face [0, 3] has dimension 1, but the faces inside it grade it as 0\n"
    )


@pytest.mark.parametrize("command", ["pipeline", "sequence"])
def test_zero_denominator_exits_2(tmp_path, capsys, command):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == ""
    assert err == "figurate: error: cannot interpret '1/0' as a rational\n"


@pytest.mark.parametrize("argv", [["pipeline"], ["sequence", "--interior"]])
def test_point_polytope_exits_2(capsys, argv):
    # on a point the sequence methods disagree, so neither command takes one
    code, out, err = run(capsys, *argv, "--builtin", "simplex:0")
    assert code == 2 and out == ""
    assert err == "figurate: error: the verification pipeline needs a polytope of dimension >= 1\n"


_FORCED = "construction violated pointedness condition 3: forced"


@pytest.fixture
def failing_construction(monkeypatch):
    def failing(lattice, apexes, carried, simplices):
        raise triangulation.GenericityError(_FORCED)

    monkeypatch.setattr(triangulation, "_verify_complex", failing)


def test_stage_failure_is_a_failed_pipeline_record(failing_construction, capsys):
    code, out, err = run(capsys, "pipeline", "--builtin", "cube:2")
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "record": "claim", "claim": "pipeline-stage", "polytope": "cube:2",
        "params": {"seed": 0, "n_max": 15}, "pass": False, "counterexample": {"error": _FORCED},
    }


def test_no_generic_point_is_a_failed_pipeline_record(monkeypatch, capsys):
    def never_generic(tri, hx):
        raise triangulation.GenericityError("forced")

    monkeypatch.setattr(partitions, "exterior_lower_sets", never_generic)
    code, out, err = run(capsys, "pipeline", "--builtin", "square")
    assert code == 1 and err == ""
    assert json.loads(out) == _failed_stage("cube:2", "could not find a generic point")


def test_stage_failure_of_sequence_exits_1(failing_construction, capsys):
    code, out, err = run(capsys, "sequence", "--builtin", "cube:2")
    assert code == 1 and out == ""
    assert err == f"figurate: error: {_FORCED}\n"


def _second_polytope_fails(monkeypatch, capsys, name, corrupt):
    """Run cube:2 and cube:3 with ``pipeline.<name>`` corrupted on the second
    polytope only; returns (exit code, cube:2 records, cube:3 records)."""
    original = getattr(pipeline, name)
    seen = []

    def corrupted(*args):
        seen.append(args)
        return original(*(corrupt(*args) if len(seen) > 1 else args))

    monkeypatch.setattr(pipeline, name, corrupted)
    code = main(["pipeline", "--builtin", "cube:2", "--builtin", "cube:3", "--summary"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(seen) == 2
    return code, [r for r in records if r.get("polytope") == "cube:2"], [r for r in records if r.get("polytope") == "cube:3"]


def _failed_stage(polytope, error):
    return {
        "record": "claim", "claim": "pipeline-stage", "polytope": polytope,
        "params": {"seed": 0, "n_max": 15}, "pass": False, "counterexample": {"error": error},
    }


def test_a_failed_link_is_a_failed_stage_that_keeps_the_other_records(monkeypatch, capsys):
    # the apex link of cube:3 is asked of a vertex outside its complex
    code, square, cube = _second_polytope_fails(monkeypatch, capsys, "link", lambda v, complex_: (99, complex_))
    assert code == 1
    assert len(square) == 22 and all(r["pass"] for r in square)
    assert cube == [_failed_stage("cube:3", "vertex 99 is not in the complex")]


def test_a_failed_e_vector_is_a_failed_stage_that_keeps_the_other_records(monkeypatch, capsys):
    # the interior complex of cube:3 is handed over with the empty simplex
    code, square, cube = _second_polytope_fails(monkeypatch, capsys, "e_vector", lambda interior, dim: (interior | {0}, dim))
    assert code == 1
    assert len(square) == 22 and all(r["pass"] for r in square)
    assert cube == [_failed_stage("cube:3", "an interior complex cannot contain the empty simplex")]


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


def test_sequence_runs_the_vector_cross_checks(monkeypatch, capsys):
    # an h-vector that disagrees with the partitions fails the first check
    monkeypatch.setattr(pipeline, "h_from_f", lambda f: (1,) * len(f))
    code, out, err = run(capsys, "sequence", "--builtin", "cube:2", "--method", "h")
    assert code == 1 and out == ""
    assert err == (
        "figurate: error: claim h-from-partition-matches-f failed: "
        '{"from_partition": [1, 1, 0, 0], "from_f": [1, 1, 1, 1]}\n'
    )


@pytest.mark.parametrize("data, detail", [
    ({"vertices": [1, 2]}, "polytope JSON 'vertices' must be a list of coordinate lists"),
    ({"vertices": None}, "polytope JSON 'vertices' must be a list of coordinate lists"),
    (None, "polytope JSON must be an object"),
    ({"vertices": [[True, "0"], ["1", "0"], ["0", "1"]]}, "cannot interpret True as a rational"),
    ({"name": ["x"], "vertices": _SQUARE}, "polytope JSON 'name' must be a string"),
])
def test_malformed_polytope_json_exits_2(tmp_path, capsys, data, detail):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "pipeline", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"figurate: error: {detail}\n"


def _not_rational(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


# JSON values that are no rational coordinate, no vertex list and no name
_BAD_COORDINATE = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4).filter(_not_rational),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NO_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NO_STRING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.text(max_size=2), max_size=2))


@st.composite
def malformed_polytopes(draw):
    """A valid square object with exactly one part broken, or no object at all.

    Broken parts include empty coordinate lists, mixed ambient dimensions and
    duplicate points, which ``polytope_from_vertices`` rejects by name.
    """
    vertices = [list(v) for v in _SQUARE]
    kind = draw(st.sampled_from(
        ["top", "vertices", "vertex", "coordinate", "name", "empty", "mixed", "duplicate"]
    ))
    i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    if kind == "top":
        return draw(st.one_of(_NO_LIST, st.lists(st.integers(), max_size=3)))
    if kind == "vertices":
        return {"vertices": draw(_NO_LIST)}
    if kind == "vertex":
        vertices[i] = draw(_NO_LIST)
    elif kind == "empty":  # no vertex, only empty coordinate lists, or one among the square's
        if draw(st.booleans()):
            vertices = [[] for _ in range(draw(st.integers(0, 4)))]
        else:
            vertices[i] = []
    elif kind == "mixed":  # one vertex loses or gains a coordinate
        vertices[i] = vertices[i][:1] if draw(st.booleans()) else vertices[i] + ["0"]
    elif kind == "duplicate":  # a vertex repeated, in place of another or added
        if draw(st.booleans()):
            vertices[j] = list(vertices[i])
        else:
            vertices.append(list(vertices[i]))
    elif kind == "coordinate":
        vertices[i][draw(st.integers(0, 1))] = draw(_BAD_COORDINATE)
    else:
        return {"name": draw(_NO_STRING), "vertices": vertices}
    return {"vertices": vertices}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_polytopes())
def test_malformed_polytope_json_never_tracebacks(tmp_path, capsys, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    for argv in (["pipeline", "--input", str(path)], ["sequence", "--input", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("figurate: error: ") and err.count("\n") == 1, err
