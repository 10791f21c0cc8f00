"""Command-line surface: verbs, schemas, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from posetassoc import chain, complete_graded
from posetassoc.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def poset_file(tmp_path):
    def write(P, name="poset.json"):
        path = tmp_path / name
        path.write_text(P.to_json(), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def tubing_file(tmp_path):
    def write(tubes, name="tubing.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"tubes": tubes}), encoding="utf-8")
        return str(path)

    return write


class TestFVector:
    def test_graded_flag(self, capsys):
        code, data = invoke_json(capsys, "fvector", "--graded", "1,2,2")
        assert code == 0
        assert data == {"schema_version": 1, "f": [24, 36, 14, 1]}

    def test_permutation_invariance(self, capsys):
        _, first = invoke(capsys, "fvector", "--graded", "1,2,2")
        _, second = invoke(capsys, "fvector", "--graded", "2,1,2")
        assert first == second

    def test_graded_source_form(self, capsys):
        code, data = invoke_json(capsys, "fvector", "graded:2,2")
        assert code == 0 and data["f"] == [8, 8, 1]

    def test_file_source(self, capsys, poset_file):
        code, data = invoke_json(capsys, "fvector", poset_file(chain(4)))
        assert code == 0 and data["f"] == [5, 5, 1]

    def test_disconnected_is_domain_error(self, capsys, poset_file):
        from posetassoc import antichain

        code, data = invoke_json(capsys, "fvector", poset_file(antichain(3)))
        assert code == 1
        assert data["error"] == "DisconnectedPoset"

    def test_missing_file(self, capsys, tmp_path):
        code, data = invoke_json(capsys, "fvector", str(tmp_path / "nope.json"))
        assert code == 1 and data["error"] == "MalformedInput"

    def test_deterministic_bytes(self, capsys):
        _, first = invoke(capsys, "fvector", "--graded", "2,1,2")
        _, second = invoke(capsys, "fvector", "--graded", "2,1,2")
        assert first == second

    def test_csv(self, capsys):
        code, out = invoke(capsys, "--format", "csv", "fvector", "--graded", "1,1,1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "schema_version,1"
        assert lines[1] == "f_0,f_1,f_2"
        assert lines[2] == "5,5,1"

    def test_eleven_chain_has_catalan_vertices(self, capsys, poset_file):
        code, data = invoke_json(capsys, "fvector", poset_file(chain(11)))
        assert code == 0
        assert data["f"][0] == 16796  # Catalan(10)
        assert data["f"][-1] == 1


class TestHVector:
    def test_pentagon(self, capsys):
        code, data = invoke_json(capsys, "hvector", "graded:1,1,1,1")
        assert code == 0 and data["h"] == [1, 3, 1]


class TestTubes:
    def test_four_chain(self, capsys, poset_file):
        code, data = invoke_json(capsys, "tubes", poset_file(chain(4)))
        assert code == 0
        assert data["tubes"] == [
            ["a", "b"],
            ["b", "c"],
            ["c", "d"],
            ["a", "b", "c"],
            ["b", "c", "d"],
        ]

    def test_no_size_guard(self, capsys, poset_file):
        code, data = invoke_json(capsys, "tubes", poset_file(chain(13)))
        assert code == 0
        assert len(data["tubes"]) == sum(range(2, 13))

    def test_forty_chain(self, capsys, poset_file):
        # every interval of at least two elements except the whole chain
        code, data = invoke_json(capsys, "tubes", poset_file(chain(40)))
        assert code == 0
        assert len(data["tubes"]) == 40 * 39 // 2 - 1


class TestTubings:
    def test_three_chain(self, capsys, poset_file):
        code, data = invoke_json(capsys, "tubings", poset_file(chain(3)))
        assert code == 0
        assert data["tubings"] == [[], [["a", "b"]], [["b", "c"]]]

    def test_count_only(self, capsys):
        code, data = invoke_json(capsys, "tubings", "graded:1,1,1,1", "--count-only")
        assert code == 0 and data["count"] == 11

    def test_size_guard(self, capsys, poset_file):
        code, data = invoke_json(capsys, "tubings", poset_file(chain(13)))
        assert code == 1 and data["error"] == "PosetTooLarge"

    def test_output_round_trips_as_tubing_files(self, capsys, poset_file, tmp_path):
        source = poset_file(chain(4))
        _, data = invoke_json(capsys, "tubings", source)
        best = max(data["tubings"], key=len)
        tubing_path = tmp_path / "roundtrip.json"
        tubing_path.write_text(json.dumps({"tubes": best}), encoding="utf-8")
        code, echoed = invoke_json(
            capsys, "decompose", source, "--subset", "a,b,c,d",
            "--tubing", str(tubing_path),
        )
        assert code == 0 and "M" in echoed


class TestMaximal:
    def test_pentagon_vertices(self, capsys):
        code, data = invoke_json(capsys, "maximal", "graded:1,1,1,1")
        assert code == 0
        assert len(data["tubings"]) == 5
        assert all(len(t) == 2 for t in data["tubings"])


class TestDecomposeAndFlipMap:
    def test_decompose_worked_example(self, capsys, poset_file, tubing_file):
        source = poset_file(chain(3))
        tubing = tubing_file([["a", "b"]])
        code, data = invoke_json(
            capsys, "decompose", source, "--subset", "b,c", "--tubing", tubing
        )
        assert code == 0
        assert data == {
            "schema_version": 1,
            "L": [{"set": ["a"], "star": True}],
            "M": [["b"], ["c"]],
            "U": [],
        }

    def test_flip_map_worked_example(self, capsys, poset_file, tubing_file):
        source = poset_file(chain(3))
        tubing = tubing_file([["a", "b"]])
        code, data = invoke_json(
            capsys, "flip-map", source, "--subset", "b,c", "--tubing", tubing
        )
        assert code == 0
        assert data["tubing"] == [["a", "c"]]
        relations = {tuple(r) for r in data["poset"]["relations"]}
        assert relations == {("a", "c"), ("c", "b")}
        assert data["decomposition"]["M"] == [["c"], ["b"]]

    def test_not_autonomous(self, capsys, poset_file, tubing_file):
        code, data = invoke_json(
            capsys,
            "decompose",
            poset_file(chain(3)),
            "--subset",
            "a,c",
            "--tubing",
            tubing_file([]),
        )
        assert code == 1 and data["error"] == "NotAutonomous"

    def test_unknown_subset_label(self, capsys, poset_file, tubing_file):
        code, data = invoke_json(
            capsys,
            "decompose",
            poset_file(chain(3)),
            "--subset",
            "z",
            "--tubing",
            tubing_file([]),
        )
        assert code == 1 and data["error"] == "ElementNotFound"


class TestMalformedInput:
    def test_list_as_relation_endpoint(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text('{"elements": ["a", "b"], "relations": [[["a"], "b"]]}')
        code, data = invoke_json(capsys, "fvector", str(path))
        assert code == 1 and data["error"] == "MalformedInput"

    def test_deeply_nested_poset_file(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, data = invoke_json(capsys, "fvector", str(path))
        assert code == 1 and data["error"] == "MalformedInput"

    @pytest.mark.parametrize(
        "tubes",
        [
            5,  # not a list
            ["ab"],  # a string is not a list of labels
            [["a", "b"], ["b", "a"]],  # the same tube twice
        ],
    )
    def test_tubing_schema(self, capsys, poset_file, tubing_file, tubes):
        code, data = invoke_json(
            capsys, "decompose", poset_file(chain(3)),
            "--subset", "b,c", "--tubing", tubing_file(tubes),
        )
        assert code == 1 and data["error"] == "MalformedInput"

    def test_deeply_nested_tubing_file(self, capsys, poset_file, tmp_path):
        path = tmp_path / "tubing.json"
        path.write_text('{"tubes": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, data = invoke_json(
            capsys, "flip-map", poset_file(chain(3)),
            "--subset", "b,c", "--tubing", str(path),
        )
        assert code == 1 and data["error"] == "MalformedInput"


class TestCheckInvariance:
    def test_graded_report(self, capsys):
        code, data = invoke_json(capsys, "check-invariance", "--graded", "1,2,2")
        assert code == 0
        assert data["f"] == [24, 36, 14, 1]
        assert len(data["results"]) > 0
        for entry in data["results"]:
            assert entry["f_preserved"] is True
            assert entry["roundtrip_ok"] is True
        subsets = [tuple(r["subset"]) for r in data["results"]]
        assert ("x2_1", "x2_2") in subsets
        assert tuple(sorted(complete_graded((1, 2, 2)).labels)) in subsets


class TestEquiv:
    def test_against_permutohedron(self, capsys):
        code, data = invoke_json(
            capsys, "equiv", "graded:2,1,2", "--permutohedron", "4"
        )
        assert code == 0 and data["equivalent"] is True

    def test_negative_case(self, capsys):
        code, data = invoke_json(
            capsys, "equiv", "graded:1,2,2", "--permutohedron", "4"
        )
        assert code == 0 and data["equivalent"] is False

    def test_two_posets(self, capsys, poset_file):
        code, data = invoke_json(
            capsys, "equiv", poset_file(chain(4)), "graded:2,2"
        )
        assert code == 0 and data["equivalent"] is False

    def test_usage_error_when_both_targets(self, capsys, poset_file):
        with pytest.raises(SystemExit) as err:
            run(["equiv", "graded:2,2", "graded:2,2", "--permutohedron", "4"])
        assert err.value.code == 2


class TestPolygons:
    def test_octagon_shows_up(self, capsys):
        code, data = invoke_json(capsys, "polygons", "graded:1,2,2")
        assert code == 0
        sizes = {size for size, _ in data["polygons"]}
        assert 8 in sizes

    def test_saturated_middle(self, capsys):
        code, data = invoke_json(capsys, "polygons", "graded:2,1,2")
        assert code == 0
        assert {size for size, _ in data["polygons"]} <= {4, 6}


class TestFlipSeq:
    def test_one_step(self, capsys):
        code, data = invoke_json(capsys, "flip-seq", "graded:1,2", "graded:2,1")
        assert code == 0
        assert data["reason"] is None
        assert data["steps"] == [["x1_1", "x2_1", "x2_2"]]
        assert len(data["witness"]) == 3

    def test_graphs_differ(self, capsys, poset_file):
        code, data = invoke_json(
            capsys, "flip-seq", poset_file(chain(3)), "graded:1,2"
        )
        assert code == 0
        assert data["steps"] is None and data["reason"] == "GraphsDiffer"

    def test_depth_limit(self, capsys):
        code, data = invoke_json(
            capsys, "flip-seq", "graded:1,2", "graded:2,1", "--max-depth", "0"
        )
        assert code == 0 and data["reason"] == "DepthExhausted"

    @pytest.mark.parametrize("depth", ["-3", "two"])
    def test_bad_depth_is_usage_error(self, capsys, depth):
        with pytest.raises(SystemExit) as err:
            run(["flip-seq", "graded:1,2", "graded:2,1", "--max-depth", depth])
        assert err.value.code == 2
        assert "--max-depth" in capsys.readouterr().err


class TestUsage:
    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2

    def test_missing_poset_source(self):
        with pytest.raises(SystemExit) as err:
            run(["fvector"])
        assert err.value.code == 2

    def test_two_poset_sources(self):
        with pytest.raises(SystemExit) as err:
            run(["fvector", "graded:2,2", "--graded", "2,2"])
        assert err.value.code == 2

    def test_bad_graded_list(self):
        with pytest.raises(SystemExit) as err:
            run(["fvector", "--graded", "two,2"])
        assert err.value.code == 2

    def test_nonpositive_part_is_domain_error(self, capsys):
        code, data = invoke_json(capsys, "fvector", "--graded", "0,2")
        assert code == 1 and data["error"] == "MalformedInput"


class TestSchemaVersion:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fvector", "--graded", "2,2"],
            ["hvector", "--graded", "2,2"],
            ["tubes", "graded:2,2"],
            ["tubings", "graded:2,2"],
            ["maximal", "graded:2,2"],
            ["check-invariance", "graded:2,2"],
            ["equiv", "graded:2,2", "--permutohedron", "4"],
            ["polygons", "graded:2,2"],
            ["flip-seq", "graded:1,2", "graded:2,1"],
        ],
    )
    def test_every_verb_carries_it(self, capsys, argv):
        code, data = invoke_json(capsys, *argv)
        assert code == 0 and data["schema_version"] == 1

    def test_error_objects_carry_it_too(self, capsys):
        code, data = invoke_json(capsys, "fvector", "graded:3")
        assert code == 1 and data["schema_version"] == 1
        assert data["error"] == "DisconnectedPoset"

    def test_errors_are_one_line(self, capsys):
        _, out = invoke(capsys, "fvector", "graded:3")
        assert out.count("\n") == 1 and out.endswith("\n")
