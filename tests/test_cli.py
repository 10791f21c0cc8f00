"""Command-line surface: verbs, schemas, determinism, exit codes."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetassoc
from posetassoc import DecoratedSequence, antichain, chain, cli, complete_graded, flips
from posetassoc.cli import SIZE_GUARD, run
from posetassoc.tubings import TubeComplex

from conftest import corpus, mask_check_invariance, seeded_poset


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

    @pytest.mark.parametrize("verb", ["decompose", "flip-map"])
    @pytest.mark.parametrize(
        "P, subset, error",
        [(antichain(3), "a,b", "DisconnectedPoset"), (chain(1), "a", "TooSmall")],
    )
    def test_no_associahedron(self, capsys, poset_file, tubing_file, verb, P, subset, error):
        # every tubing verb refuses a poset whose tubings form no polytope
        code, data = invoke_json(
            capsys, verb, poset_file(P), "--subset", subset, "--tubing", tubing_file([])
        )
        assert code == 1 and data["error"] == error


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

    @pytest.mark.parametrize("verb", ["decompose", "flip-map"])
    def test_tube_names_a_label_twice(self, capsys, tubing_file, verb):
        # read as a set, the tube would be the valid tube {x1_1, x2_1}
        code, data = invoke_json(
            capsys, verb, "graded:1,2,2", "--subset", "x2_1,x2_2",
            "--tubing", tubing_file([["x1_1", "x1_1", "x2_1"]]),
        )
        assert code == 1 and data["error"] == "MalformedInput"

    @pytest.mark.parametrize("verb", ["decompose", "flip-map"])
    def test_subset_names_a_label_twice(self, capsys, poset_file, tubing_file, verb):
        # read as a set, the subset would be the autonomous singleton {b}
        code, data = invoke_json(
            capsys, verb, poset_file(chain(3)),
            "--subset", "b,b", "--tubing", tubing_file([]),
        )
        assert code == 1 and data["error"] == "MalformedInput"
        assert data["message"] == "--subset names a label twice"

    @pytest.mark.parametrize("verb", ["decompose", "flip-map"])
    def test_subset_names_no_label(self, capsys, poset_file, tubing_file, verb):
        # read as a set, the subset would be the trivially autonomous empty set
        for text in (",", ""):
            code, data = invoke_json(
                capsys, verb, poset_file(chain(3)),
                "--subset", text, "--tubing", tubing_file([]),
            )
            assert code == 1 and data["error"] == "MalformedInput"
            assert data["message"] == "--subset names no label"

    def test_poset_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_bytes(b"\xff\xfe{")
        code, data = invoke_json(capsys, "fvector", str(path))
        assert code == 1 and data["error"] == "MalformedInput"
        assert data["message"] == f"cannot read poset file {str(path)!r}: not valid UTF-8"

    def test_tubing_file_not_utf8(self, capsys, poset_file, tmp_path):
        path = tmp_path / "tubing.json"
        path.write_bytes(b"\xff\xfe{")
        code, data = invoke_json(
            capsys, "decompose", poset_file(chain(3)),
            "--subset", "b,c", "--tubing", str(path),
        )
        assert code == 1 and data["error"] == "MalformedInput"
        assert data["message"] == f"cannot read tubing file {str(path)!r}: not valid UTF-8"

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

    def test_matches_the_mask_level_loop(self):
        # the verb flips the walk's tube-index bitsets; the oracle sends
        # every tubing through flip_tubings and back as masks
        posets = corpus(6) + [seeded_poset(seed, n)
                              for seed, n in [(1, 7), (2, 7), (3, 8), (4, 8)]]
        for P in posets:
            payload, _ = cli._cmd_check_invariance(P, None, None)
            assert payload == mask_check_invariance(P), P

    def test_flip_that_is_no_involution_is_internal_error(self, capsys, monkeypatch):
        # the flip back runs on the first poset's own tube table, so a
        # second flip that does not give the first poset back is a bug, exit 3
        real_flip = cli.flip
        calls = []

        def flip_away(P, subset):
            calls.append(subset)
            flipped = real_flip(P, subset)
            return flipped if len(calls) % 2 else chain(P.n)

        monkeypatch.setattr(cli, "flip", flip_away)
        code, out = invoke(capsys, "check-invariance", "graded:1,2,2")
        assert code == 3
        assert json.loads(out) == {
            "schema_version": 1,
            "error": "StructureViolation",
            "message": "flipping {x2_1, x2_2} twice does not give back the poset",
        }
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "first, second",
        [
            # crossing: the two tubes share x2_1 and neither holds the other
            (["x1_1", "x2_1"], ["x2_1", "x3_1"]),
            # a 2-cycle: disjoint, each holds an element below one of the other's
            (["x2_1", "x3_1"], ["x2_2", "x3_2"]),
        ],
    )
    def test_improper_walked_tubing_is_internal_error(self, capsys, monkeypatch,
                                                      first, second):
        # the walk's bitsets enter the flip engine unchecked, so an improper
        # one must fail an image check (a bug, exit 3), never pass a round trip
        P = complete_graded((1, 2, 2))
        real_walk = TubeComplex.walk

        def walk_then_improper(cx):
            yield from real_walk(cx)
            yield 1 << cx.find(P.mask_of(first)) | 1 << cx.find(P.mask_of(second))

        monkeypatch.setattr(TubeComplex, "walk", walk_then_improper)
        code, data = invoke_json(capsys, "check-invariance", "graded:1,2,2")
        assert code == 3 and data["error"] == "StructureViolation"


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

    def test_graded_131_is_a_permutohedron(self, capsys):
        code, out = invoke(capsys, "equiv", "graded:1,3,1", "--permutohedron", "4")
        assert code == 0
        assert '"equivalent": true' in out

    def test_usage_error_when_both_targets(self, capsys, poset_file):
        with pytest.raises(SystemExit) as err:
            run(["equiv", "graded:2,2", "graded:2,2", "--permutohedron", "4"])
        assert err.value.code == 2

    def test_usage_error_when_no_target(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["equiv", "graded:2,2"])
        assert err.value.code == 2
        assert "provide exactly one of a second poset or --permutohedron" in (
            capsys.readouterr().err
        )


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

    def test_missing_witness_is_internal_error(self, capsys, monkeypatch):
        # the comparability graphs still match, but the poset isomorphism
        # behind equal canonical forms goes missing: a bug, exit 3
        from posetassoc import comparability

        real = comparability.find_isomorphism
        calls = []

        def lose_poset_witness(*args):
            calls.append(args)
            return real(*args) if len(calls) == 1 else None

        monkeypatch.setattr(comparability, "find_isomorphism", lose_poset_witness)
        code, out = invoke(capsys, "flip-seq", "graded:1,2", "graded:2,1")
        assert code == 3
        assert json.loads(out) == {
            "schema_version": 1,
            "error": "StructureViolation",
            "message": "canonical forms match but no isomorphism was found",
        }
        assert len(calls) == 2

    def test_exhausted_class_is_internal_error(self, capsys, monkeypatch):
        # flips join every comparability class, so a search that runs out
        # of states is a bug, exit 3
        from posetassoc import comparability

        monkeypatch.setattr(comparability, "autonomous_subsets", lambda *args: [])
        code, out = invoke(capsys, "flip-seq", "graded:1,2", "graded:2,1")
        assert code == 3
        assert json.loads(out) == {
            "schema_version": 1,
            "error": "StructureViolation",
            "message": "comparability graphs match but no flip sequence was found",
        }

    @pytest.mark.parametrize("depth", ["-3", "two"])
    def test_bad_depth_is_usage_error(self, capsys, depth):
        # the search is complete, so there is no depth to bound: any
        # --max-depth is an unrecognized argument
        with pytest.raises(SystemExit) as err:
            run(["flip-seq", "graded:1,2", "graded:2,1", "--max-depth", depth])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert f"unrecognized arguments: --max-depth {depth}" in err_text


GUARD_TAIL = " the enumeration guard of 12; pass --force to proceed"


class TestSizeGuard:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fvector", "graded:6,7"], "13 elements exceed"),
            (["hvector", "graded:6,7"], "13 elements exceed"),
            (["tubings", "graded:6,7"], "13 elements exceed"),
            (["maximal", "graded:6,7"], "13 elements exceed"),
            (["check-invariance", "graded:6,7"], "13 elements exceed"),
            (["polygons", "graded:6,7"], "13 elements exceed"),
            (["equiv", "graded:6,7", "graded:2,2"], "13 elements exceed"),
            (["equiv", "graded:2,2", "graded:6,7"], "13 elements exceed"),
            (["equiv", "graded:2,2", "--permutohedron", "13"],
             "permutohedron on 13 letters exceeds"),
            (["flip-seq", "graded:6,7", "graded:2,2"], "13 elements exceed"),
            (["flip-seq", "graded:2,2", "graded:6,7"], "13 elements exceed"),
        ],
    )
    def test_guarded_verbs(self, capsys, argv, message):
        code, data = invoke_json(capsys, *argv)
        assert code == 1
        assert data == {
            "schema_version": 1,
            "error": "PosetTooLarge",
            "message": message + GUARD_TAIL,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["tubes", "graded:2,2"],
            ["decompose", "graded:2,2", "--subset", "x1_1", "--tubing", "t.json"],
            ["flip-map", "graded:2,2", "--subset", "x1_1", "--tubing", "t.json"],
        ],
    )
    def test_unguarded_verbs_reject_force(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run([*argv, "--force"])
        assert err.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err


class GradedBuilt(Exception):
    """complete_graded was asked for a poset above the guard."""


class TestGuardBeforeBuild:
    """A graded source above the guard is refused before the poset is built."""

    @pytest.fixture(autouse=True)
    def refuse_big_builds(self, monkeypatch):
        def build(parts):
            if min(parts) >= 1 and sum(parts) > SIZE_GUARD:
                raise GradedBuilt(parts)
            return complete_graded(parts)

        monkeypatch.setattr("posetassoc.cli.complete_graded", build)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fvector", "graded:6,7"], "13 elements exceed"),
            (["equiv", "graded:2,2", "graded:6,7"], "13 elements exceed"),
            (["tubings", "--graded", "7,7"], "14 elements exceed"),
            (["fvector", "graded:8000,8000"], "16000 elements exceed"),
            (["flip-seq", "graded:2,2", "graded:1,16,1"], "18 elements exceed"),
        ],
    )
    def test_refused_unbuilt(self, capsys, argv, message):
        code, data = invoke_json(capsys, *argv)
        assert code == 1
        assert data == {
            "schema_version": 1,
            "error": "PosetTooLarge",
            "message": message + GUARD_TAIL,
        }

    def test_force_still_builds(self):
        with pytest.raises(GradedBuilt):
            run(["fvector", "graded:6,7", "--force"])

    def test_force_builds_both_flip_seq_posets(self):
        with pytest.raises(GradedBuilt):
            run(["flip-seq", "graded:2,2", "graded:6,7", "--force"])

    @pytest.mark.parametrize("parts", ["-5,30", "0,20"])
    def test_nonpositive_part_is_not_too_large(self, capsys, parts):
        code, data = invoke_json(capsys, "fvector", f"graded:{parts}")
        assert code == 1 and data["error"] == "MalformedInput"


class IncidenceBuilt(Exception):
    """A tube complex, a facet graph or the claw graded(1, n - 1, 1) was built."""


class TestEquivFVectorsFirst:
    """equiv answers from the f-vectors alone when they differ.

    The permutohedron on 11 letters passes the size guard but has
    1,622,632,573 faces, so neither its claw nor any tube complex may be
    built.
    """

    @pytest.fixture(autouse=True)
    def refuse_incidences(self, monkeypatch):
        def build(*args):
            raise IncidenceBuilt(args)

        for name in ("TubeComplex", "_facet_graph", "complete_graded"):
            monkeypatch.setattr(f"posetassoc.lattice.{name}", build)

    def test_permutohedron_on_eleven_letters(self, capsys):
        code, data = invoke_json(capsys, "equiv", "graded:1,1", "--permutohedron", "11")
        assert code == 0 and data == {"schema_version": 1, "equivalent": False}

    def test_chain_against_graded(self, capsys, poset_file):
        code, data = invoke_json(capsys, "equiv", poset_file(chain(8)), "graded:2,2,2,2")
        assert code == 0 and data == {"schema_version": 1, "equivalent": False}

    def test_equal_f_vectors_build_the_incidences(self):
        with pytest.raises(IncidenceBuilt):
            run(["equiv", "graded:2,1,3", "--permutohedron", "5"])


class ClosureRun(Exception):
    """A relation above the guard was transitively closed."""


def chain_text(n: int, extra=()) -> str:
    labels = [f"e{i}" for i in range(n)]
    relations = [[a, b] for a, b in zip(labels, labels[1:])] + [list(p) for p in extra]
    return json.dumps({"elements": labels, "relations": relations})


class TestFileGuardBeforeClosure:
    """A poset file above the guard is refused before its relation is closed."""

    @pytest.fixture(autouse=True)
    def refuse_big_closures(self, monkeypatch):
        real = posetassoc.posets._transitive_closure

        def close(rows):
            if len(rows) > SIZE_GUARD:
                raise ClosureRun(len(rows))
            return real(rows)

        monkeypatch.setattr("posetassoc.posets._transitive_closure", close)

    @pytest.fixture
    def text_file(self, tmp_path):
        def write(text, name="poset.json"):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        return write

    @pytest.mark.parametrize(
        "verb", ["fvector", "hvector", "tubings", "maximal", "check-invariance", "polygons"]
    )
    def test_refused_unclosed(self, capsys, text_file, verb):
        code, data = invoke_json(capsys, verb, text_file(chain_text(13)))
        assert code == 1
        assert data == {
            "schema_version": 1,
            "error": "PosetTooLarge",
            "message": "13 elements exceed" + GUARD_TAIL,
        }

    def test_equiv_second_file(self, capsys, text_file):
        code, data = invoke_json(capsys, "equiv", "graded:2,2", text_file(chain_text(13)))
        assert code == 1 and data["error"] == "PosetTooLarge"

    def test_cycle_above_the_guard_is_too_large(self, capsys, text_file):
        code, data = invoke_json(
            capsys, "fvector", text_file(chain_text(13, [["e12", "e0"]]))
        )
        assert code == 1 and data["error"] == "PosetTooLarge"

    def test_cycle_within_the_guard(self, capsys, text_file):
        code, data = invoke_json(
            capsys, "fvector", text_file(chain_text(12, [["e11", "e0"]]))
        )
        assert code == 1 and data["error"] == "CyclicRelation"

    @pytest.mark.parametrize(
        "extra, error",
        [
            ([["e0", "zz"]], "UnknownElement"),
            ([["e0", 5]], "MalformedInput"),
        ],
    )
    def test_schema_errors_come_first(self, capsys, text_file, extra, error):
        code, data = invoke_json(capsys, "fvector", text_file(chain_text(13, extra)))
        assert code == 1 and data["error"] == error

    def test_duplicate_label_comes_first(self, capsys, text_file):
        text = json.dumps({"elements": ["e0"] * 13, "relations": []})
        code, data = invoke_json(capsys, "fvector", text_file(text))
        assert code == 1 and data["error"] == "DuplicateElement"

    def test_force_still_closes(self, text_file):
        with pytest.raises(ClosureRun):
            run(["fvector", text_file(chain_text(13)), "--force"])

    def test_unguarded_verb_still_closes(self, text_file):
        with pytest.raises(ClosureRun):
            run(["tubes", text_file(chain_text(13))])


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


class TestParserReuse:
    """``run`` reuses one parser, so each call must act as in a fresh process."""

    CALLS = (
        ("flip-seq", "graded:1,2", "graded:2,1", "--max-depth", "two"),  # usage error
        ("tubings", "graded:7,7"),  # domain error: past the size guard
        ("--format", "csv", "fvector", "--graded", "1,2,2"),  # success
    )

    @staticmethod
    def in_this_process(capsys, argv):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def in_a_fresh_process(argv):
        src = os.path.dirname(os.path.dirname(posetassoc.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from posetassoc.cli import main; sys.exit(main())",
             *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # argparse wraps its usage text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        got = [self.in_this_process(capsys, argv) for argv in self.CALLS]
        assert [code for code, _, _ in got] == [2, 1, 0]
        assert got == [self.in_a_fresh_process(argv) for argv in self.CALLS]


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


class TestFlipOutputPin:
    """Exact stdout bytes of the flip verbs, which no benchmark golden covers."""

    def test_check_invariance_and_flip_map_bytes(self, capsys, poset_file, tubing_file):
        from hashlib import sha256

        from posetassoc import autonomous_subsets, maximal_tubings, tubing_to_labels

        from conftest import corpus

        digest = sha256()
        for P in corpus(5):
            code, out = invoke(capsys, "check-invariance", poset_file(P))
            assert code == 0
            digest.update(out.encode())
        for P in (chain(3), complete_graded((1, 2, 2))):
            source = poset_file(P)
            for tubing in (frozenset(), maximal_tubings(P)[0]):
                tubes = tubing_file(tubing_to_labels(P, tubing))
                for subset in autonomous_subsets(P):
                    code, out = invoke(
                        capsys, "flip-map", source,
                        "--subset", ",".join(P.labels_of(subset)), "--tubing", tubes,
                    )
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == (
            "e5f585578af756af5436690c0dc513b7ef74991d4d545366233b1aaa9911fd16"
        )

    @pytest.mark.parametrize(
        "source, digest",
        [
            ("graded:2,3,2", "e5219a578b15ea77a7d976dab8f8b74e313b712e7d3f710a60dfa4cb572d8ea0"),
            ("graded:3,1,3", "44d1ff4e5875bc0619d222f728215fcddda611b35f5e437012f20a127c429e24"),
        ],
    )
    def test_check_invariance_bytes_at_seven_elements(self, capsys, source, digest):
        from hashlib import sha256

        code, out = invoke(capsys, "check-invariance", source)
        assert code == 0
        assert sha256(out.encode()).hexdigest() == digest


class TestInternalError:
    def test_invariant_failure_exits_3(self, capsys, monkeypatch):
        from posetassoc import StructureViolation

        def broken(P):
            raise StructureViolation("forced failure")

        monkeypatch.setattr("posetassoc.cli.f_vector", broken)
        code, out = invoke(capsys, "fvector", "--graded", "1,2,2")
        assert code == 3
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "schema_version": 1,
            "error": "StructureViolation",
            "message": "forced failure",
        }

    @pytest.mark.parametrize("verb", ["check-invariance", "flip-map", "decompose"])
    def test_malformed_engine_decomposition_exits_3(self, capsys, monkeypatch,
                                                   tubing_file, verb):
        # every decomposition is built from the chains of a proper tubing,
        # so a malformed one is a bug
        real_decorate = flips._decorate

        def drop_stars(subset, chain):
            seq, absorbed = real_decorate(subset, chain)
            return DecoratedSequence(seq.sets, (False,) * len(seq)), absorbed

        monkeypatch.setattr(flips, "_decorate", drop_stars)
        argv = ["check-invariance", "graded:1,2,2"]
        if verb != "check-invariance":
            argv = [verb, "graded:1,2,1", "--subset", "x2_1,x2_2",
                    "--tubing", tubing_file([["x1_1", "x2_1"]])]
        code, data = invoke_json(capsys, *argv)
        assert code == 3 and data["error"] == "StructureViolation"

    def test_only_bugs_are_internal(self):
        import posetassoc
        from posetassoc import DomainError, StructureViolation, errors

        # exit code 3 is keyed on StructureViolation alone: no other class
        # derives from it, and no separate base for internal errors exists
        assert issubclass(StructureViolation, DomainError)
        assert not hasattr(posetassoc, "InternalError")
        assert [c for c in vars(errors).values()
                if isinstance(c, type) and issubclass(c, StructureViolation)] == [StructureViolation]


def mostly(draw) -> bool:
    """True nine times in ten, and for hypothesis's simplest draw."""
    return draw(st.integers(0, 9)) < 9


class TestFuzz:
    """Random verbs, poset sources and flags: every call ends in a clean exit.

    Posets stay at 6 elements or fewer; the size guard admits far larger
    ones (graded(3,3,3,3) passes it, and its f-vector alone takes minutes).
    """

    VERBS = ("fvector", "hvector", "tubes", "tubings", "maximal", "decompose",
             "flip-map", "check-invariance", "equiv", "polygons", "flip-seq")
    LABELS = ("a", "b", "c", "d", "e", "f")
    # labels of the JSON posets, of small graded posets, and two of neither
    SUBSET_LABELS = LABELS + ("x1_1", "x2_1", "x2_2", "x3_1", "z", "")

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(LABELS + ("q",)),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(("elements", "relations", "tubes")), inner,
                          max_size=2),
        max_leaves=6,
    )
    pairs = st.lists(st.sampled_from(LABELS), min_size=2, max_size=2)
    malformed_poset_files = (
        st.fixed_dictionaries({
            "elements": st.lists(st.sampled_from(LABELS), max_size=4),  # may repeat
            "relations": st.lists(pairs | json_values, max_size=4),
        })
        | st.fixed_dictionaries({"relations": st.lists(pairs, max_size=3)})
        | json_values  # mostly not an object
    ).map(json.dumps) | st.sampled_from((
        "{not json",
        '{"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"], ["c", "a"]]}',
    ))
    tubing_files = (
        st.fixed_dictionaries({"tubes": st.lists(
            st.lists(st.sampled_from(SUBSET_LABELS), max_size=3), max_size=3)})
        | json_values
    ).map(json.dumps)
    compositions = st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
        lambda parts: sum(parts) <= 6).map(lambda parts: ",".join(map(str, parts)))
    malformed_compositions = st.sampled_from(("", "0,2", "two,2", "-1", "2,,2"))

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @classmethod
    def poset_source(cls, draw, path):
        """A graded: source, a JSON file written to path, or a file never written."""
        kind = draw(st.sampled_from(
            ("graded", "graded", "bad graded", "file", "file", "bad file", "missing")))
        if kind == "graded":
            return "graded:" + draw(cls.compositions)
        if kind == "bad graded":
            return "graded:" + draw(cls.malformed_compositions)
        if kind == "file":
            elements = draw(st.lists(
                st.sampled_from(cls.LABELS), unique=True, min_size=1, max_size=6))
            # pairs point up the element order, so they close into no cycle
            upward = list(itertools.combinations(elements, 2))
            relations = draw(st.lists(st.sampled_from(upward), max_size=6)) if upward else []
            path.write_text(json.dumps({"elements": elements, "relations": relations}),
                            encoding="utf-8")
        elif kind == "bad file":
            path.write_text(draw(cls.malformed_poset_files), encoding="utf-8")
        else:
            path = path.with_suffix(".missing")
        return str(path)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(data=st.data())
    def test_every_call_exits_cleanly(self, workdir, data):
        draw = data.draw
        verb = draw(st.sampled_from(self.VERBS))
        argv = ["--format", "csv"] if draw(st.booleans()) else []
        argv.append(verb)
        if mostly(draw):
            argv.append(self.poset_source(draw, workdir / "first.json"))
        else:
            argv += ["--graded", draw(self.compositions | self.malformed_compositions)]
        if verb == "flip-seq" and mostly(draw):
            argv.append(self.poset_source(draw, workdir / "second.json"))
        if verb == "equiv":
            # only one of a second poset and --permutohedron is valid
            target = draw(st.sampled_from(("poset", "permutohedron", "both", "neither")))
            if target in ("poset", "both"):
                argv.append(self.poset_source(draw, workdir / "second.json"))
            if target in ("permutohedron", "both"):
                argv += ["--permutohedron", str(draw(st.integers(-2, 5)))]
        if verb in ("decompose", "flip-map"):
            if mostly(draw):
                argv += ["--subset", ",".join(draw(st.lists(
                    st.sampled_from(self.SUBSET_LABELS), max_size=3)))]
            if mostly(draw):
                tubing = workdir / "tubing.json"
                if mostly(draw):
                    tubing.write_text(draw(self.tubing_files), encoding="utf-8")
                else:
                    tubing = workdir / "missing-tubing.json"
                argv += ["--tubing", str(tubing)]
        if verb == "tubings" and draw(st.booleans()):
            argv.append("--count-only")
        if not mostly(draw):
            argv.append("--force")

        code, out = self.call(argv)
        assert code in (0, 1, 2), (argv, code, out)
        if code == 2:
            assert out == "", argv
        elif code == 1 or "csv" not in argv:
            assert out.count("\n") == 1 and out.endswith("\n"), (argv, out)
            payload = json.loads(out)
            assert isinstance(payload, dict) and payload["schema_version"] == 1, argv
            if code == 1:
                assert {"error", "message"} <= payload.keys(), argv
        else:
            assert out.startswith("schema_version,1\n"), (argv, out)


class TestHelp:
    @pytest.mark.parametrize("verb", ["", *TestFuzz.VERBS])
    def test_help_exits_zero(self, capsys, verb):
        with pytest.raises(SystemExit) as err:
            run([verb, "--help"] if verb else ["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: posetassoc {verb}".rstrip())
