import argparse
import json
import subprocess
import sys
from dataclasses import replace
from itertools import pairwise

import pytest

from corrsync.baselines import kruskal_mst
from corrsync.cli import _UNRECORDED, build_parser, main
from corrsync.collection import KNN_DEFAULT, CorrespondenceMap, ShapeCollection, save_collection
from corrsync.benchmark import corrupt_maps, synth_collection
from corrsync.flow import directed_flow_matrix, enumerate_paths
from corrsync.matching import match_pair
from corrsync.soft import LAMBDA_DEFAULT

from conftest import build_l4, line_distances, tree_path


@pytest.fixture(scope="module")
def l4_manifest(tmp_path_factory):
    coll = build_l4(swapped_pair=(1, 3))
    out = tmp_path_factory.mktemp("l4")
    return str(save_collection(coll, out))


@pytest.fixture(scope="module")
def synth_manifest(tmp_path_factory):
    coll = synth_collection(4, 60, 0.05, seed=3, map_source="truth")
    out = tmp_path_factory.mktemp("synth")
    return str(save_collection(coll, out))


@pytest.fixture(scope="module")
def seeded_manifest(tmp_path_factory):
    # s00 -> s01 has curvature seed matches here, so --max-matches 0 is below them
    coll = synth_collection(3, 80, 0.08, seed=1, map_source="truth")
    return str(save_collection(coll, tmp_path_factory.mktemp("seeded")))


def _run(argv):
    return subprocess.run(
        [sys.executable, "-m", "corrsync", *argv], capture_output=True, text=True
    )


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["flow"])  # missing required arguments
        assert exc.value.code == 2

    def test_domain_error_is_1(self, l4_manifest, capsys):
        rc = main(
            ["baseline", "--manifest", l4_manifest, "--method", "shortest",
             "--source", "s0", "--target", "s3", "--epsilon", "0.5", "--quiet"]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_manifest_is_1(self, capsys):
        rc = main(
            ["flow", "--manifest", "/nonexistent/manifest.json",
             "--source", "a", "--target", "b", "--quiet"]
        )
        assert rc == 1

    def test_success_is_0(self, l4_manifest, tmp_path):
        rc = main(
            ["flow", "--manifest", l4_manifest, "--source", "s0",
             "--target", "s3", "--out", str(tmp_path / "f.csv"), "--quiet"]
        )
        assert rc == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "corrsync", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "corrsync" in proc.stdout

    def test_cli_import_leaves_scipy_spatial_unloaded(self):
        # commands that never build a KD-tree or a sparse matrix should not pay
        # for importing either
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, corrsync.cli; "
             "print('scipy.spatial' in sys.modules, 'scipy.sparse' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    @pytest.mark.parametrize(
        "command",
        [["propagate"], ["baseline", "--method", "mst"], ["baseline", "--method", "direct"],
         ["baseline", "--method", "shortest"], ["flow"]],
    )
    def test_discrete_map_commands_run_without_scipy_sparse(self, l4_manifest, command):
        argv = command + ["--manifest", l4_manifest, "--source", "s0", "--target", "s3",
                          "--quiet"]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from corrsync.cli import main; rc = main(sys.argv[1:]); "
             "print(rc, *(m in sys.modules for m in ('scipy.sparse', 'corrsync.benchmark', "
             "'corrsync.matching', 'corrsync.geometry')), file=sys.stderr)", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "0 False False False False"
        assert proc.stdout


class TestBadInputValues:
    @pytest.mark.parametrize(
        "command, named",
        [
            ("match --pair s00,s01 --max-matches 0", "max_matches=0"),
            ("match --pair s00,s01 --hops -1", "hops must be at least 1, got -1"),
            ("match --pair s00,s01 --knn 0", "k must be at least 1, got 0"),
            ("match --pair s00,s00", "'s00,s00'"),
            ("benchmark --methods foo", "unknown method 'foo'"),
            ("benchmark --methods=", "unknown method ''"),
            ("synth --landmarks 0", "landmark count must be in [1, 300], got 0"),
            ("synth --points 2", "has 2 points"),
            ("lattice --mode standard --source 99999", "source must be in [0, 960], got 99999"),
            ("lattice --mode eop --source 3 --target 3", "got 3 for both"),
            ("lattice --mode standard --target -1", "target must be in [0, 960], got -1"),
            ("synth --shapes 0", "shape count must be at least 1, got 0"),
            ("synth --shapes -2", "shape count must be at least 1, got -2"),
            ("benchmark --grid-max nan", "got nan"),
            ("benchmark --grid-max -1", "got -1.0"),
            ("benchmark --grid-count 0", "error grid count must be at least 1, got 0"),
            ("benchmark --grid-count -3", "error grid count must be at least 1, got -3"),
            ("stability --add-far 0.5", "factor must be a finite number > 1, got 0.5"),
            ("stability --add-far 1", "factor must be a finite number > 1, got 1.0"),
            ("stability --add-far 0", "factor must be a finite number > 1, got 0.0"),
            ("stability --add-far -1", "factor must be a finite number > 1, got -1.0"),
            ("stability --add-far nan", "factor must be a finite number > 1, got nan"),
            ("stability --add-far inf", "factor must be a finite number > 1, got inf"),
            ("propagate --max-paths 0", "max_paths must be at least 1, got 0"),
            ("propagate --max-paths -5", "max_paths must be at least 1, got -5"),
            ("benchmark --methods mle --max-paths 0", "max_paths must be at least 1, got 0"),
            ("benchmark --methods mle --max-paths -5", "max_paths must be at least 1, got -5"),
            ("synth --amplitude nan", "amplitude must be a finite number in [0, 1], got nan"),
            ("synth --amplitude inf", "amplitude must be a finite number in [0, 1], got inf"),
            ("synth --amplitude 1e308", "amplitude must be a finite number in [0, 1], got 1e+308"),
            ("synth --amplitude -0.5", "amplitude must be a finite number in [0, 1], got -0.5"),
            ("baseline --method shortest --epsilon nan", "epsilon must be a finite number >= 0, got nan"),
            ("baseline --method shortest --epsilon -1", "epsilon must be a finite number >= 0, got -1.0"),
            ("benchmark --methods shortest --epsilon nan", "epsilon must be a finite number >= 0, got nan"),
            ("match --pair s00,s01 --radius nan", "radius must be a finite number > 0, got nan"),
            ("match --pair s00,s01 --radius -1", "radius must be a finite number > 0, got -1.0"),
            ("match --pair s00,s01 --delta nan", "delta must be a finite number > 0, got nan"),
            ("holonomy --trials 0", "trials must be at least 1, got 0"),
            ("holonomy --trials -3", "trials must be at least 1, got -3"),
            ("lattice --mode eop --max-steps -1", "max_steps must be at least 1, got -1"),
            ("benchmark --methods direct --lambda nan",
             "lambda must be a finite number in [0, 1], got nan"),
            ("benchmark --methods mst --max-paths 0", "max_paths must be at least 1, got 0"),
            ("synth --seed -1", "seed must be at least 0, got -1"),
            ("lattice --mode eop --seed -1", "seed must be at least 0, got -1"),
            ("holonomy --seed -1", "seed must be at least 0, got -1"),
            ("baseline --method mst --epsilon nan", "epsilon must be a finite number >= 0, got nan"),
            ("baseline --method direct --epsilon -1",
             "epsilon must be a finite number >= 0, got -1.0"),
        ],
        ids=["max-matches", "hops", "knn", "pair", "methods", "methods-empty", "synth-landmarks",
             "synth-points",
             "lattice-source", "lattice-equal-ends", "lattice-target", "synth-shapes-0",
             "synth-shapes-negative", "grid-max-nan", "grid-max-negative", "grid-count-0",
             "grid-count-negative", "add-far-half", "add-far-one", "add-far-0",
             "add-far-negative", "add-far-nan", "add-far-inf", "propagate-max-paths-0",
             "propagate-max-paths-negative", "benchmark-max-paths-0",
             "benchmark-max-paths-negative", "amplitude-nan", "amplitude-inf", "amplitude-huge",
             "amplitude-negative", "baseline-epsilon-nan", "baseline-epsilon-negative",
             "benchmark-epsilon-nan", "radius-nan", "radius-negative", "delta-nan",
             "holonomy-trials-0", "holonomy-trials-negative", "lattice-eop-max-steps",
             "route-benchmark-lambda-nan", "route-benchmark-max-paths-0", "synth-seed-negative",
             "lattice-seed-negative", "holonomy-seed-negative", "baseline-mst-epsilon-nan",
             "baseline-direct-epsilon-negative"],
    )
    def test_clean_error_without_traceback(self, seeded_manifest, tmp_path, command, named):
        command, *options = command.split()
        # the case's own options come last, so they override these defaults
        defaults = {
            "match": ["--manifest", seeded_manifest, "--radius", "0.2", "--delta", "0.6"],
            "propagate": ["--manifest", seeded_manifest, "--source", "s00", "--target", "s01"],
            "baseline": ["--manifest", seeded_manifest, "--source", "s00", "--target", "s01"],
            "benchmark": ["--manifest", seeded_manifest],
            "stability": ["--manifest", seeded_manifest],
            "synth": ["--out-dir", str(tmp_path / "c")],
            "lattice": [],
            "holonomy": [],
        }[command]
        proc = _run([command, *defaults, *options, "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr
        assert proc.stdout == ""

    @pytest.fixture(scope="class")
    def fieldless_manifest(self, tmp_path_factory):
        coll = synth_collection(3, 80, 0.08, seed=1, map_source="truth")
        coll = replace(coll, shapes=[replace(s, scalar_field=None) for s in coll.shapes])
        return str(save_collection(coll, tmp_path_factory.mktemp("fieldless")))

    @pytest.mark.parametrize("delta", ["nan", "-5"])
    def test_match_delta_checked_without_scalar_fields(self, fieldless_manifest, delta):
        proc = _run(["match", "--manifest", fieldless_manifest, "--pair", "s00,s01",
                     "--radius", "0.2", "--delta", delta, "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"delta must be a finite number > 0, got {float(delta)!r}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("hops", ["0", "-1"])
    def test_match_hops_checked_without_scalar_fields(self, fieldless_manifest, hops):
        proc = _run(["match", "--manifest", fieldless_manifest, "--pair", "s00,s01",
                     "--radius", "0.2", "--delta", "0.6", "--hops", hops, "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"hops must be at least 1, got {hops}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_match_empty_interpolation_writes_nothing(self, fieldless_manifest, tmp_path,
                                                      to_file):
        # no scalar fields, so no seed matches, and --max-matches 0 adds none
        out, dense = tmp_path / "match.csv", tmp_path / "dense.csv"
        proc = _run(["match", "--manifest", fieldless_manifest, "--pair", "s00,s01",
                     "--radius", "0.05", "--delta", "0.1", "--max-matches", "0",
                     "--interpolated", str(dense), "--quiet",
                     *(["--out", str(out)] if to_file else [])])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "cannot interpolate 's00' -> 's01' from an empty match set" in proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestUnreadablePaths:
    def _propagate(self, manifest, *options):
        return _run(["propagate", "--manifest", str(manifest), "--source", "s0",
                     "--target", "s3", "--quiet", *options])

    @pytest.mark.parametrize(
        "which", ["manifest", "out", "config", "distances_file", "out_in_missing_directory"]
    )
    def test_directory_is_a_clean_error(self, l4_manifest, tmp_path, which):
        folder = tmp_path / "folder"
        folder.mkdir()
        manifest, options, message = l4_manifest, [], "Is a directory"
        if which == "manifest":
            manifest = folder
        elif which == "distances_file":
            manifest = save_collection(build_l4(swapped_pair=(1, 3)), tmp_path / "c")
            doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
            doc["distances_file"] = "maps"
            (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
        elif which == "out_in_missing_directory":
            missing = folder / "missing" / "x.csv"
            options = ["--out", str(missing)]
            message = f"No such file or directory: {str(missing)!r}"
        else:
            options = [f"--{which}", str(folder)]
            if which == "out":
                # the requested path, not the temp file written beside it
                message = f"Is a directory: {str(folder)!r}"
        proc = self._propagate(manifest, *options)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert ".tmp-" not in proc.stderr
        assert proc.stdout == ""
        assert list(folder.iterdir()) == []
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []

    @pytest.mark.parametrize(
        "command",
        [["match", "--pair", "s00,s01", "--radius", "0.2", "--delta", "0.6", "--interpolated"],
         ["benchmark", "--methods", "direct", "--svg"]],
        ids=["match-interpolated", "benchmark-svg"],
    )
    def test_second_output_failing_writes_neither(self, seeded_manifest, tmp_path, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "first.csv"
        proc = _run([command[0], "--manifest", seeded_manifest, *command[1:], str(folder),
                     "--out", str(out), "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"Is a directory: {str(folder)!r}" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["match", "--pair", "s00,s01", "--radius", "0.2", "--delta", "0.6", "--interpolated"],
         ["benchmark", "--methods", "direct", "--svg"]],
        ids=["match-interpolated", "benchmark-svg"],
    )
    def test_two_outputs_naming_one_path_write_neither(self, seeded_manifest, tmp_path,
                                                        command):
        out = tmp_path / "out.csv"
        # the same file under two spellings
        proc = _run([command[0], "--manifest", seeded_manifest, *command[1:],
                     str(tmp_path / "." / "out.csv"), "--out", str(out), "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"two outputs name one file: {str(out)!r}" in proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "which, named",
        [("manifest", "manifest is not valid JSON"), ("config", "is not UTF-8 text")],
    )
    def test_undecodable_text_is_a_clean_error(self, l4_manifest, tmp_path, which, named):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe{}\n")
        if which == "manifest":
            proc = self._propagate(bad)
        else:
            proc = self._propagate(l4_manifest, "--config", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr and "can't decode byte 0xff" in proc.stderr
        assert proc.stdout == ""


class TestBadCollectionFiles:
    def _propagate(self, manifest, source="s0"):
        return subprocess.run(
            [sys.executable, "-m", "corrsync", "propagate", "--manifest", str(manifest),
             "--source", source, "--target", "s3", "--quiet"],
            capture_output=True, text=True,
        )

    def test_non_numeric_map_cell(self, tmp_path):
        # at the default lambda the only s0 -> s3 chain on L4 is the direct one,
        # so propagate reads s3__s0.csv
        manifest = save_collection(build_l4(swapped_pair=(1, 3)), tmp_path / "c")
        (tmp_path / "c" / "maps" / "s3__s0.csv").write_text("0,x\n1,1\n")
        proc = self._propagate(manifest)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "s3__s0.csv" in proc.stderr

    @pytest.mark.parametrize(
        "edit, named",
        [
            ({"beta": -1}, "'beta': -1"),
            ({"beta": 0}, "'beta': 0"),
            ({"beta": "abc"}, "'beta': 'abc'"),
            ({"beta": float("nan")}, "'beta': nan"),
            ({"beta": float("inf")}, "'beta': inf"),
            ({"beta": None}, "'beta': None"),
            ({"landmarks": ["x"]}, "shape 's1': invalid 'landmarks': ['x']"),
            ({"landmarks": [0.5]}, "shape 's1': invalid 'landmarks': [0.5]"),
            ({"landmarks": ["3"]}, "shape 's1': invalid 'landmarks': ['3']"),
            ({"landmarks": [2.0]}, "shape 's1': invalid 'landmarks': [2.0]"),
            ({"landmarks": 3}, "shape 's1': invalid 'landmarks': 3"),
            ({"ground_truth": {"tip": "x"}}, "shape 's1': invalid 'ground_truth'"),
            ({"ground_truth": {"tip": "1"}}, "shape 's1': invalid 'ground_truth'"),
            ({"points_file": None}, "shape 's1': missing 'points_file'"),
            ({"points_file": 5}, "shape 's1': invalid 'points_file': 5"),
        ],
        ids=["beta-negative", "beta-zero", "beta-text", "beta-nan", "beta-inf", "beta-null",
             "landmark-text", "landmark-fraction", "landmark-digit-text", "landmark-integral-float",
             "landmarks-scalar", "truth-text", "truth-digit-text",
             "points-file-missing", "points-file-number"],
    )
    def test_bad_manifest_field(self, tmp_path, edit, named):
        manifest = save_collection(build_l4(swapped_pair=(1, 3)), tmp_path / "c")
        doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
        for key, value in edit.items():
            target = doc if key == "beta" else doc["shapes"][1]
            if value is None and key == "points_file":
                del target[key]
            else:
                target[key] = value
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
        proc = self._propagate(manifest)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        assert named in proc.stderr
        assert proc.stdout == ""

    def test_path_escaping_shape_id(self, tmp_path):
        manifest = save_collection(build_l4(swapped_pair=(1, 3)), tmp_path / "c")
        doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
        doc["shapes"][0]["id"] = "../escaped"
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
        proc = self._propagate(manifest, source="../escaped")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "'../escaped'" in proc.stderr
        assert proc.stdout == ""


class TestMapFilesReadOnUse:
    """A command reads the map files of the maps it uses, and only those."""

    @pytest.fixture(scope="class")
    def synth6(self, tmp_path_factory):
        coll = synth_collection(6, 40, 0.05, seed=3, map_source="truth")
        return coll, str(save_collection(coll, tmp_path_factory.mktemp("synth6")))

    @pytest.mark.parametrize("pair", [("s00", "s05"), ("s05", "s02"), ("s02", "s04")])
    def test_propagate_reads_the_chain_edge_maps(self, synth6, tmp_path, map_reads, pair):
        coll, manifest = synth6
        flow = directed_flow_matrix(coll.D, coll.index(pair[0]), coll.index(pair[1]))
        chains = enumerate_paths(flow, lam=LAMBDA_DEFAULT)
        edges = {(coll.ids[a], coll.ids[b]) for r in chains for a, b in pairwise(r.vertices)}
        rc = main(["propagate", "--manifest", manifest, "--source", pair[0], "--target",
                   pair[1], "--out", str(tmp_path / "p.json"), "--quiet"])
        assert rc == 0
        assert sorted(map_reads) == sorted(edges)
        assert len(edges) < len(coll.maps)

    @pytest.mark.parametrize("pair", [("s00", "s05"), ("s05", "s02"), ("s02", "s04")])
    def test_mst_reads_the_route_maps(self, synth6, tmp_path, map_reads, pair):
        coll, manifest = synth6
        route = tree_path(kruskal_mst(coll.D), coll.index(pair[0]), coll.index(pair[1]))
        rc = main(["baseline", "--method", "mst", "--manifest", manifest, "--source", pair[0],
                   "--target", pair[1], "--out", str(tmp_path / "m.csv"), "--quiet"])
        assert rc == 0
        assert map_reads == [(coll.ids[a], coll.ids[b]) for a, b in pairwise(route)]

    @pytest.fixture
    def bad_map(self, tmp_path):
        """A saved collection whose map s00 -> s01 is malformed, and a clean copy's
        propagate output for s01 -> s00, made at the same path."""
        coll = synth_collection(4, 60, 0.05, seed=3, map_source="truth")
        manifest = str(save_collection(coll, tmp_path / "c"))
        # s00 is the sink of every s01 -> s00 chain, so no chain leaves it
        argv = ["propagate", "--manifest", manifest, "--source", "s01", "--target", "s00",
                "--quiet", "--out"]
        assert main(argv + [str(tmp_path / "clean.json")]) == 0
        (tmp_path / "c" / "maps" / "s01__s00.csv").write_text("0,x\n1,1\n")
        return manifest, argv

    def test_unread_malformed_map_does_not_fail(self, bad_map, tmp_path):
        manifest, argv = bad_map
        assert main(["flow", "--manifest", manifest, "--source", "s00", "--target", "s01",
                     "--out", str(tmp_path / "f.csv"), "--quiet"]) == 0
        assert main(argv + [str(tmp_path / "bad.json")]) == 0
        assert (tmp_path / "bad.json").read_bytes() == (tmp_path / "clean.json").read_bytes()

    @pytest.mark.parametrize(
        "command",
        [["benchmark", "--methods", "direct"], ["benchmark"], ["stability", "--add-far", "10"],
         ["stability", "--remove", "s03"]],
        ids=["benchmark-direct", "benchmark", "stability-add-far", "stability-remove"],
    )
    def test_commands_reading_every_map_name_it(self, bad_map, tmp_path, capsys, command):
        manifest, _ = bad_map
        rc = main(command + ["--manifest", manifest, "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "s01__s00.csv" in captured.err and "could not convert" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "o").exists()


class TestShapeFilesReadOnUse:
    """A command parses the points and scalar-field files of the shapes whose
    coordinates or field it uses, and only those."""

    @pytest.mark.parametrize(
        "command",
        [["flow"], ["propagate"], ["baseline", "--method", "direct"],
         ["baseline", "--method", "mst"], ["baseline", "--method", "shortest"]],
        ids=["flow", "propagate", "direct", "mst", "shortest"],
    )
    def test_pair_commands_parse_no_shape_file(self, synth_manifest, tmp_path, shape_reads,
                                               command):
        rc = main(command + ["--manifest", synth_manifest, "--source", "s00", "--target",
                             "s03", "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        assert shape_reads == []

    def test_match_parses_only_its_pair(self, synth_manifest, tmp_path, shape_reads):
        rc = main(["match", "--manifest", synth_manifest, "--pair", "s02,s01", "--radius",
                   "0.2", "--delta", "0.6", "--out", str(tmp_path / "m.csv"), "--quiet"])
        assert rc == 0
        assert sorted(shape_reads) == ["s01.field", "s01.xyz", "s02.field", "s02.xyz"]

    def test_unparsed_malformed_points_do_not_fail(self, tmp_path):
        manifest = save_collection(build_l4(swapped_pair=(1, 3)), tmp_path / "c")
        (tmp_path / "c" / "s1.xyz").write_text("0 0 0\n1 x 0\n")
        out = tmp_path / "p.json"
        assert main(["propagate", "--manifest", str(manifest), "--source", "s0", "--target",
                     "s3", "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["rows"]


class TestBadPoints:
    @pytest.mark.parametrize(
        "flag, value, named",
        [
            # explicit ids keep the names of the --points cases stable
            pytest.param("--points", "99999", "vertex 99999", id="99999-vertex 99999"),
            pytest.param("--points", "-1", "vertex -1", id="-1-vertex -1"),
            pytest.param("--points", "99999999999999999999", "vertex 99999999999999999999",
                         id="beyond-int64"),
            pytest.param("--points", "0,abc", "'abc'", id="0,abc-'abc'"),
            pytest.param("--points", "", "or 'landmarks', got ''", id="empty"),
            ("--lambda", "nan", "lambda"),
            ("--lambda", "-5", "lambda"),
            ("--lambda", "inf", "lambda"),
        ],
    )
    def test_clean_error_without_traceback(self, l4_manifest, flag, value, named):
        proc = subprocess.run(
            [sys.executable, "-m", "corrsync", "propagate", "--manifest", l4_manifest,
             "--source", "s0", "--target", "s3", flag, value, "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr
        assert proc.stdout == ""


class TestProvenanceHeaders:
    @pytest.mark.parametrize(
        "argv",
        [
            "flow --manifest {m} --source s00 --target s03",
            "propagate --manifest {m} --source s00 --target s03",
            "baseline --manifest {m} --method mst --source s00 --target s03",
            "match --manifest {m} --pair s00,s01 --radius 0.2 --delta 0.6 --max-matches 6 "
            "--landmarks 5",
            "benchmark --manifest {m} --methods direct,mle --lambda 0.9",
            "lattice --mode eop --walks 4 --side 7",
            "holonomy --trials 3",
            "stability --manifest {m} --remove s03",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_out_file_matches_stdout(self, synth_manifest, tmp_path, capsysbinary, argv):
        command, *options = argv.format(m=synth_manifest).split()
        out = tmp_path / "out"
        assert main([command, *options, "--quiet", "--out", str(out)]) == 0
        assert main([command, *options, "--quiet"]) == 0
        printed = capsysbinary.readouterr().out
        assert printed == out.read_bytes()
        if command in ("propagate", "stability"):
            assert json.loads(printed)["provenance"]["command"] == command
        else:
            assert printed.splitlines()[1] == f"# command: {command}".encode()

    @pytest.mark.parametrize(
        "argv, key, values",
        [
            ("match --manifest {m} --pair s00,s01 --radius 0.2 --delta 0.6", "landmarks", (5, 6)),
            ("match --manifest {m} --pair s00,s01 --radius 0.2 --delta 0.6", "hops", (1, 2)),
            ("match --manifest {m} --pair s00,s01 --radius 0.2 --delta 0.6", "knn", (8, 6)),
            ("baseline --manifest {m} --method shortest --source s00 --target s03", "epsilon",
             (50.0, 100.0)),
            ("benchmark --manifest {m} --methods direct,shortest", "epsilon", (50.0, 100.0)),
            ("benchmark --manifest {m} --methods direct", "grid_count", (20, 30)),
            ("benchmark --manifest {m} --methods direct", "grid_max", (0.3, 0.4)),
        ],
        ids=["match-landmarks", "match-hops", "match-knn", "baseline-epsilon",
             "benchmark-epsilon", "benchmark-grid_count", "benchmark-grid_max"],
    )
    def test_config_records_every_output_option(self, synth_manifest, tmp_path, argv, key,
                                                values):
        # two runs that differ in one option must carry different config lines
        command, *options = argv.format(m=synth_manifest).split()
        flag = "--" + key.replace("_", "-")
        lines = []
        for value in values:
            out = tmp_path / f"out-{value}"
            assert main([command, *options, flag, str(value), "--quiet", "--out", str(out)]) == 0
            lines.append(out.read_text().splitlines()[3])
            assert json.loads(lines[-1].removeprefix("# config: "))[key] == value
        assert lines[0] != lines[1]

    @pytest.mark.parametrize(
        "argv, derived",
        [
            ("flow --manifest {m} --source s00 --target s03", set()),
            ("propagate --manifest {m} --source s00 --target s03", {"beta", "path_count"}),
            ("baseline --manifest {m} --method mst --source s00 --target s03", {"route"}),
            ("match --manifest {m} --pair s00,s01 --radius 0.2 --delta 0.6", set()),
            ("benchmark --manifest {m}", {"methods"}),
            ("lattice --mode eop", {"discarded"}),
            ("holonomy", set()),
            ("stability --manifest {m} --remove s03", set()),
        ],
        ids=["flow", "propagate", "baseline", "match", "benchmark", "lattice", "holonomy",
             "stability"],
    )
    def test_config_holds_every_option_of_the_parser(self, synth_manifest, capsys, argv,
                                                     derived):
        # every dest of the command's subparser but those that shape no output,
        # plus the values the command derives at run time, run at the defaults
        command, *options = argv.format(m=synth_manifest).split()
        assert main([command, *options, "--quiet"]) == 0
        printed = capsys.readouterr().out
        if command in ("propagate", "stability"):
            config = json.loads(printed)["provenance"]["config"]
        else:
            config = json.loads(printed.splitlines()[3].removeprefix("# config: "))
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        assert set(config) == dests - _UNRECORDED | derived

    def test_header_fields(self, l4_manifest, tmp_path):
        out = tmp_path / "f.csv"
        main(["flow", "--manifest", l4_manifest, "--source", "s0",
              "--target", "s3", "--out", str(out), "--quiet"])
        head = out.read_text().splitlines()[:4]
        assert head[0].startswith("# corrsync ")
        assert head[1] == "# command: flow"
        assert head[2].startswith("# seed: ")
        assert head[3].startswith("# config: ")

    def test_no_timestamps_anywhere(self, l4_manifest, tmp_path):
        out = tmp_path / "f.csv"
        main(["flow", "--manifest", l4_manifest, "--source", "s0",
              "--target", "s3", "--out", str(out), "--quiet"])
        text = out.read_text()
        assert "20" not in text.splitlines()[0] or "corrsync" in text.splitlines()[0]


class TestFlowOutput:
    def test_sections(self, l4_manifest, tmp_path):
        out = tmp_path / "f.csv"
        main(["flow", "--manifest", l4_manifest, "--source", "s0",
              "--target", "s3", "--out", str(out), "--quiet"])
        text = out.read_text()
        assert "# section: matrix" in text
        assert "# section: edges" in text
        assert "from,to,weight" in text
        matrix = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert matrix[0] == "0,1,1,1"


    def test_zero_distance_pair_is_1(self, tmp_path):
        # --allow-duplicates admits the pair, whose flow graph has no edge
        l4 = build_l4()
        coll = ShapeCollection(shapes=l4.shapes, D=line_distances([0.0, 0.0, 2.0, 3.0]),
                               maps=l4.maps, allow_duplicates=True)
        manifest = save_collection(coll, str(tmp_path / "c"))
        proc = _run(["propagate", "--manifest", str(manifest), "--source", "s0",
                     "--target", "s1", "--allow-duplicates", "--quiet"])
        assert proc.returncode == 1
        assert proc.stderr == (
            "corrsync: error: shapes 's0' and 's1' are at distance 0, so the flow graph "
            "from 0 to 1 has no edge, not even the direct one\n"
        )


class TestBaselineOutput:
    def test_direct_output_is_the_stored_map_file(self, tmp_path):
        save_collection(synth_collection(3, 40, 0.05, seed=5), str(tmp_path / "c"))
        out = tmp_path / "direct.csv"
        main(["baseline", "--manifest", str(tmp_path / "c" / "manifest.json"),
              "--method", "direct", "--source", "s00", "--target", "s02",
              "--out", str(out), "--quiet"])
        body = [l for l in out.read_bytes().splitlines(keepends=True) if not l.startswith(b"#")]
        assert b"".join(body) == (tmp_path / "c" / "maps" / "s02__s00.csv").read_bytes()


class TestPropagateOutput:
    def test_soft_json_schema(self, l4_manifest, tmp_path):
        out = tmp_path / "soft.json"
        main(["propagate", "--manifest", l4_manifest, "--source", "s0",
              "--target", "s3", "--lambda", "0.0", "--points", "0",
              "--out", str(out), "--quiet"])
        data = json.loads(out.read_text())
        assert data["source"] == "s0" and data["target"] == "s3"
        assert data["lambda"] == 0.0
        row = data["rows"][0]
        assert row["source_index"] == 0
        masses = dict((t, m) for t, m in row["support"])
        assert masses[0] == pytest.approx(0.8937, abs=1e-4)
        assert masses[1] == pytest.approx(0.1063, abs=1e-4)
        assert data["provenance"]["command"] == "propagate"

    def test_stdout_when_no_out(self, l4_manifest, capsys):
        rc = main(["propagate", "--manifest", l4_manifest, "--source", "s0",
                   "--target", "s3", "--lambda", "0.0", "--quiet"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["source"] == "s0"


class TestConfigFile:
    def test_config_supplies_default(self, l4_manifest, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lam=0.0\n")
        out = tmp_path / "soft.json"
        main(["propagate", "--manifest", l4_manifest, "--source", "s0",
              "--target", "s3", "--points", "0", "--config", str(cfg),
              "--out", str(out), "--quiet"])
        assert json.loads(out.read_text())["lambda"] == 0.0

    def test_flag_beats_config(self, l4_manifest, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lam=0.5\n")
        out = tmp_path / "soft.json"
        main(["propagate", "--manifest", l4_manifest, "--source", "s0",
              "--target", "s3", "--points", "0", "--config", str(cfg),
              "--lambda", "0.0", "--out", str(out), "--quiet"])
        assert json.loads(out.read_text())["lambda"] == 0.0

    def test_malformed_config_rejected(self, l4_manifest, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lam 0.5\n")
        rc = main(["propagate", "--manifest", l4_manifest, "--source", "s0",
                   "--target", "s3", "--config", str(cfg), "--quiet"])
        assert rc == 1


    def _propagate(self, manifest, tmp_path, capsys, *extra):
        out = tmp_path / "soft.json"
        rc = main(["propagate", "--manifest", manifest, "--source", "s0", "--target", "s3",
                   "--out", str(out), *extra])
        return rc, out.read_bytes(), capsys.readouterr().err

    @pytest.mark.parametrize("text", ["quiet=0\nstrict=1\n", "threads=3\n", "points=0\n"],
                             ids=["flags", "unknown-key", "command-line-only"])
    def test_ignored_keys_change_nothing(self, l4_manifest, tmp_path, capsys, text):
        # store_true flags and the source vertex selection are set on the
        # command line only, and a key naming no option has no effect
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        plain = self._propagate(l4_manifest, tmp_path, capsys)
        assert plain[2]  # the progress line that quiet would suppress
        assert self._propagate(l4_manifest, tmp_path, capsys, "--config", str(cfg)) == plain

    def test_config_reaches_int_option(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("side=9\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["lattice", "--mode", "eop", "--walks", "3", "--quiet"]
        assert main(base + ["--side", "9", "--out", str(a)]) == 0
        assert main(base + ["--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert '"side": 9' in a.read_text()

    def test_config_reaches_lambda_list(self, synth_manifest, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lam=0.9,0.978\n")
        out = tmp_path / "c.csv"
        rc = main(["benchmark", "--manifest", synth_manifest, "--methods", "mle",
                   "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if l.startswith("mle,")]
        assert {r.split(",")[1] for r in rows} == {"0.9", "0.978"}

    @pytest.mark.parametrize("command", ["propagate", "benchmark"])
    def test_bad_config_value_is_a_usage_error(self, l4_manifest, tmp_path, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lam=abc\n")
        base = [command, "--manifest", l4_manifest, "--quiet"]
        if command == "propagate":
            base += ["--source", "s0", "--target", "s3"]
        from_config = _run(base + ["--config", str(cfg)])
        from_flag = _run(base + ["--lambda", "abc"])
        assert from_config.returncode == from_flag.returncode == 2
        assert "Traceback" not in from_config.stderr
        assert from_config.stdout == ""
        # argparse's own message for the flag, then the file the value came from
        assert "argument --lambda: " in from_flag.stderr and "abc" in from_flag.stderr
        assert from_config.stderr.startswith(from_flag.stderr)
        assert str(cfg) in from_config.stderr[len(from_flag.stderr):]

    def test_edit_keys_are_command_line_only(self, l4_manifest, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("add_far=2\n")
        base = ["stability", "--manifest", l4_manifest, "--remove", "s3", "--quiet"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_bad_benchmark_lambda_is_a_usage_error(self, synth_manifest):
        proc = _run(["benchmark", "--manifest", synth_manifest, "--lambda", "abc", "--quiet"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "argument --lambda" in proc.stderr

    def test_synth_out_is_a_usage_error(self, tmp_path):
        # --out is neither a synth option nor read as short for --out-dir
        proc = _run(["synth", "--out-dir", str(tmp_path / "c"), "--out", str(tmp_path / "x"),
                     "--shapes", "3", "--points", "40", "--quiet"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments: --out" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        ["flow", "propagate", "baseline", "match", "benchmark", "lattice", "holonomy",
         "synth", "stability"],
    )
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: corrsync {command}")


class TestByteStability:
    def test_benchmark_reruns_identical(self, synth_manifest, tmp_path):
        args = ["benchmark", "--manifest", synth_manifest, "--methods",
                "direct,mle", "--lambda", "0.9,0.978", "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_lattice_reruns_identical(self, tmp_path):
        args = ["lattice", "--mode", "eop", "--walks", "4", "--side", "7",
                "--seed", "9", "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_holonomy_reruns_identical(self, tmp_path):
        args = ["holonomy", "--trials", "4", "--seed", "2", "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBenchmarkOutput:
    def test_curve_rows_and_svg(self, synth_manifest, tmp_path):
        out, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        rc = main(["benchmark", "--manifest", synth_manifest, "--methods",
                   "direct,mle", "--lambda", "0.9,0.978", "--out", str(out),
                   "--svg", str(svg), "--quiet"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "method,lambda,threshold,fraction"
        methods = {l.split(",")[0] for l in lines[1:]}
        assert methods == {"direct", "mle"}
        mle_lams = {l.split(",")[1] for l in lines[1:] if l.startswith("mle,")}
        assert len(mle_lams) == 2
        assert svg.read_text().count("<polyline") == 3


class TestBenchmarkOnSoftMaps:
    @pytest.fixture(scope="class")
    def soft_manifest(self, tmp_path_factory):
        coll = synth_collection(4, 60, 0.05, seed=3, map_source="truth")
        m = coll.maps[("s00", "s01")]
        coll.maps[("s00", "s01")] = CorrespondenceMap("s00", "s01", "soft", matrix=m.to_soft())
        return str(save_collection(coll, tmp_path_factory.mktemp("softmap")))

    @pytest.mark.parametrize("method", ["direct", "mst", "shortest"])
    def test_route_methods_name_the_soft_map(self, soft_manifest, method):
        proc = _run(["benchmark", "--manifest", soft_manifest, "--methods", method, "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "map 's00' -> 's01' is soft" in proc.stderr
        assert proc.stdout == ""

    def test_mle_scores_soft_maps(self, soft_manifest, capsys):
        rc = main(["benchmark", "--manifest", soft_manifest, "--methods", "mle", "--quiet"])
        assert rc == 0
        assert "mle,0.978," in capsys.readouterr().out


class TestLatticeOutput:
    def test_walk_rows(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["lattice", "--mode", "standard", "--walks", "2", "--side", "5",
              "--seed", "1", "--out", str(out), "--quiet"])
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "walk_id,step,x,y"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == 0.0 and float(first[3]) == 0.0


    @pytest.mark.parametrize(
        "flag, value",
        [
            # explicit ids keep the names of the --beta cases stable
            *(pytest.param("--beta", beta, id=beta) for beta in ("-1", "0", "nan", "inf")),
            ("--side", "0"),
            ("--side", "1"),
            ("--side", "-3"),
            ("--walks", "0"),
        ],
    )
    def test_bad_beta_is_a_clean_error(self, flag, value):
        # a repeated option takes its last value
        proc = subprocess.run(
            [sys.executable, "-m", "corrsync", "lattice", "--mode", "eop", "--walks", "2",
             "--side", "5", flag, value, "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert flag[2:] in proc.stderr
        assert proc.stdout == ""


class TestHolonomyOutput:
    def test_columns_and_bounds(self, tmp_path):
        out = tmp_path / "h.csv"
        main(["holonomy", "--trials", "6", "--seed", "4", "--out", str(out), "--quiet"])
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "trial,area,deficit,bound,bound_satisfied,integration_gap"
        for row in lines[1:]:
            parts = row.split(",")
            assert parts[4] == "1"
            assert float(parts[5]) < 1e-9


class TestSynthAndStability:
    def test_synth_then_stability(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path / "coll"), "--shapes", "4",
                   "--points", "50", "--amplitude", "0.05", "--seed", "6",
                   "--truth-maps", "--quiet"])
        assert rc == 0
        manifest = capsys.readouterr().out.strip()
        rep = tmp_path / "rep.json"
        rc = main(["stability", "--manifest", manifest, "--add-far",
                   "--out", str(rep), "--quiet"])
        assert rc == 0
        data = json.loads(rep.read_text())
        assert data["mst_changed"] is False
        assert all(v == 0.0 for v in data["tv"].values())
        assert all(v == 0 for v in data["flow_edge_diff"].values())

    def test_add_far_names_a_missing_map(self, tmp_path):
        coll = synth_collection(4, 50, 0.05, seed=6, map_source="truth")
        manifest = save_collection(coll, tmp_path / "coll")
        (tmp_path / "coll" / "maps" / "s03__s00.csv").unlink()
        proc = _run(["stability", "--manifest", str(manifest), "--add-far", "--quiet"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "no stored map 's00' -> 's03'" in proc.stderr
        assert proc.stdout == ""

    def test_stability_remove(self, tmp_path, capsys):
        main(["synth", "--out-dir", str(tmp_path / "coll"), "--shapes", "4",
              "--points", "50", "--amplitude", "0.05", "--seed", "6",
              "--truth-maps", "--quiet"])
        manifest = capsys.readouterr().out.strip()
        rep = tmp_path / "rep.json"
        rc = main(["stability", "--manifest", manifest, "--remove", "s03",
                   "--out", str(rep), "--quiet"])
        assert rc == 0
        data = json.loads(rep.read_text())
        assert data["edit"] == {"kind": "remove", "shape": "s03"}


class TestMatchCommand:
    def test_match_writes_pairs(self, synth_manifest, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["match", "--manifest", synth_manifest, "--pair", "s00,s01",
                   "--radius", "0.2", "--delta", "0.6", "--max-matches", "6",
                   "--landmarks", "5", "--out", str(out), "--quiet"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "source_index,target_index,provenance"
        assert len(lines) > 1
        for row in lines[1:]:
            s, t, prov = row.split(",")
            int(s), int(t)
            assert prov in {"partial", "curvature", "seed"}

    def test_progress_counts_unmatched_landmarks(self, tmp_path, capsys):
        # every map corrupted, so some landmarks find no partner
        coll = corrupt_maps(synth_collection(3, 80, 0.08, seed=1, map_source="truth"), 1.0, 0)
        manifest = save_collection(coll, tmp_path / "c")
        rc = main(["match", "--manifest", manifest, "--pair", "s00,s01", "--radius", "0.2",
                   "--delta", "0.6", "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        assert capsys.readouterr().err == "12 matches (4 unmatched landmarks)\n"

    def test_match_pair_gives_cli_pairs(self, tmp_path):
        coll = corrupt_maps(synth_collection(3, 80, 0.08, seed=1, map_source="truth"), 1.0, 0)
        out = tmp_path / "m.csv"
        rc = main(["match", "--manifest", save_collection(coll, tmp_path / "c"), "--pair",
                   "s00,s01", "--radius", "0.2", "--delta", "0.6", "--out", str(out), "--quiet"])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[5:]]
        refined, unmatched = match_pair(
            coll, "s00", "s01", radius=0.2, delta=0.6, max_matches=15, lam=LAMBDA_DEFAULT,
            landmarks=10, hops=1, k=KNN_DEFAULT,
        )
        assert unmatched == 4
        assert [(m.source, m.target, m.provenance) for m in refined] == [
            (int(s), int(t), p) for s, t, p in rows
        ]

    @pytest.mark.parametrize("fields", [True, False])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    @pytest.mark.parametrize("shapes, points, pair", [(6, 150, "s00,s03"), (12, 400, "s02,s09")])
    def test_match_pair_vertices_distinct(self, tmp_path, shapes, points, pair, hops, fields):
        # no vertex on either side appears in two matches, and the CLI lists
        # the library's matches and provenances in the same order
        coll = synth_collection(shapes, points, 0.08, seed=shapes)
        if not fields:
            coll = replace(coll, shapes=[replace(s, scalar_field=None) for s in coll.shapes])
        source, target = pair.split(",")
        matches, _ = match_pair(
            coll, source, target, radius=0.2, delta=0.6, max_matches=15, lam=LAMBDA_DEFAULT,
            landmarks=10, hops=hops, k=KNN_DEFAULT,
        )
        assert len({m.source for m in matches}) == len(matches)
        assert len({m.target for m in matches}) == len(matches)
        out = tmp_path / "m.csv"
        rc = main(["match", "--manifest", save_collection(coll, tmp_path / "c"), "--pair", pair,
                   "--radius", "0.2", "--delta", "0.6", "--hops", str(hops), "--out", str(out),
                   "--quiet"])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [(m.source, m.target, m.provenance) for m in matches] == [
            (int(s), int(t), p) for s, t, p in rows[1:]
        ]

    def test_bad_pair_separator(self, synth_manifest, capsys):
        rc = main(["match", "--manifest", synth_manifest, "--pair", "s00:s01",
                   "--radius", "0.2", "--delta", "0.6", "--quiet"])
        assert rc == 1
