"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from entwitness import cli, data, nn, witness
from entwitness.quantum import FEATURE_NAMES


def run(argv):
    return cli.main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "d.csv")
        assert run(["gen", "--n", "500", "--seed", "7", "--out", out]) == 0
        assert os.path.exists(out)
        assert os.path.exists(data.manifest_path(out))
        assert os.path.exists(str(tmp_path / "d.config.json"))
        printed = capsys.readouterr().out
        assert "separable" in printed
        ds = data.load(out)
        assert len(ds) == 500
        assert ds.manifest["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        run(["gen", "--n", "400", "--seed", "9", "--symmetry", "cylindrical", "--out", out1])
        run(["gen", "--n", "400", "--seed", "9", "--symmetry", "cylindrical", "--out", out2])
        assert read_bytes(out1) == read_bytes(out2)
        assert read_bytes(data.manifest_path(out1)) == read_bytes(data.manifest_path(out2))
        assert read_bytes(data.arrays_path(out1)) == read_bytes(data.arrays_path(out2))

    def test_symmetry_recorded_in_manifest(self, tmp_path):
        out = str(tmp_path / "d.csv")
        run(["gen", "--n", "50", "--symmetry", "cylindrical", "--out", out])
        manifest = json.loads(Path(data.manifest_path(out)).read_text())
        assert manifest["symmetry"] == "cylindrical"

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--n", "0", "--out", str(tmp_path / "d.csv")])
        assert err.value.code == 2

    def test_unwritable_path_fails(self, tmp_path):
        out = str(tmp_path / "missing-dir" / "d.csv")
        with pytest.raises(SystemExit) as err:
            run(["gen", "--n", "10", "--out", out])
        assert err.value.code == 2
        assert os.listdir(tmp_path) == []

    def test_unbalanceable_ensemble_fails_before_writing(self, tmp_path, capsys):
        # Rank-1 states are all entangled, so there is no class to balance against.
        assert run(["gen", "--n", "200", "--rank", "1", "--balance",
                    "--out", str(tmp_path / "d.csv")]) == 1
        assert "no separable state" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ds") / "train.csv")
    run(["gen", "--n", "2500", "--seed", "3", "--out", path])
    return path


class TestTrain:
    def test_writes_model_history_report(self, tmp_path, small_dataset):
        out = str(tmp_path / "model.json")
        code = run(
            ["train", "--data", small_dataset, "--arch", "linear", "--m", "3",
             "--epochs", "4", "--seed", "1", "--out", out]
        )
        assert code == 0
        model = nn.load_model(out)
        assert nn.code_weights(model).shape == (3, 15)
        history = (tmp_path / "model.history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,validation_loss,validation_accuracy"
        assert len(history) > 1
        report = json.loads((tmp_path / "model.report.json").read_text())
        assert "accuracy" in report["rates"]
        config = json.loads((tmp_path / "model.config.json").read_text())
        assert config["command"] == "train"
        assert config["m"] == 3

    def test_full_architecture(self, tmp_path, small_dataset):
        out = str(tmp_path / "full.json")
        code = run(
            ["train", "--data", small_dataset, "--arch", "full",
             "--hidden", "16,8,4", "--epochs", "3", "--out", out]
        )
        assert code == 0
        assert nn.load_model(out).architecture == "nonlinear_full"

    def test_byte_identical_reruns(self, tmp_path, small_dataset):
        args = ["train", "--data", small_dataset, "--arch", "linear", "--m", "2",
                "--epochs", "3", "--seed", "5"]
        out1 = str(tmp_path / "m1.json")
        out2 = str(tmp_path / "m2.json")
        run(args + ["--out", out1])
        run(args + ["--out", out2])
        assert read_bytes(out1) == read_bytes(out2)
        assert read_bytes(str(tmp_path / "m1.history.csv")) == read_bytes(
            str(tmp_path / "m2.history.csv")
        )
        assert read_bytes(str(tmp_path / "m1.report.json")) == read_bytes(
            str(tmp_path / "m2.report.json")
        )

    def test_outputs_do_not_depend_on_the_arrays_sidecar(self, tmp_path):
        path = str(tmp_path / "d.csv")
        run(["gen", "--n", "600", "--seed", "4", "--out", path])
        out = str(tmp_path / "m.json")
        names = ["m.json", "m.history.csv", "m.report.json", "m.config.json", "w.csv", "w.config.json"]
        outputs = []
        for sidecar in (True, False):
            if not sidecar:
                os.unlink(data.arrays_path(path))
            assert run(["train", "--data", path, "--arch", "linear", "--m", "3",
                        "--epochs", "2", "--seed", "1", "--out", out]) == 0
            assert run(["weights", "--model", out, "--out", str(tmp_path / "w.csv")]) == 0
            outputs.append([read_bytes(str(tmp_path / name)) for name in names])
        assert outputs[0] == outputs[1]

    def test_report_at_half_and_calibrated(self, tmp_path, capsys):
        path = str(tmp_path / "d.csv")
        run(["gen", "--n", "600", "--seed", "4", "--out", path])
        assert run(["train", "--data", path, "--arch", "linear", "--m", "3",
                    "--epochs", "2", "--seed", "1", "--out", str(tmp_path / "m.json")]) == 0
        report = json.loads((tmp_path / "m.report.json").read_text())
        calibrated = report.pop("calibrated")
        # The test-split report at 0.5, as train wrote it before it calibrated.
        assert report == {
            "counts": {"false_negative": 0, "false_positive": 14,
                       "true_entangled_correct": 46, "true_separable_correct": 0},
            "rates": {"accuracy": 0.7666666666666667, "precision": 0.7666666666666667,
                      "recall": 1.0},
            "threshold": 0.5,
        }
        # Calibrated on the validation split and reported on the test split, which
        # may still hold false positives.
        model = nn.load_model(str(tmp_path / "m.json"))
        _, validation, test = data.split(
            data.load(path), (0.8, 0.1, 0.1), data.derived_seed(1, data.STREAM_SPLIT)
        )
        threshold = witness.calibrate_threshold(model, validation)
        assert calibrated == cli._report_payload(witness.evaluate(model, test, threshold))
        printed = capsys.readouterr().out
        assert f"witness at threshold {calibrated['threshold']:.6g}" in printed
        assert f"{calibrated['counts']['false_positive']} false positives" in printed

    def test_all_entangled_data_has_no_witness(self, tmp_path, capsys):
        # Rank-1 states are all entangled: no separable state to calibrate against.
        path = str(tmp_path / "d.csv")
        run(["gen", "--n", "300", "--rank", "1", "--out", path])
        assert run(["train", "--data", path, "--arch", "linear", "--m", "3",
                    "--epochs", "1", "--out", str(tmp_path / "m.json")]) == 0
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert report["calibrated"] is None
        assert report["rates"]["accuracy"] == 1.0
        assert "no precision-1 threshold" in capsys.readouterr().out

    def test_missing_data_file_fails(self, tmp_path):
        code = run(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "manifest",
        [{"seed": 3}, [1, 2], {"count": 50}],
        ids=["without-count", "not-an-object", "without-seed"],
    )
    def test_bad_manifest_fails(self, tmp_path, capsys, manifest):
        path = str(tmp_path / "d.csv")
        run(["gen", "--n", "50", "--out", path])
        Path(data.manifest_path(path)).write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["train", "--data", path, "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {data.manifest_path(path)}: ")
        assert not os.path.exists(str(tmp_path / "m.json"))

    def test_non_finite_cell_fails_before_training(self, tmp_path, capsys):
        path = str(tmp_path / "d.csv")
        run(["gen", "--n", "50", "--out", path])
        lines = Path(path).read_text().splitlines()
        lines[3] = "nan" + lines[3][lines[3].index(","):]
        Path(path).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["train", "--data", path, "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == f"error: {path}: row 4: non-finite value\n"
        assert not os.path.exists(str(tmp_path / "m.json"))

    def test_linear_requires_m(self, tmp_path, small_dataset):
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--arch", "linear",
                 "--epochs", "2", "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2

    def test_empty_split_part_fails_before_training(self, tmp_path, capsys):
        path = str(tmp_path / "d.csv")
        run(["gen", "--n", "50", "--out", path])
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        code = run(["train", "--data", path, "--split", "0.9,0.09,0.01",
                    "--out", str(out / "e.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: the test part of a 50-row split is empty\n"
        assert os.listdir(out) == []

    def test_nothing_written_when_the_witness_step_fails(
        self, tmp_path, small_dataset, monkeypatch
    ):
        class WitnessFailed(Exception):
            pass

        def fail(*args):
            raise WitnessFailed

        monkeypatch.setattr(witness, "witness_reports", fail)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(WitnessFailed):
            run(["train", "--data", small_dataset, "--arch", "linear", "--m", "3",
                 "--epochs", "1", "--out", str(out / "m.json")])
        assert os.listdir(out) == []

    def test_bad_split_is_usage_error(self, tmp_path, small_dataset):
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--split", "0.5,0.5,0.5",
                 "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2


class TestSweep:
    def test_rows_per_seed_and_outputs(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = run(
            ["sweep", "--m", "1,2", "--sizes", "900,300,300", "--seeds", "2",
             "--epochs", "3", "--out", out]
        )
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "m,symmetry,seed,accuracy,recall_p1"
        assert len(lines) == 1 + 2 * 2
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert {r["m"] for r in rows} == {1, 2}

    def test_output_bytes_pinned(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run(["sweep", "--m", "1,2", "--sizes", "300,100,100", "--seeds", "1",
                    "--epochs", "2", "--out", out]) == 0
        digests = [hashlib.sha256(read_bytes(p)).hexdigest()
                   for p in (out, str(tmp_path / "s.json"))]
        assert digests == [
            "31acab504eb92b505ee8ecb7f9ac741867e11ff8f49dec582727f4cb8f10d34f",
            "2c2fcb9f0c94162e39998393bfa3a34c77fa7981531896bfc25eecb6b56cdbca",
        ]

    def test_all_entangled_cell_has_zero_recall(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run(["sweep", "--m", "1", "--rank", "1", "--sizes", "300,100,100",
                    "--seeds", "1", "--epochs", "1", "--out", out]) == 0
        rows = json.loads((tmp_path / "s.json").read_text())
        assert [row["recall_at_precision_one"] for row in rows] == [0.0]

    def test_empty_m_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--m", "", "--out", str(tmp_path / "s.csv")])
        assert err.value.code == 2


class TestOutputBytes:
    def test_train_and_weights_bytes_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for command in [
            "gen --n 600 --seed 4 --out d.csv",
            "train --data d.csv --arch linear --m 3 --epochs 2 --seed 1 --out m.json",
            "train --data d.csv --arch full --hidden 16,8,4 --epochs 2 --seed 1 --out f.json",
            "weights --model m.json --out w.csv",
        ]:
            assert run(command.split()) == 0
        names = ["m.json", "m.history.csv", "m.report.json",
                 "f.json", "f.history.csv", "f.report.json", "w.csv"]
        assert {name: hashlib.sha256(read_bytes(name)).hexdigest() for name in names} == {
            "m.json": "9aeeef817bd59c41a5a19603e53fda8fcb93ee4841db3a1796af46f9f949a06f",
            "m.history.csv": "753883b561de785115a5f3e188ce33fd6db24d4d45698e03f2a8860667882828",
            "m.report.json": "dd86b404b203a078c6af400e56a43af99bc8a7ea9c1b35dac90692aa274a3772",
            "f.json": "b9b477a2097a026ee909a6096a54e906a48d57fb8822f7c506741840e302af11",
            "f.history.csv": "55679042bb77fc368259c1c4714cdb8630b4b840c3e7e49b0dee5c0812ea7b80",
            "f.report.json": "7c327e7bcbcaa37176bab785c613bb992868de7f3db916ba361e726d3adf777f",
            "w.csv": "d3f06f573935da3051f32bfe4e8d106153616c9c7d05c19be3f0f045c1322af2",
        }


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids="umask{:03o}".format)
    def test_every_output_gets_the_mode_open_gives(self, tmp_path, monkeypatch, umask):
        """Each file gen, train, weights and sweep write has mode 0o666 less the
        umask, as a plain open() would create it, and no temporary file is left."""
        commands = [
            "gen --n 600 --seed 4 --out d.csv",
            "train --data d.csv --arch linear --m 3 --epochs 2 --seed 1 --out m.json",
            "weights --model m.json --out w.csv",
            "sweep --m 1 --sizes 900,300,300 --seeds 1 --epochs 2 --out s.csv",
        ]
        monkeypatch.chdir(tmp_path)
        old_umask = os.umask(umask)
        try:
            for command in commands:
                assert run(command.split()) == 0
        finally:
            os.umask(old_umask)
        assert sorted(os.listdir(tmp_path)) == sorted([
            "d.csv", "d.csv.manifest.json", "d.csv.arrays.npy", "d.config.json",
            "m.json", "m.history.csv", "m.report.json", "m.config.json",
            "w.csv", "w.config.json", "s.csv", "s.json", "s.config.json",
        ])
        modes = {path.name: oct(stat.S_IMODE(path.stat().st_mode)) for path in tmp_path.iterdir()}
        assert modes == dict.fromkeys(modes, oct(0o666 & ~umask))


class TestFailFast:
    """Bad arguments exit with code 2 before any data is read or model trained."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "1.5"],
            ["--threshold", "0"],
            ["--threshold", "0.7"],
            ["--arch", "linear"],
            ["--arch", "linear", "--m", "0"],
            ["--arch", "linear", "--m", "16"],
            ["--hidden", "16,0,4"],
            ["--arch", "full", "--m", "5"],
            ["--arch", "full", "--hidden", ""],
            ["--arch", "full", "--hidden", "16"],
            ["--lr", "0"],
            ["--lr", "-0.001"],
            ["--lr", "nan"],
            ["--lr", "inf"],
            ["--seed", "-5"],
            ["--arch", "linear", "--m", "3", "--hidden", "8,,4"],
            ["--arch", "linear", "--m", "3", "--hidden", ","],
            ["--arch", "linear", "--m", "3", "--hidden", ""],
            ["--split", "0.8,0.1,nan"],
            ["--split", "nan,0.5,0.5"],
            ["--split", "0.8,0.1,inf"],
            ["--epochs", "0"],
            ["--batch", "0"],
            ["--patience", "0"],
        ],
        ids=["threshold-above-1", "threshold-0", "threshold-removed", "linear-without-m",
             "m-0", "m-16", "hidden-0", "full-with-m", "full-hidden-empty", "full-hidden-one-width",
             "lr-0", "lr-negative", "lr-nan", "lr-inf", "seed-negative",
             "hidden-empty-item", "hidden-comma", "linear-hidden-empty",
             "split-nan-last", "split-nan-first", "split-inf",
             "epochs-0", "batch-0", "patience-0"],
    )
    def test_train_rejects(self, tmp_path, small_dataset, flags):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", small_dataset, "--epochs", "2", *flags,
                 "--out", str(out_dir / "m.json")])
        assert err.value.code == 2
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "flags",
        [["--m", "0,3"], ["--m", "3,16"], ["--m", "2", "--sizes", "300,0,300"],
         ["--m", "2", "--lr", "0"], ["--m", "2", "--lr", "nan"], ["--m", "2", "--seed", "-2"],
         ["--m", "2,,3"], ["--m", ""], ["--m", "2", "--sizes", "300,100,100,"],
         ["--m", "2", "--epochs", "0"], ["--m", "2", "--batch", "0"],
         ["--m", "2", "--patience", "0"]],
        ids=["m-0", "m-16", "size-0", "lr-0", "lr-nan", "seed-negative",
             "m-empty-item", "m-empty", "sizes-trailing-comma",
             "epochs-0", "batch-0", "patience-0"],
    )
    def test_sweep_rejects(self, tmp_path, flags):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--seeds", "1", "--epochs", "1", *flags,
                 "--out", str(out_dir / "s.csv")])
        assert err.value.code == 2
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "command",
        [["gen", "--n", "10"], ["train", "--data", "missing.csv"], ["sweep", "--m", "2"]],
        ids=["gen", "train", "sweep"],
    )
    def test_negative_seed_named(self, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run([*command, "--seed", "-1", "--out", str(out_dir / "o.csv")])
        assert err.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "command, sibling",
        [(["gen", "--n", "10"], "o.csv.arrays.npy"),
         (["train", "--data", "missing.csv"], "o.history.csv"),
         (["sweep", "--m", "2"], "o.json"),
         (["weights", "--model", "missing.json"], "o.config.json")],
        ids=["gen", "train", "sweep", "weights"],
    )
    @pytest.mark.parametrize(
        "out", ["missing-dir/o.csv", "existing-dir", pytest.param("o.csv", id="sibling-dir")]
    )
    def test_unusable_out_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, sibling, out
    ):
        """A missing directory, or an existing directory as the file or as one of the
        files written beside it: exit 2, nothing written, and the --data or --model
        file, which does not exist, is never read."""
        monkeypatch.chdir(tmp_path)
        made = ["existing-dir", sibling]
        for name in made:
            (tmp_path / name).mkdir()
        with pytest.raises(SystemExit) as err:
            run([*command, "--out", out])
        assert err.value.code == 2
        assert "argument --out: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(made)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--lr", "nan"], "learning_rate must be finite and > 0"),
         (["--epochs", "0"], "max_epochs must be >= 1"),
         (["--batch", "-3"], "batch_size must be >= 1"),
         (["--patience", "0"], "patience must be >= 1")],
        ids=["lr", "epochs", "batch", "patience"],
    )
    @pytest.mark.parametrize("command", [["train", "--data", "missing.csv"], ["sweep", "--m", "2"]],
                             ids=["train", "sweep"])
    def test_training_flag_named_by_its_field(self, tmp_path, capsys, command, flags, message):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run([*command, *flags, "--out", str(out_dir / "o.csv")])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("out", ["s.json", "s.config.json"])
    def test_coinciding_outputs_refused(self, tmp_path, capsys, out):
        """sweep writes <stem>.json and <stem>.config.json beside --out, so an --out
        that is one of them would lose a file: exit 2, nothing written."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--m", "1", "--sizes", "300,100,100", "--seeds", "1",
                 "--epochs", "1", "--out", str(out_dir / out)])
        assert err.value.code == 2
        assert f"argument --out: sweep would write two files to {str(out_dir / out)!r}" \
            in capsys.readouterr().err
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("fractions", ["0.8,0.1,nan", "nan,0.5,0.5"])
    def test_non_finite_split_named(self, tmp_path, capsys, fractions):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["train", "--data", "missing.csv", "--split", fractions,
                 "--out", str(out_dir / "m.json")])
        assert err.value.code == 2
        assert "argument --split: fractions must be finite" in capsys.readouterr().err
        assert os.listdir(out_dir) == []


# Each command line, the config file it writes, and that file's exact text.
CONFIG_CASES = [
    pytest.param(
        "gen --n 300 --seed 3 --out gen.csv",
        "gen.config.json",
        """\
{
  "balance": false,
  "command": "gen",
  "n": 300,
  "out": "gen.csv",
  "rank": 4,
  "seed": 3,
  "symmetry": "none"
}
""",
        id="gen",
    ),
    pytest.param(
        "gen --n 40 --seed 7 --symmetry cylindrical --rank 3 --balance --out g.csv",
        "g.config.json",
        """\
{
  "balance": true,
  "command": "gen",
  "n": 40,
  "out": "g.csv",
  "rank": 3,
  "seed": 7,
  "symmetry": "cylindrical"
}
""",
        id="gen-flags",
    ),
    pytest.param(
        "train --data d.csv --arch linear --m 2 --hidden 8 --epochs 2 --batch 64 --lr"
        " 0.01 --patience 1 --seed 1 --split 0.6,0.2,0.2 --out lin.json",
        "lin.config.json",
        """\
{
  "arch": "linear",
  "batch": 64,
  "command": "train",
  "data": "d.csv",
  "epochs": 2,
  "hidden": [
    8
  ],
  "lr": 0.01,
  "m": 2,
  "out": "lin.json",
  "patience": 1,
  "seed": 1,
  "split": [
    0.6,
    0.2,
    0.2
  ]
}
""",
        id="train-linear",
    ),
    pytest.param(
        "train --data d.csv --epochs 1 --hidden 8,4 --out full",
        "full.config.json",
        """\
{
  "arch": "full",
  "batch": 256,
  "command": "train",
  "data": "d.csv",
  "epochs": 1,
  "hidden": [
    8,
    4
  ],
  "lr": 0.001,
  "m": null,
  "out": "full",
  "patience": 10,
  "seed": 0,
  "split": [
    0.8,
    0.1,
    0.1
  ]
}
""",
        id="train-full-no-extension",
    ),
    pytest.param(
        "sweep --m 1,2 --sizes 200,100,100 --seeds 1 --epochs 1 --symmetry cylindrical"
        " --out s.csv",
        "s.config.json",
        """\
{
  "batch": 256,
  "command": "sweep",
  "epochs": 1,
  "lr": 0.001,
  "m": [
    1,
    2
  ],
  "out": "s.csv",
  "patience": 10,
  "rank": 4,
  "seed": 0,
  "seeds": 1,
  "sizes": [
    200,
    100,
    100
  ],
  "symmetry": "cylindrical"
}
""",
        id="sweep",
    ),
    pytest.param(
        "weights --model m3.json --out w.csv",
        "w.config.json",
        """\
{
  "command": "weights",
  "model": "m3.json",
  "out": "w.csv"
}
""",
        id="weights",
    ),
]


class TestConfigRecord:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        """A directory holding a dataset d.csv and a linear m=3 model m3.json."""
        root = tmp_path_factory.mktemp("config")
        run(["gen", "--n", "300", "--seed", "3", "--out", str(root / "d.csv")])
        run(["train", "--data", str(root / "d.csv"), "--arch", "linear", "--m", "3",
             "--epochs", "2", "--out", str(root / "m3.json")])
        return root

    @pytest.mark.parametrize("argv, config_name, expected", CONFIG_CASES)
    def test_records_every_parsed_flag(self, workdir, monkeypatch, argv, config_name, expected):
        monkeypatch.chdir(workdir)
        assert run(argv.split()) == 0
        assert read_bytes(config_name).decode() == expected


class TestWeights:
    def test_csv_layout(self, tmp_path, small_dataset, capsys):
        model_path = str(tmp_path / "m3.json")
        run(["train", "--data", small_dataset, "--arch", "linear", "--m", "3",
             "--epochs", "3", "--out", model_path])
        capsys.readouterr()
        assert run(["weights", "--model", model_path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(FEATURE_NAMES)
        assert len(lines) == 4
        assert all(len(line.split(",")) == 15 for line in lines[1:])

    def test_written_file_matches_model(self, tmp_path, small_dataset):
        model_path = str(tmp_path / "m2.json")
        run(["train", "--data", small_dataset, "--arch", "linear", "--m", "2",
             "--epochs", "3", "--out", model_path])
        out = str(tmp_path / "w.csv")
        run(["weights", "--model", model_path, "--out", out])
        rows = Path(out).read_text().strip().split("\n")[1:]
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(matrix, nn.code_weights(nn.load_model(model_path)))

    def test_malformed_model_file_fails(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        nn.save_model(nn.model_new("linear_code", 0, m=3), str(model_path))
        payload = json.loads(model_path.read_text())
        payload["weights"] = None
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["weights", "--model", str(model_path), "--out", str(out / "w.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model_path}: ")
        assert os.listdir(out) == []

    def test_full_model_rejected(self, tmp_path, small_dataset):
        model_path = str(tmp_path / "full.json")
        run(["train", "--data", small_dataset, "--arch", "full",
             "--hidden", "8,4,2", "--epochs", "2", "--out", model_path])
        assert run(["weights", "--model", model_path]) == 1
