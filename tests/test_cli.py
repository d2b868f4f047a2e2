"""End-to-end tests of the command-line interface."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from entwitness import cli, data, nn
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
        assert run(["gen", "--n", "10", "--out", out]) == 1

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

    def test_missing_data_file_fails(self, tmp_path):
        code = run(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "manifest", [{"seed": 3}, [1, 2]], ids=["without-count", "not-an-object"]
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

    def test_empty_m_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--m", "", "--out", str(tmp_path / "s.csv")])
        assert err.value.code == 2


class TestFailFast:
    """Bad arguments exit with code 2 before any data is read or model trained."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "1.5"],
            ["--threshold", "0"],
            ["--arch", "linear"],
            ["--arch", "linear", "--m", "0"],
            ["--arch", "linear", "--m", "16"],
            ["--hidden", "16,0,4"],
            ["--arch", "full", "--m", "5"],
            ["--arch", "full", "--hidden", ""],
            ["--arch", "full", "--hidden", "16"],
        ],
        ids=["threshold-above-1", "threshold-0", "linear-without-m", "m-0", "m-16", "hidden-0",
             "full-with-m", "full-hidden-empty", "full-hidden-one-width"],
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
        [["--m", "0,3"], ["--m", "3,16"], ["--m", "2", "--sizes", "300,0,300"]],
        ids=["m-0", "m-16", "size-0"],
    )
    def test_sweep_rejects(self, tmp_path, flags):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(SystemExit) as err:
            run(["sweep", *flags, "--seeds", "1", "--epochs", "1",
                 "--out", str(out_dir / "s.csv")])
        assert err.value.code == 2
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
        " 0.01 --patience 1 --seed 1 --split 0.6,0.2,0.2 --threshold 0.7 --out lin.json",
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
  ],
  "threshold": 0.7
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
  ],
  "threshold": 0.5
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

    def test_full_model_rejected(self, tmp_path, small_dataset):
        model_path = str(tmp_path / "full.json")
        run(["train", "--data", small_dataset, "--arch", "full",
             "--hidden", "8,4,2", "--epochs", "2", "--out", model_path])
        assert run(["weights", "--model", model_path]) == 1
