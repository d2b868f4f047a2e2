"""Tests for dataset generation, splitting, and CSV/manifest persistence."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from entwitness import data, quantum
from entwitness.data import (
    CSV_HEADER,
    Dataset,
    DatasetFormatError,
    DatasetIntegrityError,
    derived_seed,
    generate,
    load,
    manifest_path,
    regenerate,
    save,
    split,
)

COL = {name: k for k, name in enumerate(quantum.FEATURE_NAMES)}


class TestGenerate:
    def test_deterministic(self):
        a = generate(1000, seed=7)
        b = generate(1000, seed=7)
        assert a.equals(b)

    def test_chunk_boundary_matches_per_state_path(self):
        # The batch generator must agree with drawing states one at a time.
        count = data._CHUNK + 5
        ds = generate(count, seed=3)
        rng = np.random.default_rng(3)
        singles = [quantum.random_density_matrix(rng) for _ in range(count)]
        for i in (0, 1, data._CHUNK - 1, data._CHUNK, count - 1):
            gamma = quantum.features_from_state(singles[i])
            assert np.abs(ds.features[i] - gamma).max() < 1e-13
            assert ds.det_pt[i] == pytest.approx(
                quantum.det_partial_transpose(singles[i]), abs=1e-15
            )

    def test_labels_match_det_sign(self):
        ds = generate(5000, seed=1)
        assert np.array_equal(ds.labels, ds.det_pt < 0)

    def test_manifest_fields(self):
        ds = generate(500, symmetry="cylindrical", seed=9, rank=3)
        m = ds.manifest
        assert m["count"] == 500
        assert m["seed"] == 9
        assert m["symmetry"] == "cylindrical"
        assert m["ensemble"] == "ginibre_rank_k"
        assert m["rank"] == 3
        assert m["separable_fraction"] == pytest.approx(np.mean(~ds.labels))
        assert generate(10, seed=0).manifest["ensemble"] == "ginibre_rank4"

    def test_cylindrical_samples_live_in_invariant_subspace(self):
        ds = generate(3000, symmetry="cylindrical", seed=4)
        g = ds.features
        for name in ("g01", "g02", "g10", "g20", "g13", "g31", "g23", "g32"):
            assert np.abs(g[:, COL[name]]).max() == 0.0
        assert np.array_equal(g[:, COL["g11"]], g[:, COL["g22"]])
        assert np.array_equal(g[:, COL["g12"]], -g[:, COL["g21"]])

    def test_separable_fraction_near_constant(self):
        from test_quantum import SEPARABLE_FRACTION

        ds = generate(100_000, seed=12)
        assert ds.manifest["separable_fraction"] == pytest.approx(
            SEPARABLE_FRACTION, abs=0.01
        )

    def test_balance_flag(self):
        ds = generate(20_000, seed=5, balance=True)
        n_sep = int(np.sum(~ds.labels))
        n_ent = int(np.sum(ds.labels))
        assert n_sep == n_ent
        assert ds.manifest["balanced"] is True
        assert ds.manifest["count"] == len(ds)
        assert ds.manifest["requested_count"] == 20_000
        assert generate(20_000, seed=5, balance=True).equals(ds)

    def test_balance_without_separable_states_raises(self):
        # Rank-1 (pure) Ginibre states are entangled with probability 1.
        assert generate(200, seed=5, rank=1).labels.all()
        with pytest.raises(ValueError, match="no separable state"):
            generate(200, seed=5, rank=1, balance=True)

    def test_regenerate_from_manifest(self):
        for kwargs in (
            dict(count=800, seed=2),
            dict(count=800, seed=2, symmetry="cylindrical"),
            dict(count=800, seed=2, balance=True),
        ):
            ds = generate(**kwargs)
            assert regenerate(ds.manifest).equals(ds)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate(0, seed=1)
        with pytest.raises(ValueError):
            generate(10, symmetry="spherical", seed=1)
        with pytest.raises(ValueError):
            generate(10, seed=1, rank=7)


class TestSplit:
    def test_exact_sizes(self):
        ds = generate(1000, seed=6)
        parts = split(ds, (0.8, 0.1, 0.1), seed=0)
        assert [len(p) for p in parts] == [800, 100, 100]

    def test_deterministic(self):
        ds = generate(400, seed=6)
        first = split(ds, (0.8, 0.1, 0.1), seed=5)
        second = split(ds, (0.8, 0.1, 0.1), seed=5)
        for a, b in zip(first, second):
            assert a.equals(b)

    def test_partition_is_exact(self):
        ds = generate(503, seed=8)
        parts = split(ds, (0.55, 0.25, 0.2), seed=1)
        assert sum(len(p) for p in parts) == len(ds)
        stacked = np.concatenate([p.features for p in parts])
        original = ds.features[np.lexsort(ds.features.T)]
        recovered = stacked[np.lexsort(stacked.T)]
        assert np.array_equal(original, recovered)

    def test_manifests_record_roles(self):
        ds = generate(100, seed=3)
        train, val, test = split(ds, (0.6, 0.2, 0.2), seed=9)
        assert train.manifest["role"] == "train"
        assert val.manifest["role"] == "validation"
        assert test.manifest["role"] == "test"
        for part in (train, val, test):
            assert part.manifest["parent_seed"] == 3
            assert part.manifest["split_seed"] == 9
            assert part.manifest["count"] == len(part)

    @pytest.mark.parametrize(
        "fractions", [(0.5, 0.5, 0.5), (0.8, 0.2, -0.0), (0.9, 0.05, 0.02), (0.8, 0.2)]
    )
    def test_invalid_fractions(self, fractions):
        ds = generate(50, seed=0)
        with pytest.raises(ValueError):
            split(ds, fractions, seed=0)


def _set_cell(row, col, text):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = text
        lines[row] = ",".join(cells)

    return edit


def _blank_line_after_lone_cr(lines):
    # Text mode splits at the lone carriage return, so the file keeps as many
    # newlines as loadtxt returns rows although it holds a blank line.
    lines.insert(11, "")
    lines[3:5] = [lines[3] + "\r" + lines[4]]


def _rewrite(path, edit):
    lines = Path(path).read_text().splitlines()
    edit(lines)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.fixture
def saved20(tmp_path):
    ds = generate(20, seed=1)
    path = str(tmp_path / "d.csv")
    save(ds, path)
    return ds, path


# SHA-256 of the CSV and the manifest that save(generate(8193, seed=21)) writes,
# as recorded with the per-row writer the block formatter replaced. 8193 rows
# are one full _CHUNK block plus one row.
GOLDEN_DIGESTS = {
    "cylindrical": (
        "f118a1cee8396f7d011942e9dd653312c23ff5d2e5b51ac5fbad441911497082",
        "7396c8d3f403a0b417f71cc245086368340df72a3ec742e26f308f5bdfb388f2",
    ),
    "none": (
        "021df49249a0b6dcd013be545bdcdb7847770a64f63749799710fd7f81b319d2",
        "8e3eae2d83fd41a30c3b8d7cc1fb75dac40153fb79ea0f968a4dd8f7aad53015",
    ),
}

# Edits of a saved 20-row file (lines[0] is the header), with the error and
# message load raises. Apart from the non-finite cases, each outcome is the
# one the per-row parser gave before np.loadtxt fronted it.
MALFORMED = [
    pytest.param(
        lambda lines: lines.insert(4, ""),
        DatasetFormatError,
        "{path}: row 5: expected 17 fields, got 1",
        id="blank-line",
    ),
    pytest.param(
        lambda lines: lines.insert(4, "   "),
        DatasetFormatError,
        "{path}: row 5: expected 17 fields, got 1",
        id="whitespace-line",
    ),
    pytest.param(
        _set_cell(3, 15, "1.0"),
        DatasetFormatError,
        "{path}: row 4: label must be 0 or 1, got '1.0'",
        id="label-1.0",
    ),
    pytest.param(
        _set_cell(3, 15, " 1"),
        DatasetFormatError,
        "{path}: row 4: label must be 0 or 1, got ' 1'",
        id="label-space-1",
    ),
    pytest.param(
        _set_cell(6, 2, "#1"),
        DatasetFormatError,
        "{path}: row 7: could not convert string to float: '#1'",
        id="hash-cell",
    ),
    # Read as a comment, "#1" would cut this cell to -0.5 and the row would parse.
    pytest.param(
        _set_cell(6, 16, "-0.5#1"),
        DatasetFormatError,
        "{path}: row 7: could not convert string to float: '-0.5#1'",
        id="hash-after-det",
    ),
    pytest.param(
        _blank_line_after_lone_cr,
        DatasetFormatError,
        "{path}: row 12: expected 17 fields, got 1",
        id="blank-line-after-lone-cr",
    ),
    pytest.param(
        lambda lines: lines.__delitem__(slice(1, None)),
        DatasetIntegrityError,
        "manifest count 20 != 0 rows",
        id="header-only",
    ),
    pytest.param(
        _set_cell(5, 3, "nan"),
        DatasetFormatError,
        "{path}: row 6: non-finite value",
        id="nan-feature",
    ),
    pytest.param(
        _set_cell(5, 16, "-inf"),
        DatasetFormatError,
        "{path}: row 6: non-finite value",
        id="inf-det",
    ),
    pytest.param(
        lambda lines: (_set_cell(5, 3, "nan")(lines), _set_cell(9, 15, "2")(lines)),
        DatasetFormatError,
        "{path}: row 6: non-finite value",
        id="nan-before-bad-label",
    ),
]

class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = generate(300, seed=11, symmetry="cylindrical")
        path = str(tmp_path / "d.csv")
        save(ds, path)
        assert load(path).equals(ds)

    def test_header_pinned(self, tmp_path):
        ds = generate(5, seed=0)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        with open(path) as fh:
            assert fh.readline().rstrip("\n") == CSV_HEADER
        assert CSV_HEADER.startswith("g01,g02,g03,g10,")
        assert CSV_HEADER.endswith("g33,label,det_pt")

    def test_save_bytes_deterministic(self, tmp_path):
        ds = generate(200, seed=13)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save(ds, p1)
        save(generate(200, seed=13), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        assert Path(manifest_path(p1)).read_bytes() == Path(manifest_path(p2)).read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        ds = generate(50, seed=1)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        lines = Path(path).read_text().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-10]) + "\n")
        with pytest.raises(DatasetIntegrityError):
            load(path)

    def test_malformed_row_names_first_bad_record(self, tmp_path):
        ds = generate(20, seed=1)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        lines = Path(path).read_text().splitlines()
        lines[5] = lines[5].replace(",", ",junk,", 1)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="row 6"):
            load(path)

    def test_inconsistent_label_rejected(self, tmp_path):
        ds = generate(20, seed=1)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        lines = Path(path).read_text().splitlines()
        cells = lines[3].split(",")
        cells[15] = "0" if cells[15] == "1" else "1"
        lines[3] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DatasetIntegrityError, match="label"):
            load(path)

    def test_wrong_header_rejected(self, tmp_path):
        ds = generate(5, seed=1)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        text = Path(path).read_text()
        with open(path, "w") as fh:
            fh.write("x," + text)
        with pytest.raises(DatasetFormatError, match="header"):
            load(path)

    def test_missing_manifest_rejected(self, tmp_path):
        ds = generate(5, seed=1)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        import os

        os.unlink(manifest_path(path))
        with pytest.raises(DatasetIntegrityError, match="manifest"):
            load(path)

    def test_bad_label_value_rejected(self, tmp_path):
        ds = generate(5, seed=1)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        lines = Path(path).read_text().splitlines()
        cells = lines[2].split(",")
        cells[15] = "2"
        lines[2] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="label"):
            load(path)


    @pytest.mark.parametrize("symmetry", sorted(GOLDEN_DIGESTS))
    def test_golden_bytes(self, tmp_path, monkeypatch, symmetry):
        ds = generate(8193, symmetry=symmetry, seed=21)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        csv_digest, manifest_digest = GOLDEN_DIGESTS[symmetry]
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(Path(manifest_path(path)).read_bytes()).hexdigest() == manifest_digest

        # A well-formed file never needs the per-row parser.
        monkeypatch.setattr(data, "_parse_rows", lambda path: pytest.fail("per-row parse"))
        loaded = load(path)
        assert loaded.equals(ds)
        for array in (loaded.features, loaded.labels, loaded.det_pt):
            assert array.flags.c_contiguous
        assert loaded.features.dtype == np.float64
        assert loaded.det_pt.dtype == np.float64
        assert loaded.labels.dtype == np.bool_

    @pytest.mark.parametrize("edit, error, message", MALFORMED)
    def test_malformed_file(self, saved20, edit, error, message):
        _, path = saved20
        _rewrite(path, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                load(path)
        assert str(err.value) == message.format(path=path)

    def test_no_final_newline_accepted(self, saved20):
        ds, path = saved20
        Path(path).write_text(Path(path).read_text().rstrip("\n"))
        assert load(path).equals(ds)

    def test_carriage_returns_accepted(self, saved20):
        ds, path = saved20
        Path(path).write_bytes(Path(path).read_bytes().replace(b"\n", b"\r\n"))
        assert load(path).equals(ds)

    def test_underscore_digits_accepted(self, saved20):
        # Python's float() reads "1_0" as 10.0; loadtxt does not, so this
        # file takes the per-row parser and loads as before.
        ds, path = saved20
        _rewrite(path, _set_cell(7, 4, "1_0"))
        loaded = load(path)
        expected = ds.features.copy()
        expected[6, 4] = 10.0
        assert np.array_equal(loaded.features, expected)
        assert loaded.features.flags.c_contiguous
        assert np.array_equal(loaded.det_pt, ds.det_pt)

    @pytest.mark.parametrize(
        "manifest", [{"seed": 1}, [1, 2]], ids=["without-count", "not-an-object"]
    )
    def test_bad_manifest_rejected(self, saved20, manifest):
        _, path = saved20
        Path(manifest_path(path)).write_text(json.dumps(manifest))
        with pytest.raises(DatasetIntegrityError, match="manifest.json: manifest must be"):
            load(path)


class TestDerivedSeed:
    def test_stable_and_distinct(self):
        assert derived_seed(7, 0) == derived_seed(7, 0)
        streams = {derived_seed(7, s) for s in range(5)}
        assert len(streams) == 5
        assert derived_seed(7, 1, 3) != derived_seed(7, 1, 4)
