"""Tests for dataset generation, splitting, and CSV/manifest persistence."""

import hashlib
import json
import os
import pickle
import tracemalloc
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
    arrays_path,
    derived_seed,
    generate,
    load,
    manifest_path,
    regenerate,
    save,
    split,
)

COL = {name: k for k, name in enumerate(quantum.FEATURE_NAMES)}


def same_bytes(ds, reference, rows):
    """Features, labels and det_pt of `ds` equal `reference[rows]` byte for byte."""
    return all(
        mine.tobytes() == theirs[rows].tobytes()
        for mine, theirs in (
            (ds.features, reference.features),
            (ds.labels, reference.labels),
            (ds.det_pt, reference.det_pt),
        )
    )


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

    @pytest.mark.parametrize("symmetry", data.SYMMETRY_MODES)
    @pytest.mark.parametrize("rank", [2, 4])
    def test_output_does_not_depend_on_chunk_size(self, monkeypatch, symmetry, rank):
        reference = generate(2100, symmetry=symmetry, seed=13, rank=rank)
        for chunk in (1, 7, 2048, 8192):
            monkeypatch.setattr(data, "_CHUNK", chunk)
            ds = generate(2100, symmetry=symmetry, seed=13, rank=rank)
            assert same_bytes(ds, reference, slice(None)), chunk

    @pytest.mark.parametrize("symmetry", data.SYMMETRY_MODES)
    def test_shorter_draw_is_a_prefix(self, symmetry):
        short = generate(5000, symmetry=symmetry, seed=17)
        long = generate(9000, symmetry=symmetry, seed=17)
        assert same_bytes(short, long, slice(5000))

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
        for rank in (2.0, True):
            with pytest.raises(ValueError, match="rank must be an integer in 1..4"):
                generate(10, seed=1, rank=rank)

    def test_numpy_integer_rank_accepted(self):
        assert generate(10, seed=0, rank=np.int64(2)).equals(generate(10, seed=0, rank=2))


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
        "fractions",
        [(0.5, 0.5, 0.5), (0.8, 0.2, -0.0), (0.9, 0.05, 0.02), (0.8, 0.2),
         (0.8, 0.1, float("nan")), (float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5)],
    )
    def test_invalid_fractions(self, fractions):
        ds = generate(50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                split(ds, fractions, seed=0)

    @pytest.mark.parametrize("fractions", [(0.8, 0.1, float("nan")), (float("-inf"), 1.0, 1.0)])
    def test_non_finite_fractions_named(self, fractions):
        with pytest.raises(ValueError, match="^fractions must be finite"):
            split(generate(50, seed=0), fractions, seed=0)

    def test_empty_part_rejected(self):
        # 1% of 50 rows rounds to none.
        ds = generate(50, seed=0)
        with pytest.raises(ValueError, match="^the test part of a 50-row split is empty$"):
            split(ds, (0.9, 0.09, 0.01), seed=0)


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


def _set_manifest_count(path, count):
    manifest = json.loads(Path(manifest_path(path)).read_text())
    Path(manifest_path(path)).write_text(json.dumps({**manifest, "count": count}))


def assert_load_peak_below_dataset_plus_two_blocks(path):
    tracemalloc.start()
    try:
        loaded = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = loaded.features.nbytes + loaded.labels.nbytes + loaded.det_pt.nbytes
    assert peak < final + 2 * data._CHUNK * 17 * 8
    return loaded


@pytest.fixture
def saved20(tmp_path):
    ds = generate(20, seed=1)
    path = str(tmp_path / "d.csv")
    save(ds, path)
    return ds, path


# SHA-256 of the CSV and the manifest that save(generate(8193, seed=21)) writes,
# as recorded with the per-row writer the block formatter replaced, and with
# 8192-row generation chunks before they became 2048 rows. 8193 rows end in a
# one-row block at either size.
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
# one the whole-file per-row parser gave before block parsing replaced it.
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
        "{path}: manifest count 20 != 0 rows",
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
    # The manifest's count says how many lines are parsed in blocks; every
    # line past them is still checked and counted.
    pytest.param(
        lambda lines: lines.insert(8, lines[8]),
        DatasetIntegrityError,
        "{path}: manifest count 20 != 21 rows",
        id="extra-row",
    ),
    pytest.param(
        lambda lines: lines.append(""),
        DatasetFormatError,
        "{path}: row 22: expected 17 fields, got 1",
        id="trailing-blank-line",
    ),
    pytest.param(
        lambda lines: lines.pop(),
        DatasetIntegrityError,
        "{path}: manifest count 20 != 19 rows",
        id="last-row-removed",
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
        assert Path(arrays_path(p1)).read_bytes() == Path(arrays_path(p2)).read_bytes()

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
        with pytest.raises(DatasetIntegrityError) as err:
            load(path)
        assert str(err.value) == f"{path}: row 4: label inconsistent with det_pt sign"

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

        # A well-formed file never needs the per-row parser (the binary sidecar
        # is removed so that the CSV is parsed).
        os.unlink(arrays_path(path))
        monkeypatch.setattr(data, "_row_values", lambda *args: pytest.fail("per-row parse"))
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
        assert os.path.exists(arrays_path(path))  # left stale by the edit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                load(path)
        assert str(err.value) == message.format(path=path)

    # Blocks of 1 and 3 lines put every edit of MALFORMED past the first block.
    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("edit, error, message", MALFORMED)
    def test_malformed_file_in_later_block(self, saved20, monkeypatch, chunk, edit, error, message):
        monkeypatch.setattr(data, "_PARSE_LINES", chunk)
        self.test_malformed_file(saved20, edit, error, message)

    @pytest.mark.parametrize("rows", [2047, 2048, 2049, 4097])
    def test_blocked_load_equals_whole_file_parse(self, tmp_path, monkeypatch, rows):
        path = str(tmp_path / "d.csv")
        save(generate(rows, symmetry="cylindrical", seed=rows), path)
        os.unlink(arrays_path(path))
        # The one-pass parse that blocked loading replaced.
        table = np.loadtxt(
            path, delimiter=",", skiprows=1, comments=None,
            converters={15: data._label_value}, ndmin=2,
        )
        expected = (np.ascontiguousarray(table[:, :15]), table[:, 15] == 1.0, table[:, 16].copy())
        # A block that read more or fewer lines than its rows would desynchronise
        # the next one and end in the per-row parser.
        monkeypatch.setattr(data, "_row_values", lambda *args: pytest.fail("per-row parse"))
        for chunk in (1, 7, 2048):
            monkeypatch.setattr(data, "_PARSE_LINES", chunk)
            loaded = load(path)
            for array, reference in zip((loaded.features, loaded.labels, loaded.det_pt), expected):
                assert array.dtype == reference.dtype
                assert array.shape == reference.shape
                assert array.tobytes() == reference.tobytes()
                assert array.flags.c_contiguous

    def test_load_peaks_below_dataset_plus_two_blocks(self, tmp_path):
        path = str(tmp_path / "d.csv")
        save(generate(20_000, symmetry="cylindrical", seed=4), path)
        os.unlink(arrays_path(path))
        # A whole-file table of 17 float64 columns next to its feature copy
        # would peak near twice the dataset.
        assert_load_peak_below_dataset_plus_two_blocks(path)

    def test_sidecar_load_peaks_below_dataset_plus_two_blocks(self, tmp_path, monkeypatch):
        path = str(tmp_path / "d.csv")
        save(generate(20_000, symmetry="cylindrical", seed=4), path)
        monkeypatch.setattr(data, "_parse_body", lambda *args: pytest.fail("CSV parse"))
        # Reading the sidecar whole and then copying the arrays out of it would
        # peak near twice the dataset.
        assert_load_peak_below_dataset_plus_two_blocks(path)

    def test_no_final_newline_accepted(self, saved20):
        ds, path = saved20
        Path(path).write_text(Path(path).read_text().rstrip("\n"))
        assert load(path).equals(ds)

    def test_carriage_returns_accepted(self, saved20, monkeypatch):
        # CRLF and all-"\r" files are parsed in blocks like any other.
        ds, path = saved20
        raw = Path(path).read_bytes()
        monkeypatch.setattr(data, "_row_values", lambda *args: pytest.fail("per-row parse"))
        for ending in (b"\r\n", b"\r"):
            Path(path).write_bytes(raw.replace(b"\n", ending))
            assert load(path).equals(ds)

    def test_lone_carriage_return_accepted(self, saved20, monkeypatch):
        # Text mode reads a lone "\r" as a line end, so a file mixing it with
        # newlines is parsed in blocks too.
        ds, path = saved20
        raw = Path(path).read_bytes()
        cut = raw.index(b"\n", raw.index(b"\n") + 1)
        Path(path).write_bytes(raw[:cut] + b"\r" + raw[cut + 1 :])
        monkeypatch.setattr(data, "_row_values", lambda *args: pytest.fail("per-row parse"))
        assert load(path).equals(ds)

    def test_underscore_digits_accepted(self, saved20, monkeypatch):
        # Python's float() reads "1_0" as 10.0, and so does the one numpy call
        # that converts a block, which loads the file as before.
        ds, path = saved20
        _rewrite(path, _set_cell(7, 4, "1_0"))
        monkeypatch.setattr(data, "_row_values", lambda *args: pytest.fail("per-row parse"))
        loaded = load(path)
        expected = ds.features.copy()
        expected[6, 4] = 10.0
        assert np.array_equal(loaded.features, expected)
        assert loaded.features.flags.c_contiguous
        assert np.array_equal(loaded.det_pt, ds.det_pt)

    @pytest.mark.parametrize(
        "manifest",
        [{"seed": 1}, [1, 2], {"count": 20}],
        ids=["without-count", "not-an-object", "without-seed"],
    )
    def test_bad_manifest_rejected(self, saved20, manifest):
        _, path = saved20
        Path(manifest_path(path)).write_text(json.dumps(manifest))
        with pytest.raises(DatasetIntegrityError, match="manifest.json: manifest must be"):
            load(path)

    @pytest.mark.parametrize("count", ["20", 20.0, True, -1], ids=["string", "float", "bool", "negative"])
    def test_bad_manifest_count_rejected(self, saved20, count):
        _, path = saved20
        _set_manifest_count(path, count)
        os.unlink(path)  # the count is refused before the CSV file is opened
        with pytest.raises(DatasetIntegrityError) as err:
            load(path)
        assert str(err.value) == f"{manifest_path(path)}: count must be an integer >= 0, got {count!r}"

    # Each entry regenerate reads, with a value of the wrong type or range. A
    # JSON bool is not an integer, and a truthy string is not a bool.
    @pytest.mark.parametrize(
        "entry, value, requirement",
        [
            ("seed", "1", "an integer >= 0"),
            ("seed", -1, "an integer >= 0"),
            ("seed", True, "an integer >= 0"),
            ("requested_count", "20", "an integer >= 1"),
            ("requested_count", 0, "an integer >= 1"),
            ("rank", 4.0, "an integer in 1..4"),
            ("rank", 5, "an integer in 1..4"),
            ("rank", False, "an integer in 1..4"),
            ("symmetry", 3, "one of ('none', 'cylindrical')"),
            ("symmetry", "Cylindrical", "one of ('none', 'cylindrical')"),
            ("balanced", "no", "true or false"),
            ("balanced", 1, "true or false"),
            ("balanced", None, "true or false"),
        ],
    )
    def test_bad_manifest_entry_rejected(self, saved20, entry, value, requirement):
        _, path = saved20
        manifest = json.loads(Path(manifest_path(path)).read_text())
        Path(manifest_path(path)).write_text(json.dumps({**manifest, entry: value}))
        os.unlink(path)  # the entry is refused before the CSV file is opened
        with pytest.raises(DatasetIntegrityError) as err:
            load(path)
        assert str(err.value) == f"{manifest_path(path)}: {entry} must be {requirement}, got {value!r}"

    def test_huge_manifest_count_allocates_nothing(self, saved20):
        # 10**15 rows cannot fit in the file's bytes, so no array is sized from
        # the count; every line is checked alone and the mismatch reported,
        # within the bound of assert_load_peak_below_dataset_plus_two_blocks.
        ds, path = saved20
        _set_manifest_count(path, 10**15)
        tracemalloc.start()
        try:
            with pytest.raises(DatasetIntegrityError) as err:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: manifest count 1000000000000000 != 20 rows"
        final = ds.features.nbytes + ds.labels.nbytes + ds.det_pt.nbytes
        assert peak < final + 2 * data._CHUNK * 17 * 8

    # One cell of the last row of a 20k-row corpus without its sidecar. Loading
    # it must not fall back to a whole-file parse that holds every row in lists.
    @staticmethod
    def saved20k_with_last_cell(tmp_path, text_of):
        ds = generate(20_000, symmetry="cylindrical", seed=4)
        path = str(tmp_path / "d.csv")
        save(ds, path)
        os.unlink(arrays_path(path))
        _rewrite(path, lambda lines: _set_cell(-1, 4, text_of(lines[-1].split(",")[4]))(lines))
        return ds, path

    def test_float_only_cell_in_last_row_loads_within_bound(self, tmp_path):
        # "0.36" and "0.3_6" are the same number to float() but not to loadtxt.
        def underscored(text):
            i = next(i for i in range(1, len(text)) if text[i - 1 : i + 1].isdigit())
            return text[:i] + "_" + text[i:]

        ds, path = self.saved20k_with_last_cell(tmp_path, underscored)
        assert "_" in Path(path).read_text().splitlines()[-1]
        assert same_bytes(assert_load_peak_below_dataset_plus_two_blocks(path), ds, slice(None))

    def test_bad_cell_in_last_row_named_within_bound(self, tmp_path):
        ds, path = self.saved20k_with_last_cell(tmp_path, lambda text: "abc")
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError) as err:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: row 20001: could not convert string to float: 'abc'"
        final = ds.features.nbytes + ds.labels.nbytes + ds.det_pt.nbytes
        assert peak < final + 2 * data._CHUNK * 17 * 8


# Two CSV body rows, told apart by their label.
ROW_A = b",".join([b"0.5"] * 15) + b",0,0.25"
ROW_B = b",".join([b"0.5"] * 15) + b",1,-0.25"


class TestScan:
    # load reads the manifest's count of lines in blocks through its text
    # handle, so the lines it parses are the ones text mode iterates: "\n",
    # "\r\n" and a lone "\r" each end one, whatever the block size.
    @pytest.mark.parametrize(
        "raw",
        [b"a\nb\n", b"a\nb", b"a\r\nb\r\n", b"a\r\nb", b"\r\n\r\n\n", b"a\n\r\nb\r\n",
         b"a\rb\n", b"a\r\rb\r\n", b"a\r", b"a\r\n\r", b"\r", b"\n\r"],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 20])
    def test_counts_lines_as_text_mode_reads_them(self, tmp_path, monkeypatch, raw, block):
        body = raw.replace(b"a", ROW_A).replace(b"b", ROW_B)
        path = tmp_path / "f"
        path.write_bytes(body)
        with open(path, encoding="utf-8") as handle:
            text_lines = list(handle)
        path.write_bytes(CSV_HEADER.encode() + b"\n" + body)
        manifest = {"seed": 0, "requested_count": 1, "symmetry": "none", "rank": 4, "balanced": False}
        monkeypatch.setattr(data, "_PARSE_LINES", block)

        def load_with_count(count):
            Path(manifest_path(str(path))).write_text(json.dumps({**manifest, "count": count}))
            return load(str(path))

        # A blank line is a row of one field.
        if "\n" in text_lines:
            with pytest.raises(DatasetFormatError) as err:
                load_with_count(len(text_lines))
            row = text_lines.index("\n") + 2
            assert str(err.value) == f"{path}: row {row}: expected 17 fields, got 1"
            return
        for count in (len(text_lines) - 1, len(text_lines) + 1):
            with pytest.raises(DatasetIntegrityError) as err:
                load_with_count(count)
            assert str(err.value) == f"{path}: manifest count {count} != {len(text_lines)} rows"
        monkeypatch.setattr(data, "_row_values", lambda *args: pytest.fail("per-row parse"))
        ds = load_with_count(len(text_lines))
        labels = [line.startswith(ROW_B.decode()) for line in text_lines]
        assert ds.labels.tolist() == labels
        assert ds.det_pt.tolist() == [-0.25 if label else 0.25 for label in labels]
        assert ds.features.shape == (len(text_lines), 15) and (ds.features == 0.5).all()

    @pytest.mark.parametrize("second", [b"\n", b"x\n"])
    def test_return_at_end_of_read(self, tmp_path, second):
        # The text handle's first read ends in "\r"; a newline opening the next
        # one completes the pair, anything else leaves the "\r" a line end.
        path = tmp_path / "f"
        path.write_bytes(ROW_A + b"\r" + second.replace(b"x", ROW_B))
        lines = 1 if second == b"\n" else 2
        for rows in (lines - 1, lines, lines + 1):
            with open(path, encoding="utf-8") as handle:
                handle._CHUNK_SIZE = len(ROW_A) + 1
                if rows != lines:
                    with pytest.raises(DatasetIntegrityError, match=f"count {rows} != {lines} rows"):
                        data._parse_body(str(path), handle, rows)
                    continue
                columns = data._parse_body(str(path), handle, rows)
            assert columns[1].tolist() == [False, True][:lines]


def _sidecar(digest, ds, **fields):
    """The bytes of a sidecar-style .npy record: its header, `digest`, then the
    bytes of each field, by default the arrays of `ds` in the order save writes
    them. A keyword replaces a field's array, or with None drops the field."""
    arrays = {"features": ds.features, "det_pt": ds.det_pt, "labels": ds.labels, **fields}
    arrays = {name: a for name, a in arrays.items() if a is not None}
    descr = [("sha256", "|u1", (32,))] + [(name, a.dtype.str, a.shape) for name, a in arrays.items()]
    return data._arrays_header(descr) + digest + b"".join(a.tobytes() for a in arrays.values())


def _header_size(ds):
    return len(data._arrays_header(data._arrays_descr(len(ds))))


def _edited(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# Edits of the sidecar `good` that save wrote for dataset `ds`, whose CSV file
# has SHA-256 `digest`. load must refuse each one and parse the CSV instead.
BAD_SIDECARS = {
    "empty": lambda ds, digest, good: b"",
    "cut-in-magic": lambda ds, digest, good: good[:9],
    "cut-in-header": lambda ds, digest, good: good[: _header_size(ds) - 1],
    "cut-in-digest": lambda ds, digest, good: good[: _header_size(ds) + 31],
    "cut-in-features": lambda ds, digest, good: good[: _header_size(ds) + 32 + 100],
    "cut-last-byte": lambda ds, digest, good: good[:-1],
    "trailing-byte": lambda ds, digest, good: good + b"\0",
    "garbage": lambda ds, digest, good: np.random.default_rng(0).bytes(len(good)),
    "wrong-key": lambda ds, digest, good: good.replace(b"'features'", b"'Features'", 1),
    "stale-digest": lambda ds, digest, good: _sidecar(bytes(32), ds),
    "missing-key": lambda ds, digest, good: _sidecar(digest, ds, det_pt=None),
    "float32-features": lambda ds, digest, good: _sidecar(
        digest, ds, features=ds.features.astype(np.float32)),
    "int8-labels": lambda ds, digest, good: _sidecar(digest, ds, labels=ds.labels.astype(np.int8)),
    "14-columns": lambda ds, digest, good: _sidecar(digest, ds, features=ds.features[:, :14]),
    "one-row-short": lambda ds, digest, good: _sidecar(
        digest, ds, features=ds.features[:-1], det_pt=ds.det_pt[:-1], labels=ds.labels[:-1]),
    "object-features": lambda ds, digest, good: _sidecar(
        digest, ds, features=ds.features.astype(object)),
    "nan-feature": lambda ds, digest, good: _sidecar(
        digest, ds, features=_edited(ds.features, (5, 3), np.nan)),
    "inf-det": lambda ds, digest, good: _sidecar(
        digest, ds, det_pt=_edited(ds.det_pt, -1, -np.inf), labels=_edited(ds.labels, -1, True)),
    "label-byte-2": lambda ds, digest, good: _sidecar(
        digest, ds, labels=_edited(ds.labels.view(np.uint8), 4, 2).view(np.bool_)),
    "label-against-det-sign": lambda ds, digest, good: _sidecar(
        digest, ds, labels=_edited(ds.labels, 4, not ds.labels[4])),
}


class TestArraysSidecar:
    @pytest.mark.parametrize("symmetry", data.SYMMETRY_MODES)
    @pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 8193])
    def test_sidecar_load_equals_csv_parse(self, tmp_path, monkeypatch, symmetry, rows):
        self.check_sidecar_load(tmp_path, monkeypatch, generate(rows, symmetry, seed=rows))

    def test_balanced_sidecar_load_equals_csv_parse(self, tmp_path, monkeypatch):
        self.check_sidecar_load(tmp_path, monkeypatch, generate(3000, seed=2, balance=True))

    @staticmethod
    def check_sidecar_load(tmp_path, monkeypatch, ds):
        path = str(tmp_path / "d.csv")
        save(ds, path)
        with monkeypatch.context() as patch:
            patch.setattr(data, "_parse_body", lambda *args: pytest.fail("CSV parse"))
            from_sidecar = load(path)
        os.unlink(arrays_path(path))
        from_csv = load(path)
        assert from_sidecar.equals(ds)
        assert from_sidecar.manifest == from_csv.manifest
        for name in ("features", "labels", "det_pt"):
            mine, theirs = getattr(from_sidecar, name), getattr(from_csv, name)
            assert mine.dtype == theirs.dtype
            assert mine.shape == theirs.shape
            assert mine.flags.c_contiguous and theirs.flags.c_contiguous
            assert mine.tobytes() == theirs.tobytes()

    def test_sidecar_is_an_npy_record(self, saved20):
        # Any numpy reads the sidecar without unpickling anything.
        ds, path = saved20
        digest = hashlib.sha256(Path(path).read_bytes()).digest()
        record = np.load(arrays_path(path), allow_pickle=False)
        assert record.shape == ()
        assert record.dtype.names == ("sha256", "features", "det_pt", "labels")
        assert record["sha256"].tobytes() == digest
        assert same_bytes(Dataset(
            record["features"], record["labels"], record["det_pt"], ds.manifest), ds, slice(None))
        # The helper that builds the bad sidecars below builds this one exactly.
        assert _sidecar(digest, ds) == Path(arrays_path(path)).read_bytes()

    @pytest.mark.parametrize("make", BAD_SIDECARS.values(), ids=BAD_SIDECARS.keys())
    def test_bad_sidecar_gives_csv_result(self, saved20, make):
        ds, path = saved20
        digest = hashlib.sha256(Path(path).read_bytes()).digest()
        good = Path(arrays_path(path)).read_bytes()
        Path(arrays_path(path)).write_bytes(make(ds, digest, good))
        assert data._read_arrays(path, len(ds)) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load(path)
        assert same_bytes(loaded, ds, slice(None))
        assert loaded.features.flags.c_contiguous

    def test_pickled_sidecar_never_unpickled(self, saved20, monkeypatch):
        ds, path = saved20
        np.save(arrays_path(path), np.array([ds.features, None], dtype=object), allow_pickle=True)
        monkeypatch.setattr(pickle, "load", lambda *a, **k: pytest.fail("unpickled"))
        assert load(path).equals(ds)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_missing_sidecar_gives_csv_result(self, saved20, kind):
        ds, path = saved20
        os.unlink(arrays_path(path))
        if kind == "directory":
            os.mkdir(arrays_path(path))
        assert load(path).equals(ds)

    def test_sidecar_of_another_dataset_ignored(self, tmp_path):
        # The CSV and manifest of b replace those of a, leaving a's sidecar of
        # the same row count behind.
        a, b = generate(50, seed=1), generate(50, seed=2)
        path, other = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save(a, path)
        save(b, other)
        os.replace(other, path)
        os.replace(manifest_path(other), manifest_path(path))
        assert load(path).equals(b)

    def test_saved_non_finite_value_fails_as_before(self, tmp_path):
        # The sidecar matches the CSV bytes but holds a NaN, so the CSV is
        # parsed and raises its own error.
        ds = generate(20, seed=1)
        ds.features[5, 3] = np.nan
        path = str(tmp_path / "d.csv")
        save(ds, path)
        with pytest.raises(DatasetFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: row 7: non-finite value"


class TestDerivedSeed:
    def test_stable_and_distinct(self):
        assert derived_seed(7, 0) == derived_seed(7, 0)
        streams = {derived_seed(7, s) for s in range(5)}
        assert len(streams) == 5
        assert derived_seed(7, 1, 3) != derived_seed(7, 1, 4)
