"""Reproducible generation, splitting and persistence of labeled state corpora.

A dataset is a flat table of feature rows (the 15 Pauli expectations), boolean
entanglement labels, and the determinant values the labels came from, plus a
manifest that pins everything needed to regenerate it bit-identically.

On disk a dataset is a CSV file, the format, with two sidecars: the manifest
(`<path>.manifest.json`), which also gives the row count, and a binary copy of
the arrays (`<path>.arrays.npy`) keyed by the SHA-256 of the CSV bytes. `load`
takes the arrays from the binary copy only when it belongs to exactly those
bytes, and otherwise converts the CSV's cells with float() in blocks of lines,
whatever their ends, so deleting the binary copy only costs time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import quantum

CSV_HEADER = ",".join(quantum.FEATURE_NAMES) + ",label,det_pt"

SYMMETRY_MODES = ("none", "cylindrical")

# Labeled sub-stream ids: every component derives its own RNG from a root seed
# and one of these, so data, init, shuffle, split and balance draws never alias.
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_SPLIT = 3
STREAM_BALANCE = 4

# Rows per generation and CSV write block. The output bytes do not depend on
# it; 2048 rows keep each block's temporaries near 1 MB.
_CHUNK = 2048

# Lines per CSV parse block. As 17 Python strings a line takes about 11 times
# its 136 bytes of float64 values, so a load peaks about 200 KB above the dataset.
_PARSE_LINES = 128

# One CSV row: 15 features, the 0/1 label, det_pt.
_ROW_FORMAT = ",".join(["%.17g"] * 15) + ",%d,%.17g\n"

# The manifest entries that load, split and regenerate read, each with what
# load requires of it. `type(v) is int` refuses JSON true and false.
_MANIFEST_ENTRIES = {
    "count": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "requested_count": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "rank": (
        f"an integer in {quantum.RANKS[0]}..{quantum.RANKS[-1]}",
        lambda v: type(v) is int and v in quantum.RANKS,
    ),
    "symmetry": (f"one of {SYMMETRY_MODES}", lambda v: v in SYMMETRY_MODES),
    "balanced": ("true or false", lambda v: isinstance(v, bool)),
}


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed."""


class DatasetIntegrityError(ValueError):
    """A dataset file parsed but violates a dataset invariant."""


def derived_seed(root_seed: int, *stream: int) -> int:
    """Stable child seed for a labeled randomness stream under one root seed."""
    entropy = [int(root_seed)] + [int(s) for s in stream]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # (n, 15) float64
    labels: np.ndarray  # (n,) bool, True = entangled
    det_pt: np.ndarray  # (n,) float64
    manifest: dict

    def __len__(self) -> int:
        return self.features.shape[0]

    def equals(self, other: "Dataset") -> bool:
        return (
            np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.det_pt, other.det_pt)
            and self.manifest == other.manifest
        )


def _check_invariants(ds: Dataset, path: str) -> None:
    count = ds.manifest["count"]
    if count != len(ds):
        raise DatasetIntegrityError(f"{path}: manifest count {count} != {len(ds)} rows")
    bad = np.flatnonzero(ds.labels != (ds.det_pt < 0.0)) + 2
    if bad.size:  # numbered as CSV file lines, the header being line 1
        raise DatasetIntegrityError(f"{path}: row {bad[0]}: label inconsistent with det_pt sign")


def generate(
    count: int,
    symmetry: str = "none",
    seed: int = 0,
    rank: int = 4,
    balance: bool = False,
) -> Dataset:
    """Draw `count` random states, optionally twirl, featurize, and label them.

    In cylindrical mode each state is twirled before featurization and the
    label is computed on the twirled state. With `balance` the majority class
    is subsampled (using its own derived stream) to match the minority class;
    a draw without any state of one class cannot be balanced and raises.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if symmetry not in SYMMETRY_MODES:
        raise ValueError(f"symmetry must be one of {SYMMETRY_MODES}, got {symmetry!r}")

    rng = np.random.default_rng(seed)
    features = np.empty((count, 15), dtype=float)
    det_pt = np.empty(count, dtype=float)
    pos = 0
    while pos < count:
        k = min(_CHUNK, count - pos)
        rhos = quantum._random_density_matrices(rng, k, rank)
        gammas = quantum._features_of_matrices(rhos)
        if symmetry == "cylindrical":
            gammas = quantum._twirl_features(gammas)
            rhos = quantum._matrices_from_features(gammas)
        features[pos : pos + k] = gammas
        det_pt[pos : pos + k] = quantum._det_pt_of_matrices(rhos)
        pos += k
    labels = det_pt < 0.0

    if balance:
        keep = _balance_indices(labels, seed)
        features, labels, det_pt = features[keep], labels[keep], det_pt[keep]

    manifest = {
        "seed": int(seed),
        "ensemble": "ginibre_rank4" if rank == 4 else "ginibre_rank_k",
        "rank": int(rank),
        "symmetry": symmetry,
        "count": int(labels.size),
        "requested_count": int(count),
        "balanced": bool(balance),
        "separable_fraction": float(np.mean(~labels)),
    }
    return Dataset(features, labels, det_pt, manifest)


def _balance_indices(labels: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed), STREAM_BALANCE])
    entangled = np.flatnonzero(labels)
    separable = np.flatnonzero(~labels)
    for name, members in (("entangled", entangled), ("separable", separable)):
        if members.size == 0:
            raise ValueError(f"cannot balance: no {name} state among {labels.size} draws")
    if entangled.size >= separable.size:
        majority, n_keep = entangled, separable.size
        minority = separable
    else:
        majority, n_keep = separable, entangled.size
        minority = entangled
    kept_majority = rng.choice(majority, size=n_keep, replace=False)
    return np.sort(np.concatenate([minority, kept_majority]))


def regenerate(manifest: dict) -> Dataset:
    """Rebuild a generated dataset bit-identically from its manifest."""
    return generate(
        count=manifest["requested_count"],
        symmetry=manifest["symmetry"],
        seed=manifest["seed"],
        rank=manifest["rank"],
        balance=manifest["balanced"],
    )


def check_fractions(fractions: Sequence[float]) -> np.ndarray:
    """The (train, validation, test) fractions as an array; three finite positive
    numbers summing to 1, or a ValueError."""
    frac = np.asarray(fractions, dtype=float)
    if frac.shape != (3,):
        raise ValueError("fractions must be three numbers (train, validation, test)")
    if not np.isfinite(frac).all():
        raise ValueError(f"fractions must be finite, got {fractions}")
    if np.any(frac <= 0.0):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if abs(frac.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got sum {frac.sum()!r}")
    return frac


def split(
    ds: Dataset, fractions: Sequence[float], seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled partition into train / validation / test parts, none empty."""
    frac = check_fractions(fractions)
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.round(np.cumsum(frac) * n).astype(int)
    bounds[2] = n
    pieces = (perm[: bounds[0]], perm[bounds[0] : bounds[1]], perm[bounds[1] :])

    parts = []
    for role, idx in zip(("train", "validation", "test"), pieces):
        if idx.size == 0:
            raise ValueError(f"the {role} part of a {n}-row split is empty")
        manifest = dict(ds.manifest)
        manifest.update(
            {
                "role": role,
                "parent_seed": ds.manifest["seed"],
                "split_seed": int(seed),
                "count": int(idx.size),
                "separable_fraction": float(np.mean(~ds.labels[idx])),
            }
        )
        parts.append(Dataset(ds.features[idx], ds.labels[idx], ds.det_pt[idx], manifest))
    return tuple(parts)


def _write_atomic(path: str, chunks: str | Iterable[str | bytes | np.ndarray]) -> None:
    """Write text, or a stream of text (UTF-8) and bytes-like chunks, to a
    temporary file renamed onto `path`. Line ends are written as given.

    The temporary file is created by `open`, so `path` gets the mode a plain
    `open(path, "w")` would give a new file: 0o666 less the process umask.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    handle = open(tmp, "xb")  # fails rather than take over an existing file
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def manifest_path(path: str) -> str:
    return f"{path}.manifest.json"


def arrays_path(path: str) -> str:
    return f"{path}.arrays.npy"


def _csv_blocks(ds: Dataset, digest: "hashlib._Hash") -> Iterator[bytes]:
    """The CSV file in `_CHUNK`-row blocks, each formatted by one `%` operation
    and added to `digest` as it is yielded."""
    header = (CSV_HEADER + "\n").encode()
    digest.update(header)
    yield header
    for start in range(0, len(ds), _CHUNK):
        stop = start + _CHUNK
        # Labels become 0.0/1.0 here, which %d prints as 0/1.
        rows = np.column_stack(
            (ds.features[start:stop], ds.labels[start:stop], ds.det_pt[start:stop])
        )
        block = ((_ROW_FORMAT * rows.shape[0]) % tuple(rows.ravel().tolist())).encode()
        digest.update(block)
        yield block


def _arrays_header(descr: list[tuple[str, str, tuple[int, ...]]]) -> bytes:
    """The .npy (format 1.0) header of one structured record with fields `descr`.

    Written here rather than by numpy so that the bytes do not depend on the
    numpy version; `np.load` reads the file with `allow_pickle=False`.
    """
    text = repr({"descr": descr, "fortran_order": False, "shape": ()})
    text += " " * (-(10 + len(text) + 1) % 64) + "\n"  # data starts 64-byte aligned
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("ascii")


def _arrays_descr(rows: int) -> list[tuple[str, str, tuple[int, ...]]]:
    """The fields of the binary sidecar of a `rows`-row dataset, in file order.

    The CSV digest comes first, so a stale sidecar is told from its first bytes;
    labels come last, so the float fields stay 8-byte aligned.
    """
    f8, b1 = np.dtype(np.float64).str, np.dtype(np.bool_).str
    return [
        ("sha256", "|u1", (32,)),
        ("features", f8, (rows, 15)),
        ("det_pt", f8, (rows,)),
        ("labels", b1, (rows,)),
    ]


def save(ds: Dataset, path: str) -> None:
    """Write the dataset as CSV plus its two sidecars, each file atomically.

    The manifest goes to `manifest_path(path)`. The binary sidecar at
    `arrays_path(path)` holds the SHA-256 of the CSV bytes and the three arrays
    as one .npy record; its bytes depend only on the dataset (and the
    platform's byte order). It is written last, so a save cut short leaves at
    worst a sidecar of other bytes, which `load` ignores.
    """
    _check_invariants(ds, path)
    digest = hashlib.sha256()
    _write_atomic(path, _csv_blocks(ds, digest))
    _write_atomic(
        manifest_path(path), json.dumps(ds.manifest, indent=2, sort_keys=True) + "\n"
    )
    _write_atomic(
        arrays_path(path),
        (
            _arrays_header(_arrays_descr(len(ds))) + digest.digest(),
            np.ascontiguousarray(ds.features, dtype=np.float64),
            np.ascontiguousarray(ds.det_pt, dtype=np.float64),
            np.ascontiguousarray(ds.labels, dtype=np.bool_),
        ),
    )


def _label_value(text: str) -> float:
    if text not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {text!r}")
    return float(text)


def _all_finite(array: np.ndarray) -> bool:
    """True if every value is finite, checked in `_CHUNK`-row slices."""
    return all(np.isfinite(array[i : i + _CHUNK]).all() for i in range(0, len(array), _CHUNK))


def _read_arrays(path: str, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Features, labels and det_pt from the binary sidecar, or None unless it
    is the one `save` writes for the CSV file at `path` holding the manifest's
    `rows` rows.

    The CSV file is hashed only once the sidecar's .npy header matches `rows`,
    and its SHA-256 is compared with the sidecar's before any array is
    allocated; the arrays are then read straight into place. The values must
    be finite, with label bytes of 0 or 1 that agree with the sign of det_pt,
    so that the sidecar can neither change what `load` returns nor make it
    raise an error the CSV file would not.
    """
    header = _arrays_header(_arrays_descr(rows))
    try:
        with open(arrays_path(path), "rb") as handle:
            if handle.read(len(header)) != header:
                return None
            digest = hashlib.sha256()
            with open(path, "rb") as csv:
                for block in iter(lambda: csv.read(1 << 16), b""):
                    digest.update(block)
            if handle.read(32) != digest.digest():
                return None
            features = np.empty((rows, 15))
            det_pt = np.empty(rows)
            labels = np.empty(rows, dtype=bool)
            for array in (features, det_pt, labels):
                if handle.readinto(array) != array.nbytes:
                    return None
            if handle.read(1):
                return None
    except OSError:
        return None
    # Comparing the label bytes with a bool array checks both that they are 0
    # or 1 and that they match the sign of det_pt.
    if not (
        _all_finite(features)
        and _all_finite(det_pt)
        and np.array_equal(labels.view(np.uint8), det_pt < 0.0)
    ):
        return None
    return features, labels, det_pt


def _row_values(path: str, lineno: int, line: str) -> list[float]:
    """The 17 values of CSV file line `lineno`, or a DatasetFormatError naming it."""
    cells = line.rstrip("\n").split(",")
    if len(cells) != 17:
        raise DatasetFormatError(f"{path}: row {lineno}: expected 17 fields, got {len(cells)}")
    try:
        values = [float(c) for c in cells[:15]]
        det = float(cells[16])
        values.append(_label_value(cells[15]))
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from exc
    values.append(det)
    if not all(map(math.isfinite, values)):
        raise DatasetFormatError(f"{path}: row {lineno}: non-finite value")
    return values


def _parse_block(path: str, first: int, lines: list[str]) -> np.ndarray:
    """The (len(lines), 17) table of the CSV lines numbered from `first`: one
    np.array call converts every cell with float(), the grammar of `_row_values`
    (a line's trailing newline is whitespace to it). A block that call does not
    vouch for goes line by line, raising the error of its first bad row."""
    cells = [line.split(",") for line in lines]
    try:
        block = np.array(cells, dtype=float)
    except ValueError:  # a cell float() rejects, or rows of unequal length
        valid = False
    else:
        valid = block.shape == (len(lines), 17) and np.isfinite(block).all()
    if not (valid and {row[15] for row in cells} <= {"0", "1"}):
        block = np.array([_row_values(path, first + i, line) for i, line in enumerate(lines)])
    return block


def _parse_body(path: str, handle: TextIO, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, labels and det_pt of the `count` lines after the header.

    The arrays are sized from `count` only if the file holds 33 bytes per row
    (17 one-character fields, 16 commas), and filled from `_PARSE_LINES`-line
    blocks read through `itertools.islice` from the text handle, whose
    universal newlines end a line at "\n", "\r\n" or a lone "\r". Lines past
    the arrays are checked one by one and counted; a count mismatch raises last.
    """
    rows = count if count * 33 <= os.fstat(handle.fileno()).st_size else 0
    features = np.empty((rows, 15))
    labels = np.empty(rows, dtype=bool)
    det_pt = np.empty(rows)
    n = 0
    while n < rows:
        lines = list(itertools.islice(handle, min(_PARSE_LINES, rows - n)))
        if not lines:
            break
        block = _parse_block(path, n + 2, lines)
        features[n : n + len(lines)] = block[:, :15]
        labels[n : n + len(lines)] = block[:, 15] == 1.0
        det_pt[n : n + len(lines)] = block[:, 16]
        n += len(lines)
    for line in handle:
        n += 1
        _row_values(path, n + 1, line)
    if n != count:
        raise DatasetIntegrityError(f"{path}: manifest count {count} != {n} rows")
    return features, labels, det_pt


def load(path: str) -> Dataset:
    """Read a dataset back; refuses silently truncated or inconsistent files.

    The manifest must hold each entry of `_MANIFEST_ENTRIES` as described
    there; its `count` is the number of rows. The arrays come from the binary
    sidecar only if `save` wrote it for exactly these bytes (`_read_arrays`),
    else from the CSV (`_parse_body`), the same arrays either way. Every error
    but a bad manifest comes from the CSV.
    """
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise DatasetIntegrityError(f"missing manifest sidecar {mpath}")
    with open(mpath, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or not _MANIFEST_ENTRIES.keys() <= manifest.keys():
        raise DatasetIntegrityError(
            f"{mpath}: manifest must be a JSON object with {', '.join(sorted(_MANIFEST_ENTRIES))}"
        )
    for entry, (requirement, valid) in _MANIFEST_ENTRIES.items():
        if not valid(value := manifest[entry]):
            raise DatasetIntegrityError(f"{mpath}: {entry} must be {requirement}, got {value!r}")
    count = manifest["count"]
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise DatasetFormatError(f"{path}: unexpected header {header!r}")
        columns = _read_arrays(path, count) or _parse_body(path, handle, count)

    ds = Dataset(*columns, manifest)
    _check_invariants(ds, path)
    return ds
