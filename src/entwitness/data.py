"""Reproducible generation, splitting and persistence of labeled state corpora.

A dataset is a flat table of feature rows (the 15 Pauli expectations), boolean
entanglement labels, and the determinant values the labels came from, plus a
manifest that pins everything needed to regenerate it bit-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import warnings
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

# Rows per generation and CSV block. The output bytes do not depend on it;
# 2048 rows keep each block's temporaries near 1 MB.
_CHUNK = 2048

# One CSV row: 15 features, the 0/1 label, det_pt.
_ROW_FORMAT = ",".join(["%.17g"] * 15) + ",%d,%.17g\n"

# The manifest entries that load, split and regenerate read.
_MANIFEST_KEYS = {"count", "seed", "requested_count", "symmetry", "rank", "balanced"}


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


def split(
    ds: Dataset, fractions: Sequence[float], seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled partition into train / validation / test parts, none empty."""
    frac = np.asarray(fractions, dtype=float)
    if frac.shape != (3,):
        raise ValueError("fractions must be three numbers (train, validation, test)")
    if not np.isfinite(frac).all():
        raise ValueError(f"fractions must be finite, got {fractions}")
    if np.any(frac <= 0.0):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if abs(frac.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got sum {frac.sum()!r}")

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


def _write_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write `text`, or a stream of text chunks, to a temporary file renamed onto `path`."""
    chunks = (text,) if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def manifest_path(path: str) -> str:
    return f"{path}.manifest.json"


def _csv_blocks(ds: Dataset) -> Iterator[str]:
    """The CSV text in `_CHUNK`-row blocks, each formatted by one `%` operation."""
    yield CSV_HEADER + "\n"
    for start in range(0, len(ds), _CHUNK):
        stop = start + _CHUNK
        # Labels become 0.0/1.0 here, which %d prints as 0/1.
        block = np.column_stack(
            (ds.features[start:stop], ds.labels[start:stop], ds.det_pt[start:stop])
        )
        yield (_ROW_FORMAT * block.shape[0]) % tuple(block.ravel().tolist())


def save(ds: Dataset, path: str) -> None:
    """Write the dataset as CSV plus a JSON manifest sidecar, atomically."""
    _check_invariants(ds, path)
    _write_atomic(path, _csv_blocks(ds))
    _write_atomic(
        manifest_path(path), json.dumps(ds.manifest, indent=2, sort_keys=True) + "\n"
    )


def _label_value(text: str) -> float:
    if text not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {text!r}")
    return float(text)


def _line_count(path: str) -> int | None:
    """Lines in the file as iterating it in text mode sees them.

    A final line without a newline counts. Returns None for a file holding a
    carriage return, where universal newlines would split lines that a
    newline count misses.
    """
    newlines, last = 0, b"\n"
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            if b"\r" in block:
                return None
            newlines += block.count(b"\n")
            last = block[-1:]
    return newlines + (last != b"\n")


def _parse_table(
    path: str, handle: TextIO
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Features, labels and det_pt of the body after the header, or None if
    np.loadtxt cannot vouch for it.

    The body is parsed in `_CHUNK`-line blocks written straight into the final
    arrays, so a load holds the dataset once plus one block. Each block reads
    exactly its lines through `itertools.islice`; loadtxt skips blank lines, so
    a block with fewer rows than lines is handed to the per-row parser like any
    parse error.
    """
    lines = _line_count(path)
    if lines is None:
        return None
    rows = lines - 1
    features = np.empty((rows, 15))
    labels = np.empty(rows, dtype=bool)
    det_pt = np.empty(rows)
    for start in range(0, rows, _CHUNK):
        k = min(_CHUNK, rows - start)
        try:
            with warnings.catch_warnings():
                # A block of blank lines parses to no rows; the shape check below catches it.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                block = np.loadtxt(
                    itertools.islice(handle, k),
                    delimiter=",",
                    comments=None,
                    converters={15: _label_value},
                    ndmin=2,
                )
        except ValueError:
            return None
        if block.shape != (k, 17):
            return None
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise DatasetFormatError(
                f"{path}: row {start + np.argmin(finite) + 2}: non-finite value"
            )
        features[start : start + k] = block[:, :15]
        labels[start : start + k] = block[:, 15] == 1.0
        det_pt[start : start + k] = block[:, 16]
        del block  # else it stays alive while loadtxt builds the next one
    return features, labels, det_pt


def _parse_rows(path: str) -> np.ndarray:
    """Per-row parser: raises DatasetFormatError naming the first bad row."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        for lineno, line in enumerate(handle, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != 17:
                raise DatasetFormatError(
                    f"{path}: row {lineno}: expected 17 fields, got {len(cells)}"
                )
            try:
                values = [float(c) for c in cells[:15]]
                det = float(cells[16])
                values.append(_label_value(cells[15]))
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from exc
            values.append(det)
            if not all(map(math.isfinite, values)):
                raise DatasetFormatError(f"{path}: row {lineno}: non-finite value")
            rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), 17)


def load(path: str) -> Dataset:
    """Read a dataset back; refuses silently truncated or inconsistent files."""
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise DatasetIntegrityError(f"missing manifest sidecar {mpath}")
    with open(mpath, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or not _MANIFEST_KEYS <= manifest.keys():
        raise DatasetIntegrityError(
            f"{mpath}: manifest must be a JSON object with {', '.join(sorted(_MANIFEST_KEYS))}"
        )

    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise DatasetFormatError(f"{path}: unexpected header {header!r}")
        columns = _parse_table(path, handle)
    if columns is None:
        table = _parse_rows(path)
        columns = np.ascontiguousarray(table[:, :15]), table[:, 15] == 1.0, table[:, 16].copy()

    ds = Dataset(*columns, manifest)
    _check_invariants(ds, path)
    return ds
