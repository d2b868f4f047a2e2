"""Reproducible generation, splitting and persistence of labeled state corpora.

A dataset is a flat table of feature rows (the 15 Pauli expectations), boolean
entanglement labels, and the determinant values the labels came from, plus a
manifest that pins everything needed to regenerate it bit-identically.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

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

_CHUNK = 8192


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


def _check_invariants(ds: Dataset) -> None:
    if ds.manifest["count"] != len(ds):
        raise DatasetIntegrityError(
            f"manifest count {ds.manifest['count']} != {len(ds)} rows"
        )
    bad = np.flatnonzero(ds.labels != (ds.det_pt < 0.0))
    if bad.size:
        raise DatasetIntegrityError(
            f"row {bad[0]}: label inconsistent with det_pt sign"
        )


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
    """Deterministic shuffled partition into train / validation / test parts."""
    frac = np.asarray(fractions, dtype=float)
    if frac.shape != (3,):
        raise ValueError("fractions must be three numbers (train, validation, test)")
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
        manifest = dict(ds.manifest)
        manifest.update(
            {
                "role": role,
                "parent_seed": ds.manifest["seed"],
                "split_seed": int(seed),
                "count": int(idx.size),
                "separable_fraction": float(np.mean(~ds.labels[idx])) if idx.size else 0.0,
            }
        )
        parts.append(Dataset(ds.features[idx], ds.labels[idx], ds.det_pt[idx], manifest))
    return tuple(parts)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def manifest_path(path: str) -> str:
    return f"{path}.manifest.json"


def save(ds: Dataset, path: str) -> None:
    """Write the dataset as CSV plus a JSON manifest sidecar, atomically."""
    _check_invariants(ds)
    lines = [CSV_HEADER]
    for row, label, det in zip(ds.features, ds.labels, ds.det_pt):
        cells = [f"{v:.17g}" for v in row]
        cells.append("1" if label else "0")
        cells.append(f"{det:.17g}")
        lines.append(",".join(cells))
    _write_atomic(path, "\n".join(lines) + "\n")
    _write_atomic(
        manifest_path(path), json.dumps(ds.manifest, indent=2, sort_keys=True) + "\n"
    )


def load(path: str) -> Dataset:
    """Read a dataset back; refuses silently truncated or inconsistent files."""
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise DatasetIntegrityError(f"missing manifest sidecar {mpath}")
    with open(mpath, encoding="utf-8") as handle:
        manifest = json.load(handle)

    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise DatasetFormatError(f"{path}: unexpected header {header!r}")
        features, labels, det_pt = [], [], []
        for lineno, line in enumerate(handle, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != 17:
                raise DatasetFormatError(
                    f"{path}: row {lineno}: expected 17 fields, got {len(cells)}"
                )
            try:
                row = [float(c) for c in cells[:15]]
                det = float(cells[16])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from exc
            if cells[15] not in ("0", "1"):
                raise DatasetFormatError(
                    f"{path}: row {lineno}: label must be 0 or 1, got {cells[15]!r}"
                )
            features.append(row)
            labels.append(cells[15] == "1")
            det_pt.append(det)

    ds = Dataset(
        np.array(features, dtype=float).reshape(len(features), 15),
        np.array(labels, dtype=bool),
        np.array(det_pt, dtype=float),
        manifest,
    )
    _check_invariants(ds)
    return ds
