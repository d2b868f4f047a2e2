"""End-to-end and per-layer metrics from the passes of one run."""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from tracer import Span, self_times


@dataclass
class Quality:
    """Witness quality over the models one pass trained."""

    accuracies: list[float] = field(default_factory=list)  # test accuracy at threshold 0.5
    recalls: list[float] = field(default_factory=list)  # at the calibrated threshold; 0 if none
    specificities: list[float] = field(default_factory=list)  # separable test states not flagged
    oracle_disagreements: int = 0  # relabelled rows where the two PPT oracles disagree


@dataclass
class Pass:
    """One timed pass of a workload. `wall` is None when a call raised."""

    traced: bool
    wall: float | None
    spans: list[Span]
    quality: Quality = field(default_factory=Quality)


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def completed(passes: Sequence[Pass], traced: bool) -> list[Pass]:
    return [p for p in passes if p.traced == traced and p.wall is not None]


def train_rows_per_s(spans: Sequence[Span]) -> float:
    """Epochs times training rows over all nn.train calls, per second inside them."""
    train = [s for s in spans if s.name == "nn.train" and s.error is None]
    work = sum(s.info["epochs"] * s.info["rows"] for s in train)
    return _ratio(work, sum(s.duration for s in train))


def end_to_end(
    passes: Sequence[Pass],
    setup_times: Sequence[float],
    peak_rss_mb: float,
    attempted: int,
    failed: int,
) -> dict[str, tuple[float, str]]:
    """The user-facing metrics of an untraced run: timings are medians over passes."""
    done = completed(passes, traced=False)
    return {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median([p.wall for p in done]), "s"),
        "train_rows_per_s": (_median([train_rows_per_s(p.spans) for p in done]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - _ratio(failed, attempted), "ratio"),
        "accuracy": (_mean([a for p in done for a in p.quality.accuracies]), "ratio"),
        "recall_p1": (_mean([r for p in done for r in p.quality.recalls]), "ratio"),
        "test_specificity": (_mean([s for p in done for s in p.quality.specificities]), "ratio"),
    }


def sweep_cells(spans: Sequence[Span]) -> list[float]:
    """Seconds per sweep cell: from a cell's nn.model_new to the end of its last call."""
    cells = []
    for index, sweep in enumerate(spans):
        if sweep.name != "witness.sweep":
            continue
        children = [s for s in spans if s.parent == index]
        starts = [s.start for s in children if s.name == "nn.model_new"]
        for begin, stop in zip(starts, starts[1:] + [sweep.end]):
            inside = [s.end for s in children if begin <= s.start < stop]
            cells.append(max(inside) - begin)
    return cells


def _pass_layers(p: Pass) -> dict[str, float]:
    spans = p.spans
    selfs = self_times(spans)
    time_in: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    noted: dict[str, float] = defaultdict(float)
    cli_self = 0.0
    for span, own in zip(spans, selfs):
        time_in[span.name] += span.duration
        calls[span.name] += 1
        for key in ("rows", "flops", "bytes", "epochs"):
            noted[f"{span.name}.{key}"] += span.info.get(key, 0)
        if span.name.startswith("cli."):
            cli_self += own
    witness_forwards = sum(
        1
        for s in spans
        if s.name == "nn.forward"
        and s.parent is not None
        and spans[s.parent].name.startswith("witness.")
    )
    train_self = sum(own for span, own in zip(spans, selfs) if span.name == "nn.train")
    steps = calls["nn.step"]
    return {
        "nn.steps": steps,
        "nn.step_flops_computed": _ratio(noted["nn.step.flops"], steps),
        "nn.step_bytes_computed": _ratio(noted["nn.step.bytes"], steps),
        "nn.train_s": time_in["nn.train"],
        "nn.train_calls": calls["nn.train"],
        "nn.epochs": noted["nn.train.epochs"],
        "nn.train_self_s": train_self,
        "nn.forward_calls": calls["nn.forward"],
        "nn.forward_rows": noted["nn.forward.rows"],
        "nn.forward_s": time_in["nn.forward"],
        "nn.model_io_s": time_in["nn.model_io"],
        "witness.forward_calls": witness_forwards,
        "witness.evaluate_calls": calls["witness.evaluate"],
        "witness.evaluate_s": time_in["witness.evaluate"],
        "witness.calibrate_s": time_in["witness.calibrate"],
        "data.generate_s": time_in["data.generate"],
        "data.generate_states_per_s": _ratio(noted["data.generate.rows"], time_in["data.generate"]),
        "data.split_s": time_in["data.split"],
        "data.regenerate_s": time_in["data.regenerate"],
        "data.save_s": time_in["data.save"],
        "data.save_rows_per_s": _ratio(noted["data.save.rows"], time_in["data.save"]),
        "data.load_s": time_in["data.load"],
        "data.load_rows_per_s": _ratio(noted["data.load.rows"], time_in["data.load"]),
        "data.csv_bytes": noted["data.save.bytes"],
        "quantum.label_calls": calls["quantum.label"],
        "quantum.oracle_disagreements": p.quality.oracle_disagreements,
        "cli.gen_s": time_in["cli.gen"],
        "cli.train_s": time_in["cli.train"],
        "cli.weights_s": time_in["cli.weights"],
        "cli.self_s": cli_self,
    }


#: Units of the per-layer metrics, in the order they are printed.
LAYER_UNITS = {
    "nn.step_us_p50": "us",
    "nn.step_us_p99": "us",
    "nn.steps": "count",
    "nn.step_flops_computed": "flop",
    "nn.step_bytes_computed": "B",
    "nn.train_s": "s",
    "nn.train_calls": "count",
    "nn.epochs": "count",
    "nn.train_self_s": "s",
    "nn.forward_calls": "count",
    "nn.forward_rows": "count",
    "nn.forward_s": "s",
    "nn.model_io_s": "s",
    "witness.forward_calls": "count",
    "witness.evaluate_calls": "count",
    "witness.evaluate_s": "s",
    "witness.calibrate_s": "s",
    "witness.cell_s_p50": "s",
    "data.generate_s": "s",
    "data.generate_states_per_s": "1/s",
    "data.split_s": "s",
    "data.regenerate_s": "s",
    "data.save_s": "s",
    "data.save_rows_per_s": "1/s",
    "data.load_s": "s",
    "data.load_rows_per_s": "1/s",
    "data.csv_bytes": "B",
    "quantum.label_calls": "count",
    "quantum.label_us_p50": "us",
    "quantum.label_us_p99": "us",
    "quantum.oracle_disagreements": "count",
    "cli.gen_s": "s",
    "cli.train_s": "s",
    "cli.weights_s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer(passes: Sequence[Pass]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    Sums per pass are reported as the median over traced passes; latency
    percentiles pool every call of every traced pass. The overhead compares
    the median wall time of traced and untraced passes of the same run.
    """
    traced = completed(passes, traced=True)
    untraced = completed(passes, traced=False)
    per_pass = [_pass_layers(p) for p in traced]
    values = {name: _median([row[name] for row in per_pass]) for name in per_pass[0]}

    def durations_us(name: str) -> list[float]:
        spans = (s for p in traced for s in p.spans)
        return [s.duration * 1e6 for s in spans if s.name == name and s.error is None]

    steps, labels = durations_us("nn.step"), durations_us("quantum.label")
    values["nn.step_us_p50"] = _percentile(steps, 50)
    values["nn.step_us_p99"] = _percentile(steps, 99)
    values["quantum.label_us_p50"] = _percentile(labels, 50)
    values["quantum.label_us_p99"] = _percentile(labels, 99)
    cells = [c for p in traced for c in sweep_cells(p.spans)]
    values["witness.cell_s_p50"] = _percentile(cells, 50)
    slowdown = _ratio(_median([p.wall for p in traced]), _median([p.wall for p in untraced]))
    values["trace.overhead_pct"] = 100.0 * (slowdown - 1.0)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in LAYER_UNITS.items()}
