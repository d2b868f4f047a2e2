import io
import json

import pytest

import metrics
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Modules whose spans each workload must produce in a traced run.
MODULES = {
    "full_witness": {"nn", "data", "witness"},
    "linear_sweep": {"nn", "data", "witness"},
    "cli_corpus": {"nn", "data", "witness", "quantum", "cli"},
}


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name):
    originals = [getattr(t.module, t.attr) for t in workloads.TRACED]
    log = io.StringIO()
    passes, attempted, failed = run.run(
        name, seed=5, seconds=0.0, trace=True, sizes=workloads.TINY, log=log
    )
    assert (failed, attempted > 0) == (0, True), log.getvalue()
    assert [getattr(t.module, t.attr) for t in workloads.TRACED] == originals
    assert sum(p.traced for p in passes) == sum(not p.traced for p in passes) == run.MIN_PASSES

    end_to_end = metrics.end_to_end(passes, [0.5], 100.0, attempted, failed)
    assert {k: u for k, (_, u) in end_to_end.items()} == units("end_to_end")
    assert end_to_end["wall_s"][0] > 0 and end_to_end["train_rows_per_s"][0] > 0

    layers = metrics.per_layer(passes)
    assert {k: u for k, (_, u) in layers.items()} == units("per_layer")
    traced_modules = {s.name.split(".")[0] for p in passes if p.traced for s in p.spans}
    assert MODULES[name] <= traced_modules
    assert layers["nn.steps"][0] > 0 and layers["nn.step_flops_computed"][0] > 0


def test_step_cost_counts_each_matmul():
    # 15 -> 2 -> 1 on 4 rows: first layer forward and weight gradient only.
    flops, bytes_ = workloads.step_cost([15, 2, 1], 4)
    assert flops == 2 * 2 * 4 * 15 * 2 + 3 * 2 * 4 * 2 * 1
    first = (30 + 60 + 8) + (30 + 8 + 60 + 30)
    second = (2 + 8 + 4) + (2 + 4 + 8 + 2 + 8)
    assert bytes_ == 8 * (first + second)


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "full_witness", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
