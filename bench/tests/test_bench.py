"""Self-test of the benchmark: every workload at a tiny size prints each
metric BENCHMARK.json names, with its unit, and the correctness gate
flags planted wrong answers.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Small rounds that still use every slice kind of the generator.
TINY = {
    "check": (("integer", 3, 3, 1), ("rational", 3, 3, 1)),
    "flips": (("on_ray", 3, 3, 1), ("on_apex", 3, 3, 1), ("integer_incident", 3, 3, 1)),
    "envelope": (("integer", 3, 3, 1), ("rational", 3, 3, 1)),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny rounds, one set-up, outputs under tmp_path; troparr's modules
    are restored afterwards (the benchmark re-imports them)."""
    saved = {k: m for k, m in sys.modules.items() if k == "troparr" or k.startswith("troparr.")}
    for name, rounds in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, run.Workload(run.WORKLOADS[name].op, rounds))
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "WORK", tmp_path)
    yield
    for k in [k for k in sys.modules if k == "troparr" or k.startswith("troparr.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def bench(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("report: "))[len("report: "):])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {"report": report, **result}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_printed_with_units(tiny, capsys, workload):
    out = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["correct"] and out["attempted"] == run.MIN_ROUNDS * len(TINY[workload])
    details = out["report"]["details"]
    assert details["samples"]["latency_ms_tail"] == out["attempted"]
    assert 0 < details["tail_percentile"] <= 100
    prov = out["report"]["provenance"]
    assert {"python", "nproc", "cpu", "commit", "seed"} <= set(prov)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_per_layer_metrics_printed_with_units(tiny, capsys, workload):
    out = bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = out["metrics"]
    assert out["attempted"] == run.MIN_ROUNDS * len(TINY[workload])
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["cli.main.calls"]["value"] == 1
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    if workload == "check":
        # bound as a module global inside is_tropical_oriented_matroid
        assert calls["axioms.check_elimination.calls"] == 1
        # bound by "from .geometry import" inside duality
        assert calls["geometry.enumerate_realizations.calls"] == 1
    else:
        assert calls["axioms.check_elimination.calls"] == 0
    if workload == "flips":
        assert metrics["secondary.refining_triangulations.candidates"]["value"] > 0
    if workload == "envelope":
        assert metrics["duality.regular_subdivision.masks"]["value"] == 2 ** 9 - 1
    spans_file = Path(out["report"]["details"]["spans"])
    first = json.loads(spans_file.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"id", "parent", "op", "name", "start", "end", "counts"}


def test_same_seed_attempts_the_same_operations(tiny, capsys):
    def statuses():
        out = bench(capsys, "--workload", "check", "--seed", "4", "--seconds", "0", "--trace", "0")
        by_slice = out["report"]["details"]["by_slice"]
        return out["attempted"], out["failed"], {
            sl: (v["attempted"], v["failed"], v["details"]) for sl, v in by_slice.items()
        }

    assert statuses() == statuses()
    assert run.rounds_for(0) == run.MIN_ROUNDS
    assert run.rounds_for(run.ROUND_S * (run.MIN_ROUNDS + 0.5)) == run.MIN_ROUNDS + 1


def test_inputs_follow_the_seed():
    def rows(seed):
        rng = random.Random(seed)
        return [gen.draw(rng, kind, 3, 3) for kind in gen.KINDS]

    assert rows(5) == rows(5) != rows(6)
    rng = random.Random(0)
    for kind in ("on_ray", "on_apex", "integer_incident"):
        assert gen.apex_incidences(gen.draw(rng, kind, 4, 3))
    assert gen.tropically_generic(gen.draw(rng, "rational", 4, 4))
    # two equal apexes tie every minor that contains both rows
    assert not gen.tropically_generic([[0, 1, 2], [0, 1, 2], [3, 0, 5]])


def test_speedometer_scales_by_the_probes_around_a_piece_of_work():
    ref = run.PROBE_REF_S
    speed = run.Speedometer()
    speed.mids, speed.times = [0.0, 1.0, 5.0, 9.0], [ref, 2 * ref, 2 * ref, ref]
    # a 2-s piece sees the probe inside it, taken at half the reference speed
    assert speed.at_reference(4.0, 6.0) == pytest.approx(1.0)
    assert speed.at_reference(4.0, 6.0, inside=0.5) == pytest.approx(0.75)
    # a 10-ms piece sees the probes within a 0.5-s window around it
    assert speed.at_reference(0.1, 0.11) == pytest.approx(0.01)

    speed = run.Speedometer()
    with speed.sampling():
        end = time.perf_counter() + 3.5 * run.PROBE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(speed.times) >= 2 and speed.inside == pytest.approx(sum(speed.times))


E2 = [[0, 0, 0], [1, 1, 0]]  # apex 2 on a ray of hyperplane 1's fan


def cli_report(tmp_path, rows, *argv):
    path = tmp_path / "arr.json"
    path.write_text(gen.to_json(rows), encoding="utf-8")
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    return lib, *run._cli(lib, [*argv, "--input", str(path), "--json"])


def test_gate_flags_planted_wrong_answers(tiny, tmp_path):
    lib, code, report = cli_report(tmp_path, E2, "subdivision")
    regular = lib.duality.regular_subdivision(E2).maximal_cells
    cells = [g.edges for g in regular]
    assert gate.envelope(2, 3, code, report, cells) == (gate.OK, "")
    # a mismatched subdivision: one regular cell missing
    assert gate.envelope(2, 3, code, report, cells[1:])[0] == gate.WRONG

    lib, code, report = cli_report(tmp_path, E2, "subdivision", "--flips")
    assert gate.flips(2, 3, code, report) == (gate.OK, "")
    tri = report["results"]["flips"]["triangulations"][0]
    tri["gkz"][0] += 1
    tri["gkz"][1] -= 1
    assert gate.flips(2, 3, code, report)[0] == gate.WRONG
    report["results"]["flips"] = None
    assert "volume 2" in gate.flips(2, 3, code, report)[1]

    lib, code, report = cli_report(tmp_path, [[0, 0, 0], [-1, 2, 0]], "check")
    assert gate.check(2, 3, code, report) == (gate.OK, "")
    report["results"]["cell_count"] += 1
    assert gate.check(2, 3, code, report)[0] == gate.WRONG
    assert gate.check(2, 3, 4, report)[0] == gate.ERROR


def test_planted_mismatch_makes_the_run_incorrect(tiny, capsys, monkeypatch):
    def mismatched(lib, item):
        # the envelope cross-check with one regular cell dropped
        code, report = run._cli(lib, ["subdivision", "--input", item.path, "--json"])
        regular = lib.duality.regular_subdivision(item.rows).sorted_cells()
        return gate.envelope(item.n, item.d, code, report, [g.edges for g in regular[1:]])

    monkeypatch.setitem(run.WORKLOADS, "envelope", run.Workload(mismatched, TINY["envelope"]))
    out = bench(capsys, "--workload", "envelope", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert not out["correct"]
    assert out["failed"] >= 1
    assert out["metrics"]["verified_frac"]["value"] < 1
