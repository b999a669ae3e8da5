"""Toy-size self-check of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` at toy sizes through the one
command (``run.main``), untraced and traced, and fails unless

* each run reports ``correct`` (which includes dense-route parity,
  identical fingerprints across repeats, and traced == untraced),
* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  printed with the unit given there,
* the traced program keeps ``evaluate_population``'s signature visible,
  and leaving the tracer restores the original attributes.

Run from the repository root (about a minute)::

    python3 perfbench/selfcheck.py
"""

import contextlib
import dataclasses
import inspect
import io
import json
import sys

import run


def toy_workloads() -> dict:
    from repro.detectors.training import TrainingConfig
    from workloads import WORKLOADS, AttackWorkload

    training = TrainingConfig(
        scenes_per_class=4, image_length=64, image_width=208, background_clusters=32
    )
    common = dict(image_length=64, image_width=208, training=training, gate_population=4)
    toy = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, AttackWorkload):
            toy[name] = dataclasses.replace(
                workload, population=6, generations=2, gate_generations=1, **common
            )
        else:
            toy[name] = dataclasses.replace(
                workload,
                model_seeds=(1,),
                sequences=2,
                frames=3,
                population=4,
                generations=1,
                gate_frames=2,
                gate_generations=1,
                **common,
            )
    return toy


def check_signature_preserved() -> list[str]:
    from repro.core.objectives import ButterflyObjectives
    from spans import Tracer, program_targets

    original = ButterflyObjectives.evaluate_population
    with Tracer(program_targets()):
        traced = ButterflyObjectives.evaluate_population
        parameters = list(inspect.signature(traced).parameters)
    problems = []
    if traced is original or parameters != ["self", "masks", "dirty_bounds", "ancestry"]:
        problems.append(f"traced evaluate_population reports {parameters}")
    if ButterflyObjectives.evaluate_population is not original:
        problems.append("tracer did not restore evaluate_population")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SOURCE))
    toy = toy_workloads()
    problems = check_signature_preserved()
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload["name"], "--seed", "1", "--seconds", "0"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(argv + ["--trace", str(trace)], workloads=toy)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            label = f"{workload['name']} --trace {trace}"
            if code != 0 or not result["correct"]:
                problems.append(f"{label}: exit {code}, correct={result['correct']}")
            printed = {
                name: value["unit"] for name, value in result["metrics"].items()
            }
            expected = {entry["name"]: entry["unit"] for entry in spec[kind]}
            if printed != expected:
                problems.append(f"{label}: printed {printed}, expected {expected}")
            missing = [
                name for name in expected if not any(line.startswith(name + " ") for line in lines)
            ]
            if missing:
                problems.append(f"{label}: no table line for {missing}")
            print(f"{label}: exit {code}, {len(printed)} metrics")
    for problem in problems:
        print("SELF-CHECK FAILED:", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
