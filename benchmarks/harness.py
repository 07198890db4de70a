"""The one harness behind every ``BENCH_*.json`` driver.

A driver declares a :class:`Bench`: its schema, the committed output
file, ``run(smoke)``, ``render(result)`` and ``checks(result, smoke)``.
This module owns everything else, so every driver behaves the same:

* **Envelope.** A result is ``{"schema", "meta": bench_meta(...)}``
  plus the body ``run`` returns, written as sorted, 2-space-indented
  JSON with a trailing newline.
* **CLI.** ``python benchmarks/bench_<name>.py [--smoke] [--out PATH]``.
* **Write policy.** A full run writes ``--out``, or the committed file
  at the repo root when ``--out`` is not given.  A smoke run writes
  only to ``--out``; without it, it prints ``smoke run: no JSON write``
  and leaves the committed file alone.
* **Acceptance.** The standalone entry (:func:`main`) and the
  pytest-benchmark entry (:func:`pytest_case`) both write, then run the
  same ``checks``, and fail (exit 1) listing every ``FAIL:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
from typing import Any, Callable, Iterable, Mapping

from repro.utils.benchmeta import bench_meta

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@dataclasses.dataclass(frozen=True)
class Bench:
    """One benchmark declaration.

    ``run(smoke)`` returns ``(config, seed, body)``: the configuration
    the ``meta`` fingerprint covers (never measured results), the seed
    (``None`` for seedless suites) and the result body.
    ``checks(result, smoke)`` returns one message per failed bar.
    """

    name: str
    schema: str
    output: str
    run: Callable[[bool], "tuple[Any, int | None, dict]"]
    render: Callable[[dict], str]
    checks: Callable[[dict, bool], "list[str]"]


def build(bench: Bench, smoke: bool) -> dict:
    """Run ``bench`` and wrap its body in the schema/meta envelope."""
    config, seed, body = bench.run(smoke)
    meta = bench_meta(bench.schema, config=config, seed=seed)
    return {"schema": bench.schema, "meta": meta, **body}


def _write(result: dict, path: pathlib.Path) -> pathlib.Path:
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def _failures(bench: Bench, result: dict, smoke: bool) -> list[str]:
    return [f"FAIL: {message}" for message in bench.checks(result, smoke)]


def main(bench: Bench, argv: "list[str] | None" = None) -> int:
    """The standalone entry: run, print, write per the policy, check."""
    parser = argparse.ArgumentParser(
        description=f"{bench.name} benchmark ({bench.schema})"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run; writes only to --out",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        metavar="PATH",
        help=f"output path (default: {bench.output} at the repo root, "
        "full runs only)",
    )
    args = parser.parse_args(argv)
    result = build(bench, args.smoke)
    print(bench.render(result))
    if args.smoke and args.out is None:
        print("\nsmoke run: no JSON write")
    else:
        path = _write(result, args.out or REPO_ROOT / bench.output)
        print(f"\nwrote {path}")
    failures = _failures(bench, result, args.smoke)
    for failure in failures:
        print(failure)
    return 1 if failures else 0


def pytest_case(bench: Bench) -> Callable[..., None]:
    """The pytest-benchmark entry: a full run, written to the committed
    file, archived via the ``emit`` fixture, then checked."""

    def case(benchmark: Any, emit: Callable[[str, str], None]) -> None:
        result = benchmark.pedantic(
            build, args=(bench, False), rounds=1, iterations=1
        )
        path = _write(result, REPO_ROOT / bench.output)
        emit(bench.name, bench.render(result) + f"\n\nwrote {path}")
        failures = _failures(bench, result, False)
        if failures:
            raise AssertionError("\n".join(failures))

    return case


def named(rows: Iterable[dict], name: str) -> dict:
    """The row called ``name`` (``KeyError`` when absent)."""
    for row in rows:
        if row["name"] == name:
            return row
    raise KeyError(name)


def scenario_rows(
    grid: Mapping[str, Any],
    run: Callable[[Any], Any] = lambda scenario: scenario.run(),
) -> list[dict]:
    """Run each serving scenario of ``grid`` (name -> scenario) through
    ``run`` and return the ``{"name", "scenario", "metrics"}`` rows."""
    return [
        {
            "name": name,
            "scenario": scenario.describe(),
            "metrics": run(scenario).summary(),
        }
        for name, scenario in grid.items()
    ]


def shared_seed(scenarios: Iterable[Any]) -> "int | None":
    """The seed every scenario shares, or ``None`` when they differ."""
    seeds = {scenario.seed for scenario in scenarios}
    return seeds.pop() if len(seeds) == 1 else None
