"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that:
  * a plain and a traced run print every metric BENCHMARK.json declares for
    that mode, each with its declared unit;
  * traced self times are non-negative and sum to no more than the traced
    wall time;
  * exact counts (checks, operator terms, calls) repeat between two traced
    runs;
  * the negative control (one flipped operator term) makes the run fail:
    nonzero exit, "correct": false, failed > 0 and no metrics.
It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".builds", ".checks", ".terms", ".terms_in",
                  ".terms_out", "operator_terms", ".hit_ratio")

failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--size", "tiny", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def main() -> int:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in decl["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("--workload", workload, "--trace", str(trace))
            res = result(lines)
            expect(code == 0 and res["correct"] and res["failed"] == 0,
                   f"{workload} trace={trace}: run passes its output checks")
            want = {m["name"]: m["unit"] for m in decl[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: every declared metric "
                                "is printed with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   f"{workload} trace={trace}: every value is a number")
            if trace:
                spans = json.loads(next(line for line in lines
                                        if line.startswith('{"spans"')))
                selfs = [s[2] for s in spans["spans"].values()]
                expect(min(selfs) >= -1e-9, f"{workload}: self times are non-negative")
                expect(sum(selfs) <= spans["wall_s"],
                       f"{workload}: self times sum to at most the traced wall time "
                       f"({sum(selfs):.4f} <= {spans['wall_s']:.4f} s)")
                _, again = bench("--workload", workload, "--trace", "1")
                counts = [{k: v["value"] for k, v in result(r)["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)} for r in (lines, again)]
                expect(counts[0] == counts[1] and counts[0],
                       f"{workload}: exact counts repeat between traced runs")
        code, lines = bench("--workload", workload, "--negative-control")
        res = result(lines)
        expect(code != 0 and not res["correct"] and res["failed"] > 0
               and res["metrics"] == {},
               f"{workload}: negative control fails the run and reports no metrics")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, lines = bench("--workload", decl["workloads"][0]["name"], cwd=bare)
    expect(code != 0 and not any(line.startswith('{"correct"') for line in lines),
           "without the package sources the run fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} smoke check(s) failed" if failures else "smoke test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
