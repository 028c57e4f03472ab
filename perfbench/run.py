"""affinefock benchmark: exact bracket sweeps, the check-bracket command and
operator construction, timed end to end and, in a separate traced run,
layer by layer.

    python3 perfbench/run.py --workload sweep-sl4 --seed 2024 --seconds 30 --trace 0

Workloads (closed loop: one caller, one single-threaded process at a time,
each iteration in a fresh interpreter so every cache starts cold):

  sweep-sl4        bracket_sweep on sl(4), Sigma={2,3}, character module.
  cli-sl2-deep     `python -m affinefock.cli check-bracket --records ...` on
                   sl(2) Borel with the level-kappa Heisenberg Fock module.
  build-sl5-borel  cold Realization.operator(a, m) plus render() for every
                   homogeneous basis element of sl(5), Sigma=empty, at one
                   mode per process; successive iterations take the modes
                   -3..3 in turn.

The machine this runs on is shared, and its speed drifts by tens of percent
over seconds.  So the benchmark runs on one CPU, and times a fixed
calibration slice (calibration_loop) just before and just after every child
process.  End-to-end times are reported scaled to the machine's nominal
speed: t * NOMINAL_CAL_S / median(calibration samples around that child).
The unscaled medians are in the metadata line.

The seed fixes the inputs: the sweep's Sampler states (all of one shape, so
every seed gives the same amount of work; iteration k of a run draws them
from Sampler(1000 * seed + k)), the level and highest weight of
the command's module, and the order in which operators are requested.

Every iteration's output is checked exactly.  A failed check makes the run
print `"correct": false` with no metrics and exit 1.  `--negative-control`
plants a flipped operator term to show that the checks catch it.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are printed; with
`--trace 1` the run alternates plain and traced iterations and prints the
per-layer metrics.  The last line of output is the JSON result; the line
before it carries the run's metadata.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
CLI_SETUP_PROBES = 5
CAL_SAMPLES = 5
# Typical calibration slice time on the reference machine (a
# 2-core Xeon VM with Python 3.11.7), so scaled times read like its seconds.
NOMINAL_CAL_S = 0.007

SIZES = {
    "full": {"sweep_states": 4, "sweep_max_mode": 1,
             "cli_window": {"max_mode": 3, "max_degree": 6, "samples": 8},
             "build_modes": list(range(-3, 4))},
    "tiny": {"sweep_states": 1, "sweep_max_mode": 1,
             "cli_window": {"max_mode": 1, "max_degree": 2, "samples": 2},
             "build_modes": [0]},
}


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, bad declaration)."""


class ChildTimeout(Exception):
    pass


# --- child processes -----------------------------------------------------------

def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(argv: list[str], name: str) -> dict:
    """Run one child to completion; wall time, peak RSS, exit code, output."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "stdout": out_path.read_text(),
            "stderr": err_path.read_text()}


# --- machine speed --------------------------------------------------------------

def calibration_loop() -> float:
    """Seconds taken by a fixed slice of interpreter work: integer arithmetic
    in a loop, then filling a dict with small fresh objects.  It runs only in
    this process, whose heap does not depend on the package.  On the shared
    reference machine this mix slows down in step with the workloads (log-log
    slope 0.91 to 0.97 against each), where a Fraction-only slice
    over-corrected (slope about 0.6)."""
    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the caller's heap, not time the machine
    try:
        start = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i % 7
        d = {}
        for i in range(12000):
            d[(i, i & 255)] = [i]
        del d
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def calibrated(run):
    """Call run(); return its result and the speed factor of the machine
    around it: NOMINAL_CAL_S over the median calibration time."""
    before = [calibration_loop() for _ in range(CAL_SAMPLES)]
    result = run()
    after = [calibration_loop() for _ in range(CAL_SAMPLES)]
    return result, NOMINAL_CAL_S / statistics.median(before + after)


def run_child(spec: dict) -> dict:
    """An in-process iteration (child.py); its JSON result plus wall, RSS and
    the speed factor of the machine around it."""
    proc, factor = calibrated(
        lambda: spawn([sys.executable, str(CHILD), json.dumps(spec)], "child"))
    if proc["exit"] != 0:
        tail = proc["stderr"].strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"{spec['kind']} child exited {proc['exit']}: {tail[0]}"]}
    rec = json.loads(proc["stdout"].strip().splitlines()[-1])
    rec.update(wall_s=proc["wall_s"], rss_mb=proc["rss_mb"], factor=factor)
    return rec


# --- workloads ------------------------------------------------------------------

class Workload:
    """One workload: its timed iteration, its in-process iteration (plain or
    traced, for the per-layer run) and the checks on their outputs."""

    def __init__(self, seed: int, size: str, flip: bool):
        self.seed, self.size, self.flip = seed, SIZES[size], flip
        self.size_name = size

    def prepare(self) -> list[float]:
        """Work before the loop; returns separate set-up samples, if any."""
        return []

    def timed(self) -> dict:
        return self.in_process(trace=False)

    def in_process(self, trace: bool) -> dict:
        raise NotImplementedError


class SweepSl4(Workload):
    name = "sweep-sl4"
    largest = ("apply",)

    batches = 0

    def timed(self) -> dict:
        """Each timed iteration sweeps a fresh batch of states, so that a run
        averages over many more states than one iteration holds."""
        self.batches += 1
        return self.sweep(trace=False, batch=self.batches - 1)

    def in_process(self, trace: bool) -> dict:
        """The per-layer run repeats batch 0, so its counts must repeat."""
        return self.sweep(trace, batch=0)

    def sweep(self, trace: bool, batch: int) -> dict:
        """The child checks `failure is None` and the number of checks."""
        return run_child({"kind": "sweep", "n": 3, "sigma": [2, 3],
                          "character": [[0, "7/3"], [2, "-1"]],
                          "states": self.size["sweep_states"], "max_degree": 3,
                          "state_mode": 3, "max_mode": self.size["sweep_max_mode"],
                          "sampler_seed": self.seed * 1000 + batch,
                          "flip": self.flip, "trace": trace})


class BuildSl5(Workload):
    name = "build-sl5-borel"
    largest = ("lie", "construction")
    done = 0

    def timed(self) -> dict:
        """One mode per timed iteration, cycling through the modes: short
        iterations track the machine's speed better, and a run still builds
        every (element, mode) pair, each in a cold process."""
        modes = self.size["build_modes"]
        self.done += 1
        return self.build([modes[(self.done - 1) % len(modes)]], trace=False)

    def in_process(self, trace: bool) -> dict:
        """The per-layer run builds the whole set in one process."""
        return self.build(self.size["build_modes"], trace)

    def build(self, modes: list[int], trace: bool) -> dict:
        rec = run_child({"kind": "build", "n": 4, "modes": modes,
                         "seed": self.seed, "flip": self.flip, "trace": trace})
        ref = reference(self.name)
        if not rec["errors"]:
            expected = ref["operators_per_mode"] * len(modes)
            if rec["units"] != expected:
                rec["errors"].append(f"{rec['units']} operators, expected {expected}")
            for mode, digest in rec["digests"].items():
                if digest != ref["sha256_by_mode"][mode]:
                    rec["errors"].append(f"operators at mode {mode} differ from the "
                                         f"reference digest ({digest})")
        return rec


class CliSl2Deep(Workload):
    name = "cli-sl2-deep"
    largest = ("apply",)

    def prepare(self) -> list[float]:
        rng = random.Random(self.seed)
        self.level = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                              rng.randint(1, 3))
        self.lam = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                            rng.randint(1, 3))
        config = {"algebra": {"n": 1, "sigma": []},
                  "module": {"kind": "heisenberg_fock", "level": str(self.level),
                             "lam": [str(self.lam)]},
                  "engine": "general", "window": self.size["cli_window"],
                  "seed": 2024, "output": "text"}
        self.config = WORK / "cli_config.json"
        self.records = WORK / "cli_records.jsonl"
        self.config.write_text(json.dumps(config, indent=2) + "\n")
        self.argv = ["check-bracket", "--config", str(self.config),
                     "--records", str(self.records)]
        if self.flip:
            # The first term of pi(f1_1) is the bare creation term, so the
            # flip shows on every state; e1's first term has a nilradical
            # Levi head, which acts by zero on this module.
            self.argv += ["--flip", "f1:1:0"]
        ref = reference(self.name)[self.size_name]
        self.expected_stdout = (ref["stdout"].replace("{lam}", str(self.lam))
                                .replace("{level}", str(self.level)))
        self.expected_checks = ref["checks"]
        probes = [run_child({"kind": "cli-setup", "config": str(self.config)})
                  for _ in range(CLI_SETUP_PROBES)]
        for p in probes:
            if p["errors"]:
                raise BenchError("; ".join(p["errors"]))
        return [p["setup_s"] * p["factor"] for p in probes]

    def timed(self) -> dict:
        """The command as a user runs it; its rate is per second of its wall."""
        self.records.unlink(missing_ok=True)
        proc, factor = calibrated(lambda: spawn(
            [sys.executable, "-m", "affinefock.cli"] + self.argv, "cli"))
        rec = {"wall_s": proc["wall_s"], "work_s": proc["wall_s"], "factor": factor,
               "rss_mb": proc["rss_mb"], "exit": proc["exit"],
               "stdout": proc["stdout"], "units": self.expected_checks,
               "errors": []}
        self.check(rec)
        return rec

    def in_process(self, trace: bool) -> dict:
        """`cli.main` called in a fresh interpreter, so that its spans can be
        traced and the process start-up separated from it."""
        self.records.unlink(missing_ok=True)
        rec = run_child({"kind": "cli", "argv": self.argv, "trace": trace})
        if not rec["errors"]:
            self.check(rec)
        return rec

    def check(self, rec: dict):
        errors = rec["errors"]
        if rec["exit"] != 0:
            errors.append(f"check-bracket exited {rec['exit']}")
        if rec["stdout"] != self.expected_stdout:
            errors.append("check-bracket report differs from the reference: "
                          + json.dumps(rec["stdout"][:300]))
        try:
            lines = self.records.read_text().splitlines()
        except OSError as exc:
            errors.append(f"no records file: {exc}")
            return
        if len(lines) != self.expected_checks:
            errors.append(f"{len(lines)} records, expected {self.expected_checks}")
        bad = sum(1 for line in lines if json.loads(line)["status"] != "pass")
        if bad:
            errors.append(f"{bad} records with status other than pass")


WORKLOADS = {w.name: w for w in (SweepSl4, CliSl2Deep, BuildSl5)}

_REFERENCE: dict | None = None


def reference(workload: str) -> dict:
    """Outputs captured from the package at the commit that defined the
    benchmark; they must never change."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = json.loads((HERE / "reference.json").read_text())
    return _REFERENCE[workload]


# --- metrics --------------------------------------------------------------------

def end_to_end(records: list[dict], setup_samples: list[float]) -> dict:
    """Medians over the iterations of times scaled to nominal machine speed."""
    setup = setup_samples or [r["setup_s"] * r["factor"] for r in records]
    return {
        "wall_s": statistics.median(r["wall_s"] * r["factor"] for r in records),
        "work_per_s": statistics.median(r["units"] / (r["work_s"] * r["factor"])
                                        for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }


def unscaled(records: list[dict]) -> dict:
    return {"wall_s": statistics.median(r["wall_s"] for r in records),
            "work_per_s": statistics.median(r["units"] / r["work_s"] for r in records),
            "speed_factor": statistics.median(r["factor"] for r in records)}


SPANS = {
    "lie.bracket": ("calls", "s"),
    "lie.form": ("calls", "s"),
    "realization.series_expand": ("calls", "s"),
    "realization.build_operator_general": ("calls", "s", "self_s"),
    "realization.operator": ("calls",),
    "realization.apply_operator": ("calls", "s", "self_s"),
    "realization.bracket_sweep": ("s", "self_s"),
    "realization.act": ("calls",),
    "inducing.act": ("calls", "s"),
    "sampling.fock_states": ("s",),
    "cli.load_config": ("s",),
    "cli.main": ("s",),
}
COUNTERS = (
    "realization.series_expand.terms",
    "realization.apply_operator.terms_in",
    "realization.apply_operator.terms_out",
    "realization.bracket_sweep.checks",
    "realization.operator.builds",
    "realization.operator_terms",
)
# Layers by module, as sums of their spans' self times.
LAYERS = {
    "lie": ("lie.bracket", "lie.form"),
    "construction": ("realization.series_expand",
                     "realization.build_operator_general", "realization.operator"),
    "apply": ("realization.apply_operator", "realization.bracket_sweep",
              "realization.act"),
    "inducing": ("inducing.act",),
    "sampling": ("sampling.fock_states",),
    "cli": ("cli.load_config", "cli.write_report", "cli.main"),
}
FIELD = {"calls": 0, "s": 1, "self_s": 2}
NO_SPAN = [0, 0.0, 0.0]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def exact_counts(trace: dict) -> dict:
    """The counts that must repeat exactly between runs of the same inputs."""
    out = {f"{span}.calls": trace["stats"].get(span, NO_SPAN)[0]
           for span, fields in SPANS.items() if "calls" in fields}
    out.update({name: trace["counts"].get(name, 0) for name in COUNTERS})
    return out


def layer_self(trace: dict) -> dict[str, float]:
    return {layer: sum(trace["stats"].get(span, NO_SPAN)[2] for span in spans)
            for layer, spans in LAYERS.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Times are unscaled medians over the traced iterations and counts are
    exact; only the overhead ratio compares speed-scaled times."""
    traces = [r["trace"] for r in traced]
    out: dict[str, float] = exact_counts(traces[0])
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = statistics.median(
            layer_self(t)[layer] for t in traces)
    for span, fields in SPANS.items():
        for field in fields:
            if field != "calls":
                out[f"{span}.{field}"] = statistics.median(
                    t["stats"].get(span, NO_SPAN)[FIELD[field]] for t in traces)
    calls = out["realization.operator.calls"]
    out["realization.operator.hit_ratio"] = (
        (calls - out["realization.operator.builds"]) / calls if calls else 0.0)
    out["realization.operator.build_ms_p50"] = statistics.median(
        _percentile(t["build_ms"], 50) for t in traces)
    out["realization.operator.build_ms_p90"] = statistics.median(
        _percentile(t["build_ms"], 90) for t in traces)
    out["cli.self_s"] = statistics.median(
        t["stats"].get("cli.main", NO_SPAN)[2] for t in traces)
    out["process.startup_s"] = statistics.median(
        r["wall_s"] - r["in_process_s"] for r in plain)
    out["trace.wall_s"] = statistics.median(t["wall_s"] for t in traces)
    out["trace.overhead_ratio"] = (
        statistics.median(r["in_process_s"] * r["factor"] for r in traced)
        / statistics.median(r["in_process_s"] * r["factor"] for r in plain))
    return out


# --- the run --------------------------------------------------------------------

def metadata(args, loadavg_start: str, plain: list[dict], traced: list[dict],
             raw: dict | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=False)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "affinefock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "loadavg_start": loadavg_start, "loadavg_end": _loadavg(),
            "cpu": sorted(os.sched_getaffinity(0)),
            "iterations": len(plain), "traced_iterations": len(traced),
            "wall_s_samples": [round(r["wall_s"], 4) for r in plain if "wall_s" in r],
            "factor_samples": [round(r["factor"], 4) for r in plain if "factor" in r],
            "unscaled": raw}


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def declared_units(trace: bool) -> dict[str, str]:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in decl["per_layer" if trace else "end_to_end"]}


def measure(workload: Workload, seconds: float, trace: bool):
    """Closed loop until `seconds` have passed (at least one iteration)."""
    deadline = time.perf_counter() + seconds
    setup_samples = workload.prepare()
    plain, traced = [], []
    while not plain or time.perf_counter() < deadline:
        if trace:
            plain.append(workload.in_process(trace=False))
            traced.append(workload.in_process(trace=True))
        else:
            plain.append(workload.timed())
        if any(r["errors"] for r in plain + traced) or workload.flip:
            break
    if traced:
        first = exact_counts(traced[0]["trace"])
        for rec in traced[1:]:
            if exact_counts(rec["trace"]) != first:
                rec["errors"].append("exact counts differ between traced runs")
    return setup_samples, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' is for the smoke test only")
    parser.add_argument("--negative-control", action="store_true",
                        help="flip one operator term; the run must fail")
    args = parser.parse_args(argv)

    loadavg_start = _loadavg()
    # One CPU for the parent and every child: the calibration the parent
    # takes around a child then runs where the child runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if not (SRC / "affinefock" / "__init__.py").is_file():
            raise BenchError(f"no package sources at {SRC / 'affinefock'}")
        units = declared_units(bool(args.trace))
        WORK.mkdir(exist_ok=True)
        compileall.compile_dir(str(SRC), quiet=2)
        workload = WORKLOADS[args.workload](args.seed, args.size,
                                            args.negative_control)
        setup_samples, plain, traced = measure(workload, args.seconds,
                                               bool(args.trace))
    except (BenchError, OSError, ChildTimeout) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2

    records = plain + traced
    failed = sum(1 for r in records if r["errors"])
    for r in records:
        for err in r["errors"]:
            print(f"perfbench: FAILED: {err}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {}}
    raw = unscaled(plain) if failed == 0 and not traced else None
    if failed == 0:
        values = (per_layer(plain, traced) if args.trace
                  else end_to_end(plain, setup_samples))
        if set(values) != set(units):
            print("perfbench: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
            return 2
        result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
        for k in units:
            print(f"{k} {values[k]:.6g} {units[k]}")
        if traced:
            t = traced[0]["trace"]
            print(json.dumps({"spans": t["stats"], "wall_s": t["wall_s"]}))
            selfs = layer_self(t)
            top = max(selfs, key=selfs.get)
            print(f"largest layer by self time: {top} {selfs[top]:.4g} s of "
                  f"{t['wall_s']:.4g} s traced; expected one of "
                  f"{list(workload.largest)}: "
                  + ("holds" if top in workload.largest else "DOES NOT HOLD"))
    print(f"error_rate {failed / len(records):.6g} ({failed} of {len(records)})")
    print(json.dumps({"meta": metadata(args, loadavg_start, plain, traced, raw)}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
