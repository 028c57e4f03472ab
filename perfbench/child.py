"""One benchmark iteration, run in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'   (with src/ on PYTHONPATH)

The spec names the kind of iteration (`sweep`, `build`, `cli` or
`cli-setup`) and its inputs.  The child prints one JSON object as its last
line of output: in-process phase times measured from the start of this
script, the work done, and what the parent needs to check the outputs.

With `"trace": true` the public entry points of each package module are
wrapped before any work starts, and the result carries per-span call counts,
total and self seconds, plus the exact counters the layers are judged by.
Tracing never runs in the iterations that give end-to-end figures.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


# --- tracing ---------------------------------------------------------------------

class Tracer:
    """Aggregated spans: per name, [calls, seconds, self seconds].

    A span's self time is its duration minus the time covered by the wrapped
    spans it caused; calls are single-threaded, so a stack of child-time
    accumulators is exact.  Spans are aggregated as they close rather than
    stored one by one, because inner layers run millions of times.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.build_ms: list[float] = []
        self._stack = [0.0]

    def count(self, name: str, k: int):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, note=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the layer entry points; every module-level binding of a
        wrapped function is replaced, so `from .lie import bracket` callers
        are traced too."""
        import affinefock.cli as cli
        import affinefock.inducing as inducing
        import affinefock.lie as lie
        import affinefock.realization as rz
        import affinefock.sampling as sampling

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "affinefock" or name.startswith("affinefock.")]

        def function(mod, attr, name, note=None):
            orig = getattr(mod, attr)
            wrapped = self.span(name, orig, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

        def method(cls, attr, name, note=None):
            setattr(cls, attr, self.span(name, getattr(cls, attr), note))

        function(lie, "bracket", "lie.bracket")
        function(lie, "form", "lie.form")
        function(rz, "series_expand", "realization.series_expand",
                 lambda a, r: self.count("realization.series_expand.terms", len(r)))
        function(rz, "build_operator_general", "realization.build_operator_general")
        function(rz, "apply_operator", "realization.apply_operator", self._note_apply)
        function(rz, "bracket_sweep", "realization.bracket_sweep",
                 lambda a, r: self.count("realization.bracket_sweep.checks", r[0]))
        function(cli, "load_config", "cli.load_config")
        function(cli, "_finish", "cli.write_report")
        function(cli, "main", "cli.main")
        method(rz.Realization, "act", "realization.act")
        self._wrap_operator(rz.Realization)
        method(sampling.Sampler, "fock_states", "sampling.fock_states")
        for cls in (inducing.CharacterModule, inducing.EvaluationModule,
                    inducing.HeisenbergFockModule):
            method(cls, "act", "inducing.act")

    def _note_apply(self, args, result):
        self.count("realization.apply_operator.terms_in", len(args[1].terms))
        self.count("realization.apply_operator.terms_out", len(result.terms))

    def _wrap_operator(self, cls):
        """`Realization.operator` span; a call that ran build_operator_general
        is a cache miss, whose latency and operator size are recorded too."""
        orig = cls.operator
        builds = self.stats["realization.build_operator_general"]
        clock = time.perf_counter

        def operator(real, a, m):
            before = builds[0]
            start = clock()
            op = orig(real, a, m)
            if builds[0] != before:
                self.build_ms.append((clock() - start) * 1000.0)
                self.count("realization.operator.builds", 1)
                self.count("realization.operator_terms", len(op.terms))
            return op

        cls.operator = self.span("realization.operator", operator)

    def report(self, end: float) -> dict:
        return {"wall_s": end - T0, "stats": self.stats, "counts": self.counts,
                "build_ms": self.build_ms}


# --- iterations ------------------------------------------------------------------

def _flip_hook(elem, mode):
    """Negative control: negate the first term of one operator.  For an f
    generator that is the bare creation term, which acts on every state."""
    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == elem and m == mode) else op
    return hook


def _shaped_states(sampler, module, count, degree, max_mode):
    """`count` Sampler states of one fixed shape: two terms, each a product of
    `degree` distinct variables.  Draws continue from the same generator
    until enough have that shape, so every seed gives work of the same size."""
    states = []
    while len(states) < count:
        for st in sampler.fock_states(module, 16, degree, max_mode):
            monos = [mono for mono, _v in st.terms]
            if len(monos) == 2 and all(len(mono) == degree
                                       and all(e == 1 for _a, _n, e in mono)
                                       for mono in monos):
                states.append(st)
    return states[:count]


def run_sweep(spec):
    from fractions import Fraction

    from affinefock import Realization, Sampler, bracket_sweep, character_module
    from affinefock.lie import parabolic_decompose

    pd = parabolic_decompose(spec["n"], spec["sigma"])
    w1 = pd.center_basis[0]
    module = character_module(pd, [(w1, m, Fraction(v)) for m, v in spec["character"]])
    basis = pd.homogeneous_basis
    hook = _flip_hook(pd.f_basis[0], 1) if spec["flip"] else None
    real = Realization(pd, module, operator_hook=hook)
    states = _shaped_states(Sampler(spec["sampler_seed"]), module, spec["states"],
                            spec["max_degree"], spec["state_mode"])
    t_setup = time.perf_counter()
    checks, failure = bracket_sweep(real, spec["max_mode"], states)
    t_end = time.perf_counter()
    errors = []
    if failure is not None:
        errors.append(f"nonzero residual at a={failure['a']} b={failure['b']} "
                      f"m={failure['m']} n={failure['n']} state={failure['state']}")
    expected = len(basis) ** 2 * (2 * spec["max_mode"] + 1) ** 2 * len(states)
    if checks != expected and failure is None:
        errors.append(f"{checks} checks, expected {expected}")
    return {"setup_s": t_setup - T0, "work_s": t_end - t_setup, "units": checks,
            "errors": errors}, t_end


def run_build(spec):
    from affinefock import Realization, character_module
    from affinefock.lie import parabolic_decompose

    pd = parabolic_decompose(spec["n"], ())
    basis = pd.homogeneous_basis
    hook = _flip_hook(pd.f_basis[0], spec["modes"][0]) if spec["flip"] else None
    real = Realization(pd, character_module(pd), operator_hook=hook)
    t_setup = time.perf_counter()
    requests = [(i, m) for i in range(len(basis)) for m in spec["modes"]]
    random.Random(spec["seed"]).shuffle(requests)
    rendered = {}
    for i, m in requests:
        rendered[(i, m)] = real.operator(basis[i][1], m).render()
    t_end = time.perf_counter()
    digests = {str(mode): hashlib.sha256("".join(
        f"{basis[i][0]} {m}\n{rendered[(i, m)]}\n"
        for i, m in sorted(rendered) if m == mode).encode()).hexdigest()
        for mode in spec["modes"]}
    return {"setup_s": t_setup - T0, "work_s": t_end - t_setup,
            "units": len(requests), "digests": digests, "errors": []}, t_end


def run_cli(spec):
    import affinefock.cli as cli

    t_setup = time.perf_counter()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(spec["argv"])
    t_end = time.perf_counter()
    return {"setup_s": t_setup - T0, "work_s": t_end - t_setup,
            "exit": code, "stdout": out.getvalue(), "errors": []}, t_end


def run_cli_setup(spec):
    """What check-bracket does before its sweep: import, config, module,
    realization and state sampling."""
    import affinefock.cli as cli
    from affinefock.sampling import Sampler

    job = cli.load_config(spec["config"])
    cli.make_realization(job)
    Sampler(job.seed).fock_states(job.module, job.samples, job.max_degree,
                                  job.max_mode)
    t_end = time.perf_counter()
    return {"setup_s": t_end - T0, "work_s": 0.0, "errors": []}, t_end


RUNNERS = {"sweep": run_sweep, "build": run_build, "cli": run_cli,
           "cli-setup": run_cli_setup}


def main():
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
    result, t_end = RUNNERS[spec["kind"]](spec)
    result["in_process_s"] = t_end - T0
    if tracer is not None:
        result["trace"] = tracer.report(t_end)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
