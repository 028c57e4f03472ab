"""Command-line driver: act on states, run verification sweeps, emit tables.

Exit codes: 0 all checks passed, 1 an algebraic identity failed, 2 input could
not be parsed or an output file could not be written, 3 inputs parse but are
semantically incompatible, 4 an internal error (any other exception, such as
MemoryError), reported as one `error: internal error:` line.

`check-bracket` makes |basis|^2 * (2 max_mode + 1)^2 * samples checks, and a
window that asks for more than `MAX_SWEEP_CHECKS` exits 3 before the sweep: the
count at max_mode 0 is checked before any state is sampled, the full count after
the window's modes are.  `compare-engines` makes |basis| * (2 max_mode + 1) *
samples comparisons, held to the same budget before any state is sampled.  The
counts do not bound `max_degree`, which sets the size of each state.  `weights`
counts C(V + max_degree, max_degree) monomials in V = num_alpha * (2 max_mode +
1) variables, and a window with more than `MAX_WEIGHT_MONOMIALS` variables or
monomials exits 3 before any is listed.

The config file is JSON:

    {
      "algebra": {"n": 1, "sigma": []},
      "module":  {"kind": "heisenberg_fock", "level": "1", "lam": ["1"]},
      "engine":  "general",
      "window":  {"max_mode": 3, "max_degree": 3, "samples": 20},
      "seed":    2024,
      "output":  "text"
    }

Module descriptors:
    {"kind": "character", "level": "0",
     "assignments": [{"element": "h1", "mode": 0, "value": "2"}]}
    {"kind": "evaluation", "level": "0", "rep": "block", "block": 1, "s": "1"}
    {"kind": "evaluation", "level": "0", "rep": "trivial", "dim": 1, "s": "1"}
    {"kind": "heisenberg_fock", "level": "1", "lam": ["1", "-2"]}
A trivial evaluation module's dim is at most `inducing.MAX_EVALUATION_DIM`.

Generator names: `c` (central), `hI` (Cartan coroot), `wR` (center of the
Levi), `fK` / `eK` (1-based nilradical enumeration), `EI.J` (matrix unit).
Rationals are "p/q" strings (no decimals or exponents) or JSON integers;
state files use the canonical Fock format.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement

from .fock import (
    INDEX,
    FockState,
    canonical_json,
    mono_from_pairs,
    mono_mode_sum,
    mono_weight,
    state_from_obj,
    state_to_text,
)
from .formal_dist import delta_identity_suite
from .inducing import (
    MAX_EVALUATION_DIM,
    character_module,
    evaluation_module,
    heisenberg_fock,
    natural_block_rep,
)
from .lie import ParabolicData, as_scalar, cartan_h, matrix_unit, parabolic_decompose
from .realization import CENTRAL, Realization, bracket_sweep, check_engine, slot_reach
from .sampling import Sampler

Q = Fraction

# The most checks one check-bracket run may make, and the most comparisons of one
# compare-engines run: about ten times the 372,400 of the acceptance sweep, which
# takes a few seconds.
MAX_SWEEP_CHECKS = 4_000_000

# The most monomials one weights census may list: the sl(4) Borel at max_mode 3
# has 163,185 of degree <= 4, about 13 s, and 1,533,939 of degree <= 5.
MAX_WEIGHT_MONOMIALS = 200_000


class ParseError(Exception):
    pass


class SemanticError(Exception):
    pass


@contextmanager
def _semantic(context: str = ""):
    """Report a ValueError raised in the block as a SemanticError."""
    try:
        yield
    except ValueError as exc:
        raise SemanticError(context + str(exc)) from exc


class Job:
    """A loaded config: parabolic, module, engine, check window and output mode."""

    __slots__ = ("pd", "module", "engine", "max_mode", "max_degree", "samples", "seed",
                 "output")

    def __init__(self, pd: ParabolicData, module, engine: str, max_mode: int,
                 max_degree: int, samples: int, seed: int, output: str):
        self.pd = pd
        self.module = module
        self.engine = engine
        self.max_mode = max_mode
        self.max_degree = max_degree
        self.samples = samples
        self.seed = seed
        self.output = output

    def replace(self, **changes) -> Job:
        """A copy with the named fields changed."""
        return Job(**{name: getattr(self, name) for name in self.__slots__} | changes)


def parse_generator(pd: ParabolicData, name: str):
    if not isinstance(name, str):
        raise ParseError(f"generator names are strings, got {name!r}")
    if name == "c":
        return CENTRAL
    m = re.fullmatch(f"h({INDEX})", name)
    if m:
        i = int(m.group(1))
        if not 1 <= i <= pd.n:
            raise ParseError(f"Cartan index out of range in {name!r}")
        return cartan_h(pd.n, i)
    m = re.fullmatch(f"w({INDEX})", name)
    if m:
        label = f"w{int(m.group(1))}"
        if label not in pd.center_names:
            raise ParseError(f"{name!r} is not a center direction for this parabolic")
        return pd.center_basis[pd.center_names.index(label)]
    m = re.fullmatch(f"([fe])({INDEX})", name)
    if m:
        k = int(m.group(2))
        if not 1 <= k <= pd.num_alpha:
            raise ParseError(f"nilradical index out of range in {name!r}")
        return (pd.f_basis if m.group(1) == "f" else pd.e_basis)[k - 1]
    m = re.fullmatch(rf"E({INDEX})\.({INDEX})", name)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        if i == j or not (1 <= i <= pd.n + 1 and 1 <= j <= pd.n + 1):
            raise ParseError(f"bad matrix unit {name!r}")
        return matrix_unit(pd.n, i, j)
    raise ParseError(f"unknown generator name {name!r}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing {key!r} in {where}")
    return obj[key]


def _scalar(text, where: str) -> Fraction:
    """A "p/q" string or a JSON integer; floats and bools are parse errors."""
    try:
        return as_scalar(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational in {where}: {text!r}") from exc


def _int(value, where: str) -> int:
    """A JSON integer; bools, floats and strings are parse errors."""
    if type(value) is not int:
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


# An integer argument (--mode, and MODE and IDX of --flip): a sign and ASCII
# digits, at most the 4,300 that int() converts.  int() alone would also read
# other scripts' digits, surrounding whitespace and underscores.
CLI_INTEGER = "-?[0-9]{1,4300}"


def _cli_int(text: str, where: str) -> int:
    if not re.fullmatch(CLI_INTEGER, text):
        raise ParseError(f"{where} must be an integer, got {text!r}")
    return int(text)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, got {value!r}")
    return value


def _obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def build_module(pd: ParabolicData, desc: dict):
    kind = _require(desc, "kind", "module descriptor")
    level = _scalar(desc.get("level", "0"), "module level")
    with _semantic():
        if kind == "character":
            assignments = []
            for rec in _list(desc.get("assignments", []), "assignments"):
                rec = _obj(rec, "assignment")
                elem = parse_generator(pd, _require(rec, "element", "assignment"))
                if elem is CENTRAL:
                    raise ParseError("assign the level through 'level', not 'c'")
                assignments.append((elem, _int(_require(rec, "mode", "assignment"),
                                               "assignment mode"),
                                    _scalar(_require(rec, "value", "assignment"),
                                            "assignment")))
            return character_module(pd, assignments, level)
        if kind == "evaluation":
            s = _scalar(_require(desc, "s", "evaluation module"), "evaluation point")
            rep = desc.get("rep", "block")
            if rep == "block":
                block = _int(desc.get("block", 0), "evaluation block")
                if not 0 <= block < len(pd.blocks):
                    raise SemanticError(f"no Levi block {block} for this parabolic")
                rho = natural_block_rep(pd, block)
            elif rep == "trivial":
                dim = _int(desc.get("dim", 1), "evaluation dim")
                if dim > MAX_EVALUATION_DIM:
                    raise SemanticError(f"evaluation dim {dim} above the bound "
                                        f"{MAX_EVALUATION_DIM}")
                rho = [[[Q(0)] * dim for _ in range(dim)] for _ in pd.levi_basis]
            else:
                raise ParseError(f"unknown evaluation rep {rep!r}")
            return evaluation_module(pd, rho, s, level)
        if kind == "heisenberg_fock":
            lam = [_scalar(v, "highest weight")
                   for v in _list(_require(desc, "lam", "module"), "lam")]
            return heisenberg_fock(pd, lam, level)
    raise ParseError(f"unknown module kind {kind!r}")


def _read_json(path: str, what: str, malformed: str):
    """Decode a JSON file; an unreadable file, bad UTF-8, bad JSON, deep nesting
    or an integer past Python's digit limit raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{malformed}: {exc}") from exc


def load_config(path: str) -> Job:
    obj = _obj(_read_json(path, "config", "config is not valid JSON"), "config")
    alg = _obj(_require(obj, "algebra", "config"), "algebra")
    with _semantic():
        pd = parabolic_decompose(_int(_require(alg, "n", "algebra"), "n"),
                                 [_int(s, "sigma entry")
                                  for s in _list(alg.get("sigma", []), "sigma")])
    module = build_module(pd, _obj(_require(obj, "module", "config"), "module"))
    engine = obj.get("engine", "general")
    if engine not in ("general", "explicit"):
        raise ParseError(f"unknown engine {engine!r}")
    with _semantic():
        check_engine(pd, engine)
    window = _obj(obj.get("window", {}), "window")
    max_mode = _int(window.get("max_mode", 3), "max_mode")
    max_degree = _int(window.get("max_degree", 3), "max_degree")
    samples = _int(window.get("samples", 20), "samples")
    if max_mode < 0 or max_degree < 0 or samples < 1:
        raise SemanticError("window parameters must be nonnegative (samples >= 1)")
    output = obj.get("output", "text")
    if output not in ("text", "records"):
        raise ParseError(f"unknown output mode {output!r}")
    return Job(pd=pd, module=module, engine=engine, max_mode=max_mode,
               max_degree=max_degree, samples=samples,
               seed=_int(obj.get("seed", 0), "seed"), output=output)


def make_realization(job: Job, operator_hook=None) -> Realization:
    with _semantic():
        return Realization(job.pd, job.module, job.engine, operator_hook)


def load_state(job: Job, spec: str) -> FockState:
    if spec == "vacuum" or spec.startswith("vacuum:"):
        index = "0" if spec == "vacuum" else spec[len("vacuum:"):]
        if not re.fullmatch(f"-?{INDEX}", index):
            raise ParseError(f"bad vacuum index in --state {spec!r}")
        v = int(index)
        with _semantic():
            job.module.check_v_index(v)
        return FockState.vacuum(v)
    obj = _read_json(spec, "state file", "malformed state file")
    try:
        return state_from_obj(obj, job.module)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed state file: {exc}") from exc
    except ValueError as exc:
        raise SemanticError(str(exc)) from exc


def _open_output(path: str, what: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {what}: {exc}") from exc


def _write_output(fh, text: str, what: str):
    """Write text to an open output file and close it."""
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {what}: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        _write_output(_open_output(out_path, "output"), text, "output")


def _header(job: Job) -> str:
    return (f"config: n={job.pd.n} sigma={sorted(job.pd.sigma)} "
            f"module={job.module.describe()} engine={job.engine} seed={job.seed}")


def _flipped_realization(job: Job, flip: str) -> Realization:
    """Realization with one operator term negated (the GEN:MODE:IDX spec).

    The sweep acts only by basis elements, in modes |mode| <= 2 * max_mode, so
    a flip outside those would never be applied and is rejected.  The flipped
    operator is built here, so an index outside the operator's terms is
    rejected before any sweep; the cache then serves it to the sweep.
    """
    try:
        gen, mode, idx = flip.split(":")
        elem = parse_generator(job.pd, gen)
        mode, idx = _cli_int(mode, "MODE"), _cli_int(idx, "IDX")
    except (ValueError, ParseError) as exc:
        raise ParseError(f"bad --flip spec {flip!r}: {exc}") from exc
    if elem is CENTRAL:
        raise SemanticError("the central element has no operator terms to flip")
    if elem not in job.pd.algebra.basis or abs(mode) > 2 * job.max_mode:
        raise SemanticError(f"bad --flip spec {flip!r}: the sweep applies only basis "
                            f"elements, in modes |mode| <= {2 * job.max_mode}")

    def hook(a, m, op):
        if a == elem and m == mode:
            return op.with_flipped_term(idx)
        return op

    real = make_realization(job, operator_hook=hook)
    with _semantic(f"bad --flip spec {flip!r}: "):
        real.operator(elem, mode)
    return real


def _require_modes(job: Job, window: int):
    """Reject a module that leaves a mode |mode| <= window undefined; such
    modes are negative or large, so checking -window and window suffices."""
    with _semantic(f"this command acts in modes |mode| <= {window}: "):
        job.module.check_mode(-window)
        job.module.check_mode(window)


def _require_budget(job: Job, max_mode: int):
    """Reject a check-bracket window over max_mode that makes more than
    `MAX_SWEEP_CHECKS` checks: |basis|^2 * (2 max_mode + 1)^2 * samples."""
    count = len(job.pd.homogeneous_basis) ** 2 * (2 * max_mode + 1) ** 2 * job.samples
    if count > MAX_SWEEP_CHECKS:
        raise SemanticError(f"the window asks for at least {count} bracket checks, above "
                            f"the budget of {MAX_SWEEP_CHECKS}")


def _require_census(job: Job):
    """Reject a weights window with more than `MAX_WEIGHT_MONOMIALS`
    variables, V = num_alpha * (2 max_mode + 1), or monomials of degree <= D =
    max_degree in them, C(V + D, D).  The count runs degree by degree and stops
    at the first one past the budget, so it never lists a variable."""
    variables = job.pd.num_alpha * (2 * job.max_mode + 1)
    if variables > MAX_WEIGHT_MONOMIALS:
        raise SemanticError(f"the window has {variables} variables, above the budget "
                            f"of {MAX_WEIGHT_MONOMIALS}")
    count, degree = 1, 0
    while variables and degree < job.max_degree and count <= MAX_WEIGHT_MONOMIALS:
        degree += 1
        count = count * (variables + degree) // degree
    if count > MAX_WEIGHT_MONOMIALS:
        raise SemanticError(f"the window asks for at least {count} monomials, above "
                            f"the budget of {MAX_WEIGHT_MONOMIALS}")


# --- commands ---------------------------------------------------------------------

def cmd_act(job: Job, generator: str, mode: int, state_spec: str,
            out_path: str | None) -> int:
    elem = parse_generator(job.pd, generator)
    if elem is CENTRAL and mode != 0:
        raise SemanticError("the central element has no modes; use --mode 0")
    state = load_state(job, state_spec)
    real = make_realization(job)
    with _semantic():
        result = real.act(elem, mode, state)
    # a coefficient past Python's int-to-string limit
    with _semantic("cannot write the result: "):
        text = state_to_text(result, job.module)
    _emit(text, out_path)
    return 0


def cmd_dump(job: Job, generator: str, mode: int, out_path: str | None) -> int:
    elem = parse_generator(job.pd, generator)
    if elem is CENTRAL:
        raise SemanticError("the central element has no operator dump; it scales by the level")
    real = make_realization(job)
    op = real.operator(elem, mode)
    _emit(op.render() + "\n", out_path)
    return 0


def cmd_check_bracket(job: Job, records_path: str | None, flip: str | None) -> int:
    _require_modes(job, 2 * job.max_mode)  # the range bracket_sweep hoists
    real = _flipped_realization(job, flip) if flip else make_realization(job)
    _require_budget(job, 0)  # the samples alone, before they are drawn
    smp = Sampler(job.seed)
    states = smp.fock_states(job.module, job.samples, job.max_degree, job.max_mode)
    _require_modes(job, 2 * job.max_mode + slot_reach(states))  # plus the slot modes
    _require_budget(job, job.max_mode)
    # opened before the sweep, so an unwritable path fails before any check
    records_file = _open_output(records_path, "records") if records_path else None
    basis = job.pd.homogeneous_basis
    n_modes = 2 * job.max_mode + 1
    records = []
    lines = [_header(job)]

    on_check = None
    if records_file is not None or job.output == "records":
        # canonical_json of the whole record: the (a, b) prefix, encoded once
        # per pair, then the remaining keys in sorted order
        prefixes: dict = {}

        def on_check(a, b, m, n, si, ok):
            head = prefixes.get((a, b))
            if head is None:
                head = prefixes[a, b] = canonical_json({"a": a, "b": b})[:-1]
            records.append(f'{head},"check":"bracket","m":{m},"n":{n},"state":{si},'
                           f'"status":"{"pass" if ok else "fail"}"}}')

    checks, failure = bracket_sweep(real, job.max_mode, states, on_check)
    if job.output == "records":
        lines.extend(records)
    if failure is not None:
        lines.append(f"FAIL at a={failure['a']} b={failure['b']} "
                     f"m={failure['m']} n={failure['n']} state={failure['state']}")
        lines.append("witness: "
                     + state_to_text(failure["residual"], job.module).strip())
        _finish(lines, records, records_file)
        return 1
    lines.append(f"PASS {len(basis) ** 2} basis pairs x {n_modes * n_modes} mode "
                 f"pairs x {len(states)} states ({checks} checks)")
    _finish(lines, records, records_file)
    return 0


def _finish(lines, records, records_file):
    if records_file is not None:
        _write_output(records_file, "".join(rec + "\n" for rec in records),
                      "records")
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_compare_engines(job: Job) -> int:
    _require_modes(job, job.max_mode)
    count = len(job.pd.homogeneous_basis) * (2 * job.max_mode + 1) * job.samples
    if count > MAX_SWEEP_CHECKS:
        raise SemanticError(f"the window asks for {count} engine comparisons, above "
                            f"the budget of {MAX_SWEEP_CHECKS}")
    gen = make_realization(job.replace(engine="general"))
    exp = make_realization(job.replace(engine="explicit"))
    smp = Sampler(job.seed)
    states = smp.fock_states(job.module, job.samples, job.max_degree, job.max_mode)
    _require_modes(job, job.max_mode + slot_reach(states))
    lines = [_header(job)]
    bad = 0
    for name, elem, _ in job.pd.homogeneous_basis:
        structural = gen.operator(elem, 0).terms == exp.operator(elem, 0).terms
        action = all(gen.act(elem, m, s) == exp.act(elem, m, s)
                     for m in range(-job.max_mode, job.max_mode + 1)
                     for s in states)
        verdict = "structural=%s action=%s" % ("OK" if structural else "MISMATCH",
                                               "OK" if action else "MISMATCH")
        lines.append(f"{name}: {verdict}")
        if not (structural and action):
            bad += 1
    lines.append(("PASS all %d generators agree" % len(job.pd.homogeneous_basis))
                 if bad == 0 else ("FAIL %d generators disagree" % bad))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if bad == 0 else 1


def cmd_weights(job: Job) -> int:
    _require_census(job)
    pd, mod = job.pd, job.module
    v_weights = []
    missing = []
    for h in pd.cartan:
        w = mod.v_weight(0, h)
        if w is None:
            if "weight" not in missing:
                missing.append("weight")
            v_weights.append(Q(0))
        else:
            v_weights.append(w)
    v_mode = mod.v_mode(0)
    if v_mode is None:
        missing.append("mode")
        v_mode = 0
    variables = [(alpha, mode) for alpha in range(pd.num_alpha)
                 for mode in range(-job.max_mode, job.max_mode + 1)]
    cells: dict[tuple, int] = {}
    for degree in range(job.max_degree + 1 if variables else 1):
        for combo in combinations_with_replacement(variables, degree):
            mono = mono_from_pairs([(a, n, 1) for a, n in combo])
            weight = tuple(vw + mono_weight(pd, mono, h)
                           for vw, h in zip(v_weights, pd.cartan))
            mode = mono_mode_sum(mono) + v_mode
            key = (degree, mode, weight)
            cells[key] = cells.get(key, 0) + 1
    lines = [_header(job)]
    lines.append("note: true weight spaces are infinite-dimensional; this census "
                 f"is truncated to degree<={job.max_degree}, |mode|<={job.max_mode}, "
                 "and counts monomials tensored with the first basis vector of V")
    if missing:
        lines.append(f"note: V carries no {' or '.join(missing)} grading; "
                     "those V contributions were treated as zero")
    for degree, mode, weight in sorted(cells):
        wtxt = ",".join(str(w) for w in weight)
        lines.append(f"degree={degree} mode={mode} weight=({wtxt}) "
                     f"count={cells[(degree, mode, weight)]}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_delta_selftest() -> int:
    lines = []
    ok_all = True
    for idx, (desc, ok) in enumerate(delta_identity_suite(window=8), start=1):
        ok_all = ok_all and ok
        lines.append(f"item {idx} {'PASS' if ok else 'FAIL'}: {desc}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok_all else 1


# --- entry point -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinefock",
        description="exact free field realization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_act = sub.add_parser("act", help="apply a realized generator to a state")
    p_act.add_argument("--config", required=True)
    p_act.add_argument("--generator", required=True)
    p_act.add_argument("--mode", default="0")
    p_act.add_argument("--state", required=True,
                       help="state file, or 'vacuum' / 'vacuum:K'")
    p_act.add_argument("--out", default=None)

    p_dump = sub.add_parser("dump", help="print the canonical operator form")
    p_dump.add_argument("--config", required=True)
    p_dump.add_argument("--generator", required=True)
    p_dump.add_argument("--mode", default="0")
    p_dump.add_argument("--out", default=None)

    p_chk = sub.add_parser("check-bracket",
                           help="sweep the bracket identity over basis pairs")
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--records", default=None,
                       help="write one JSON record per check to this file")
    p_chk.add_argument("--flip", default=None, metavar="GEN:MODE:IDX",
                       help="negative-control hook: negate one operator term")

    p_cmp = sub.add_parser("compare-engines",
                           help="general series engine vs closed forms")
    p_cmp.add_argument("--config", required=True)

    p_w = sub.add_parser("weights", help="windowed weight-space census")
    p_w.add_argument("--config", required=True)

    sub.add_parser("delta-selftest", help="run the six delta-kernel identities")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "delta-selftest":
            return cmd_delta_selftest()
        mode = _cli_int(getattr(args, "mode", "0"), "--mode")
        job = load_config(args.config)
        if args.command == "act":
            return cmd_act(job, args.generator, mode, args.state, args.out)
        if args.command == "dump":
            return cmd_dump(job, args.generator, mode, args.out)
        if args.command == "check-bracket":
            return cmd_check_bracket(job, args.records, args.flip)
        if args.command == "compare-engines":
            return cmd_compare_engines(job)
        if args.command == "weights":
            return cmd_weights(job)
        raise ParseError(f"unknown command {args.command!r}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
