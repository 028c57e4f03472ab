"""Apply differential: one sha256 over many operator applications and sweeps.

On every parabolic of sl(2)..sl(4) (ranks 1..3) it builds each module kind
that the parabolic admits: a character of the Levi center (level 0), the
evaluation module of the first Levi block's natural representation at
s = -2/3 (level 0) and, on the Borel, the Cartan Fock module at level -3/2.
On each module it applies every basis operator at modes -2..2 to three
sampled states, then runs `bracket_sweep` at max_mode 1 on two of them,
with the module's monomial table still holding the applications' entries,
kernels included, and then applies every basis operator again on the table
the sweep emptied, so each kernel is compiled again.
On the Borels of sl(2) and sl(3) and on sl(3) {1} it also applies every
basis operator to deep states (degree up to 6, modes down to -2), whose
monomials hold a family at three or more positions, so the order of the
slot matches shows in the key order.  Last it sweeps every mode-1 term flip
of the sl(2) Borel (Cartan Fock, level 1) and of sl(3) {2}, on a character
and, with states of degree up to 3, on the evaluation module at s = -2/3, whose
Levi heads bring new denominators partway through a product and where some
witnesses hold keys that X sets, Y cancels and Y sets again, so their key
order is that of summing x and y apart.  Each application adds its output
text and its items in order; each sweep adds its verdicts in report order,
its check count, its failing cell and the witness items in order.  Prints
the number of records and their sha256:

    python tests/apply_differential.py

It imports the package from `src/` under the working directory, so running
this one file from the roots of two checkouts compares their code: when the
two lines agree, every one of these applications and sweeps gives the same
values, in the same key order.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from affinefock.fock import state_to_text  # noqa: E402
from affinefock.inducing import (  # noqa: E402
    character_module,
    evaluation_module,
    heisenberg_fock,
    natural_block_rep,
)
from affinefock.lie import ParabolicData  # noqa: E402
from affinefock.realization import (  # noqa: E402
    Realization,
    apply_operator,
    bracket_sweep,
    build_operator_general,
)
from affinefock.sampling import Sampler  # noqa: E402

Q = Fraction
RANKS = range(1, 4)
APPLY_MODES = range(-2, 3)
DEEP = [(1, ()), (2, ()), (2, (1,))]


def modules(pd: ParabolicData):
    """(label, module) for each module kind the parabolic admits."""
    center = pd.center_basis
    values = [(z, mode, Q(7 - 2 * k, 3)) for k, z in enumerate(center)
              for mode in (0, 1)]
    yield "character", character_module(pd, values)
    yield "evaluation", evaluation_module(pd, natural_block_rep(pd, 0), Q(-2, 3))
    if not pd.sigma:
        yield "heisenberg", heisenberg_fock(
            pd, [Q(1 - 2 * j, 3) for j in range(pd.n)], Q(-3, 2))


def sweep_record(real: Realization, states) -> str:
    """A sweep's verdicts, check count, failing cell and witness as text."""
    seen = []
    checks, failure = bracket_sweep(real, 1, states, lambda *args: seen.append(args))
    lines = [repr(seen), f"checks {checks}"]
    if failure is not None:
        cell = [failure[k] for k in ("a", "b", "m", "n", "state")]
        lines += [f"failure {cell}", repr(list(failure["residual"].terms.items()))]
    return "\n".join(lines)


def apply_records(where: str, real: Realization, states):
    """(header, text) for every basis operator at every mode in APPLY_MODES
    applied to every state."""
    mod = real.module
    for name, a, _h in real.pd.homogeneous_basis:
        for m in APPLY_MODES:
            for si, s in enumerate(states):
                out = apply_operator(real.operator(a, m), s, mod)
                yield (f"{where} apply {name} m={m} state={si}",
                       state_to_text(out, mod) + repr(list(out.terms.items())))


def records():
    """(header, text) for every application and sweep, in order."""
    for n in RANKS:
        for size in range(n + 1):
            for sigma in combinations(range(1, n + 1), size):
                pd = ParabolicData(n, sigma)
                for label, mod in modules(pd):
                    real = Realization(pd, mod)
                    states = Sampler(100 * n + size).fock_states(mod, 3, 2, 1)
                    where = f"sl({n + 1}) {list(sigma)} {label}"
                    yield from apply_records(where, real, states)
                    yield f"{where} sweep", sweep_record(real, states[:2])
                    yield from apply_records(f"{where} after sweep", real, states)
    for n, sigma in DEEP:
        pd = ParabolicData(n, sigma)
        for label, mod in modules(pd):
            states = Sampler(7 + n).fock_states(mod, 2, 6, 2)
            yield from apply_records(f"sl({n + 1}) {list(sigma)} {label} deep",
                                     Realization(pd, mod), states)
    pd3 = ParabolicData(2, (2,))
    z = pd3.center_basis[0]
    flips = [(ParabolicData(1, ()), lambda pd: heisenberg_fock(pd, [Q(1)], Q(1)), 2),
             (pd3, lambda pd: character_module(pd, [(z, 0, Q(2)), (z, 1, Q(-1, 2))]), 2),
             (pd3, lambda pd: evaluation_module(pd, natural_block_rep(pd, 0), Q(-2, 3)), 3)]
    for pd, make, degree in flips:
        for name, elem, _h in pd.homogeneous_basis:
            for idx in range(len(build_operator_general(pd, elem, 1).terms)):
                def hook(a, m, op, elem=elem, idx=idx):
                    return op.with_flipped_term(idx) if (a == elem and m == 1) else op
                mod = make(pd)
                real = Realization(pd, mod, operator_hook=hook)
                states = Sampler(31).fock_states(mod, 2, degree, 1)
                yield (f"sl({pd.n + 1}) {sorted(pd.sigma)} flip {name}:1:{idx}",
                       sweep_record(real, states))


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for head, text in records():
        digest.update(f"{head}\n{text}\n".encode())
        count += 1
    print(f"{count} records sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
