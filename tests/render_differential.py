"""Render differential: one sha256 over the operator dumps of many templates.

Builds pi(a) for every parabolic of sl(2)..sl(7) (ranks 1..6), with the
general engine and, on a maximal parabolic, the closed-form engine too, for
every basis element, every Levi-center basis element and -2/3 times each of
them, and renders each operator at modes -1 and 2.  Prints the number of
renders and the sha256 of all of them, each behind a header line naming its
rank, Sigma, engine, element and mode:

    python tests/render_differential.py

It imports the package from `src/` under the working directory, so running
this one file from the roots of two checkouts compares their code: when the
two lines agree, every one of these operators renders byte for byte alike,
term order included.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from affinefock.lie import ParabolicData  # noqa: E402
from affinefock.realization import (  # noqa: E402
    NormalOrderedOperator,
    build_operator_explicit_sl,
    build_operator_general,
)

RANKS = range(1, 7)
MODES = (-1, 2)
SCALE = Fraction(-2, 3)


def renders():
    """(header, render) for every template of the differential, in order."""
    for n in RANKS:
        for size in range(n + 1):
            for sigma in combinations(range(1, n + 1), size):
                pd = ParabolicData(n, sigma)
                names = pd.algebra.names + pd.center_names
                elems = pd.algebra.basis + pd.center_basis
                engines = [("general", build_operator_general)]
                if pd.depth_k == 1:
                    engines.append(("explicit", build_operator_explicit_sl))
                for label, build in engines:
                    for scale in (1, SCALE):
                        for name, a in zip(names, elems):
                            terms = build(pd, a.scale(scale), 0).terms
                            for m in MODES:
                                head = f"sl({n + 1}) {list(sigma)} {label} {scale}*{name} m={m}"
                                yield head, NormalOrderedOperator(terms, m).render()


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for head, text in renders():
        digest.update(f"{head}\n{text}\n".encode())
        count += 1
    print(f"{count} renders sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
