"""Zariski decomposition relative to a curve configuration.

D = P + N with P pairing nonnegatively with every listed curve, N effective
with negative definite support and P . N_i = 0. The support is grown
iteratively: solve for the combination N on the current support that matches
D there, then adopt every curve the remainder still meets negatively. Each
pass only adds curves, so the loop ends within one pass per curve. Ties (two
or more curves turning negative in the same pass) are adopted simultaneously,
which keeps the outcome independent of any curve ordering.

N stays effective with no check. Each pass adds to N the y with M_S y = r:
M_S is the pairing on the new support, r is 0 on the old support and
(D - N) . C_j < 0 on each adopted curve C_j, and M_S^-1 <= 0 entrywise since
-M_S is a nonsingular M-matrix, positive definite with nonpositive off-diagonal
entries (Berman-Plemmons 1979, *Nonnegative Matrices in the Mathematical Sciences*).

The pass loop runs on integers, on D as it is stored: numerators d_j over one
den (see ``folcalc.lattice``). ``target[j]``, the numerator of D . C_j over
den, is the rhs of each solve, so the solution is den * N. The kernel returns
it as integer numerators over its least common denominator ``scale``, so N and
N . C_j become numerators over den * scale, and curve j is adopted when
``target[j] * scale < n_degrees[j]``. N and P = D - N leave as those
numerators, P_j = d_j * scale - x_j, over den * scale, reduced by
``QDivisor._reduced``; no Fraction is built here outside ``pseudo_threshold``.

"Pseudoeffective relative to the configuration" means exactly that this
procedure succeeds; cone membership on an actual surface is not decidable
from the finite data here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotPseudoeffectiveError, ValidationError
from .lattice import DualGraph, QDivisor, _on_graph, degree_vector, principal_rows
from .linalg import factor
from .rationals import Record, parse_rational


class ZariskiResult(Record):
    """positive + negative = the decomposed divisor; support = supp(negative)."""

    positive: QDivisor
    negative: QDivisor
    support: tuple[str, ...]


def zariski_decompose(graph: DualGraph, d: QDivisor) -> ZariskiResult:
    """Split d into its nef and contractible parts relative to the graph.

    Its one failure is NotPseudoeffectiveError when the accumulated support
    stops being negative definite (``location`` names the curves adopted in
    that pass); N >= 0 needs no check (see the module docstring). Each pass
    makes one ``factor`` call, which stops early on a support that is not definite.
    """
    _on_graph(graph, d)
    labels = graph.labels
    target = degree_vector(graph, d._numerators)
    support: list[int] = []
    coeffs: dict[int, int] = {}
    scale = 1
    adopted: list[int] = []
    for _ in range(len(labels) + 1):
        if support:
            record = factor(principal_rows(graph, support), stop_early=True)
            if record is None:
                raise NotPseudoeffectiveError(
                    "not pseudoeffective relative to configuration: "
                    "support is not negative definite",
                    location=", ".join(labels[i] for i in adopted),
                )
            xs, scale = record.solve([target[i] for i in support])
            coeffs = dict(zip(support, xs))
        n_degrees = degree_vector(graph, coeffs)
        adopted = [
            j for j in range(len(labels)) if j not in coeffs and target[j] * scale < n_degrees[j]
        ]
        if not adopted:
            break
        support = sorted(support + adopted)
    positive = {i: x * scale for i, x in d._numerators.items()}
    for i, x in coeffs.items():
        positive[i] = positive.get(i, 0) - x
    negative = QDivisor._reduced(graph, coeffs, d._den * scale)
    return ZariskiResult(QDivisor._reduced(graph, positive, d._den * scale), negative, negative.support)


def pseudo_threshold(d1_sq, d1_d2, alpha) -> Fraction:
    """Smallest certified multiplier beta with beta*D1 - D2 pseudoeffective.

    Pure arithmetic: beta = 2 (D1.D2)/D1^2 + alpha. The geometric hypotheses
    (D1 nef and big, D2 + alpha*D1 nef) are the caller's responsibility.
    """
    d1_sq = parse_rational(d1_sq)
    d1_d2 = parse_rational(d1_d2)
    alpha = parse_rational(alpha)
    if d1_sq <= 0:
        raise ValidationError("D1^2 must be positive")
    if alpha < 0:
        raise ValidationError("alpha must be nonnegative")
    return 2 * d1_d2 / d1_sq + alpha
