"""Binary quadratic forms A*s1^2 + B*s1*s2 + C*s2^2 over Q.

These carry the degree-4 relation pencil of a quotient model: each torus
weight row contributes one form, and the classification of the quotient is
read off the span of those forms together with the square class of the
discriminant of the induced square map.

A form is its coefficient triple (A, B, C): the classifier, normalization and
the lemma-6.4 rewrite hold plain int triples, and ``BinaryQuadraticForm`` is a
named tuple over the triple, equal to it.  Int coefficients stay ints here;
only the reduced echelon basis of an output record holds Fractions.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import is_rational_square

Form = tuple[int, int, int]  # (A, B, C): the form A*s1^2 + B*s1*s2 + C*s2^2


class BinaryQuadraticForm(NamedTuple):
    A: int
    B: int
    C: int

    @property
    def discriminant(self):
        return self.B * self.B - 4 * self.A * self.C

    def coefficients(self) -> tuple:
        return tuple(self)

    def substituted(self, p, q, r, s) -> "BinaryQuadraticForm":
        return BinaryQuadraticForm._make(pulled_back(self, p, q, r, s))

    def isotropy(self) -> str:
        """'degenerate', 'isotropic' or 'anisotropic' over Q.

        A nonzero binary form represents 0 nontrivially over Q exactly when
        its discriminant is a nonzero rational square; discriminant 0 means
        a repeated linear factor and is reported as degenerate.
        """
        d = self.discriminant  # 0 for the zero form too
        if d == 0:
            return "degenerate"
        return "isotropic" if is_rational_square(d) else "anisotropic"

    def __str__(self):
        return "{}*s1^2 + {}*s1*s2 + {}*s2^2".format(*self)


def pulled_back(form: Form, p, q, r, s) -> Form:
    """The triple of form pulled back along s1 -> p*s1 + q*s2, s2 -> r*s1 + s*s2."""
    A, B, C = form
    return (
        A * p * p + B * p * r + C * r * r,
        2 * A * p * q + B * (p * s + q * r) + 2 * C * r * s,
        A * q * q + B * q * s + C * s * s,
    )
