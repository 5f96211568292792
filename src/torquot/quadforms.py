"""Binary quadratic forms A*s1^2 + B*s1*s2 + C*s2^2 over Q.

These carry the degree-4 relation pencil of a quotient model: each torus
weight row contributes one form, and the classification of the quotient is
read off the span of those forms together with the square class of the
discriminant of the induced square map.

Coefficients are stored as given.  Forms built from weight rows hold Python
ints, and every operation here keeps them ints, so the classifier and the
lemma-6.4 rewrite never leave integer arithmetic; only the reduced echelon
basis of an output record holds Fraction coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import is_rational_square


@dataclass(frozen=True, slots=True)
class BinaryQuadraticForm:
    A: int
    B: int
    C: int

    @property
    def discriminant(self):
        return self.B * self.B - 4 * self.A * self.C

    def is_zero(self) -> bool:
        return self.A == 0 and self.B == 0 and self.C == 0

    def coefficients(self) -> tuple:
        return (self.A, self.B, self.C)

    def substituted(self, p, q, r, s) -> "BinaryQuadraticForm":
        """Form pulled back along s1 -> p*s1 + q*s2, s2 -> r*s1 + s*s2."""
        A, B, C = self.A, self.B, self.C
        return BinaryQuadraticForm(
            A * p * p + B * p * r + C * r * r,
            2 * A * p * q + B * (p * s + q * r) + 2 * C * r * s,
            A * q * q + B * q * s + C * s * s,
        )

    def isotropy(self) -> str:
        """'degenerate', 'isotropic' or 'anisotropic' over Q.

        A nonzero binary form represents 0 nontrivially over Q exactly when
        its discriminant is a nonzero rational square; discriminant 0 means
        a repeated linear factor and is reported as degenerate.
        """
        if self.is_zero():
            return "degenerate"
        d = self.discriminant
        if d == 0:
            return "degenerate"
        return "isotropic" if is_rational_square(d) else "anisotropic"

    def __str__(self):
        return f"{self.A}*s1^2 + {self.B}*s1*s2 + {self.C}*s2^2"
