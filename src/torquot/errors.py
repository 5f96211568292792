"""Exception hierarchy shared across the package.

Two failure modes are kept strictly apart:

* ``PreconditionError`` -- the caller handed us input outside an operation's
  contract (a non-free action, a zero where a nonzero is required, a malformed
  file).  The CLI maps these to exit code 1.
* ``ClassificationViolation`` -- the input satisfied every precondition and the
  classification machinery still reached a state the theory says is impossible.
  This is the "theorem falsified" signal; the CLI maps it to exit code 2 and
  verification campaigns record the offending action as a witness instead of
  aborting.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """Input violates an operation's stated precondition."""


class FreenessViolation(PreconditionError):
    """Data that only a non-free action could produce."""


class InputFormatError(PreconditionError):
    """Malformed action/model file; carries a line or field diagnostic."""


class ClassificationViolation(Exception):
    """A certified-impossible state was reached while classifying.

    Carries the offending data so campaign harnesses can emit a reproducible
    witness, and optionally the stage that failed (e.g. "epsilon").
    """

    def __init__(self, message: str, witness=None, stage: str | None = None):
        super().__init__(message)
        self.witness = witness
        self.stage = stage
