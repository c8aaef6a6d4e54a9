"""Exception types shared across the package.

All of them derive from ValueError so that callers who do not care about
the fine-grained taxonomy can catch a single class.  The CLI distinguishes
``InvalidInput`` (bad user data, exit code 2) from the remaining classes
(numerical failures mid-run, exit code 3).  :func:`check_atoms` raises
``InvalidAtom`` at the first atom that fails a manifold membership check.
"""


class InvalidInput(ValueError):
    """Malformed or inconsistent input (shapes, signs, domains)."""


class InvalidAtom(InvalidInput):
    """An atom off its manifold; ``index`` is the first offending atom."""

    def __init__(self, index, reason):
        super().__init__(f"atom {index}: {reason}")
        self.index, self.reason = index, reason


def check_atoms(ok, reason):
    """Raise :class:`InvalidAtom` at the first false entry of the boolean
    array ``ok``; ``reason`` is the message, or a function of the index."""
    if not ok.all():
        i = int(ok.argmin())
        raise InvalidAtom(i, reason(i) if callable(reason) else reason)


class MassMismatch(InvalidInput):
    """Balanced solvers called on measures with different total masses."""


class NotPositiveDefinite(ValueError):
    """A matrix expected to be SPD has an eigenvalue at or below tolerance."""


class DegenerateDirection(ValueError):
    """A symmetric slicing direction has (numerically) colliding eigenvalues."""


class DualOverflow(ValueError):
    """An exponential dual solver overflowed on every round (costs dwarf the
    marginal penalties), leaving no finite iterate to return."""


class FlowDiverged(ValueError):
    """A flow step produced a non-finite gradient, energy or objective."""


class MeasureZeroProjection(ValueError):
    """A sphere point projects onto the measure-zero set of a great circle."""


class InstanceTooLarge(InvalidInput):
    """A desk-scale exhaustive solver was called beyond its documented bound."""


class NotARay(InvalidInput):
    """The pair of measures does not define a unit-speed geodesic ray."""


class DegenerateData(InvalidInput):
    """A dataset without enough variability for the requested decomposition."""
