"""Exception types shared across the package."""


class PhasetrackError(Exception):
    pass


class HypothesisViolation(PhasetrackError):
    """A structural assumption on the speed/pressure laws fails."""

    def __init__(self, which: str, rho: float, detail: str = ""):
        self.which = which
        self.rho = rho
        self.detail = detail
        msg = f"{which} fails at rho={rho!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class OrderingViolation(PhasetrackError):
    pass


class OutOfDomain(PhasetrackError):
    pass


class EqualDensities(PhasetrackError):
    pass


class NotOnMesh(PhasetrackError):
    pass


class ValueOutsideOmega(PhasetrackError):
    pass


class OutOfWindow(PhasetrackError):
    pass


class EventOverflow(PhasetrackError):
    pass


class InvariantViolation(PhasetrackError):
    """A run-time monotonicity/conservation check failed (signals a bug)."""


class NotReached(PhasetrackError):
    pass


class UnsupportedTestFunction(PhasetrackError):
    pass
