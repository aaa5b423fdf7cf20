"""Exception types shared across the package."""


class MatchbreakError(Exception):
    """Base class for every package-specific error."""


class TemplateFormatError(MatchbreakError, ValueError):
    """A template file or payload could not be parsed."""


class DegenerateTemplateError(MatchbreakError, ValueError):
    """An operation required a nonzero template."""


class DimensionMismatchError(MatchbreakError, ValueError):
    """Two vectors of different dimension were combined."""


class SingularSystemError(MatchbreakError, ArithmeticError):
    """A linear system was singular, or too ill-conditioned to trust.

    Callers that chose the system's rows (probe sets, boundary points) are
    expected to catch this and resample rather than accept a garbage solution.
    """


class UnknownIdentityError(MatchbreakError, KeyError):
    """An authentication claim named an identity that is not enrolled."""


class LockedOutError(MatchbreakError, RuntimeError):
    """The oracle refuses further queries because its limit was reached.

    `served` counts the probes of the refused call that were served, and
    recorded on the ledger, before the limit was reached.
    """

    def __init__(self, message: str, served: int = 0):
        super().__init__(message)
        self.served = served


class OracleModeError(MatchbreakError, ValueError):
    """The requested operation is incompatible with the oracle's mode or metric."""


class AttackFailedError(MatchbreakError, RuntimeError):
    """An attack could not produce a reconstruction."""


class NoFalseMatchError(AttackFailedError):
    """Every probed breaking-set member was rejected."""


class OutsidePointError(AttackFailedError):
    """No probe direction produced a point outside the acceptance region."""


class WireProtocolError(MatchbreakError, RuntimeError):
    """The remote oracle returned an unexpected or malformed response."""


# What an attack run can end with that a harness records as a failed attempt
# rather than a crash: the attack gave up, its probe geometry stayed
# singular, or the oracle locked the claimed identity out. Attack.reconstruct
# sets ``queries_used`` on each one it lets through.
ATTACK_FAILURES = (AttackFailedError, SingularSystemError, LockedOutError)
