"""Exception hierarchy shared by every module in the package.

Everything derives from :class:`RipeningError` so callers can catch one base
class at an API boundary (the command line driver does exactly that).
"""

import numpy as np


class RipeningError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RipeningError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(DomainError):
    """A root bracket does not actually straddle a sign change."""


class ConvergenceError(RipeningError):
    """An iterative routine exhausted its budget without converging."""


class IntegrationError(ConvergenceError):
    """An ODE solve blew up or could not reach the requested endpoint."""


class StateError(RipeningError):
    """An ensemble reached a state from which it cannot continue."""


class DataError(RipeningError):
    """Snapshot data passed to a measurement routine is inconsistent."""


def check_entries(values, ok, message: str) -> None:
    """Raise :class:`DomainError` on the first entry of ``values`` where
    ``ok`` is false; ``message`` holds one ``%r`` for that entry."""
    bad = ~np.asarray(ok)
    if bad.any():
        raise DomainError(message % float(values[bad][0]))
