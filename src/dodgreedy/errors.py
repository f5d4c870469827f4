"""Exception types, the budget ledger and the int check shared across the library."""


class ParseError(ValueError):
    """Malformed input text. Messages carry 1-based line numbers."""


class BudgetExceededError(RuntimeError):
    """An exact search ran out of its state budget.

    Raised instead of returning an approximate answer; `what` names the
    computation that hit the limit.
    """

    def __init__(self, what: str, budget: int):
        super().__init__(f"state budget of {budget} exceeded while computing {what}")
        self.what = what
        self.budget = budget


class _Ledger:
    """The state budget of one public call, shared by all its solves: `left`
    more states may be stored, and an overrun names the running step, `what`."""

    __slots__ = ("budget", "left", "what")

    def __init__(self, budget: int, what: str = ""):
        self.budget = self.left = budget
        self.what = what


def _require_int(name: str, value) -> int:
    """`value`, unless it is no int or is a bool (which Python counts as one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return value


class IntegrityError(RuntimeError):
    """An internal consistency check failed (a solver bug, not bad input)."""
