"""Shared error types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured work budget.

    Raised instead of silently truncating results; callers can retry with a
    larger explicit budget.  `cap` names the parameter or constant that set
    the budget (such as "candidate_cap" or "budget") and
    `limit` is its value.
    """

    def __init__(self, message: str, *, cap: str, limit: int):
        super().__init__(message)
        self.cap = cap
        self.limit = limit
