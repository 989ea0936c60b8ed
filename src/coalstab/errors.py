"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when arguments fail validation (bad indices, malformed data)."""


class TieError(InputError):
    """Raised when an auction operation receives tied bids it cannot rank."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search would exceed its evaluation budget.

    Distinct from "no deviation found": the search was not performed.
    `partial` carries the results a caller finished before the cut, when it
    has any (`games.score_vector` sets it to the sizes it counted).
    """

    def __init__(self, required: int, budget: int, unit: str):
        super().__init__(
            f"search space of {required} {unit} exceeds budget {budget}"
        )
        self.required = required
        self.budget = budget
        self.partial = None


class ContractError(RuntimeError):
    """Raised when an operation is called outside its proven preconditions."""


class ContractWarning(UserWarning):
    """Emitted when a certification is requested outside its valid regime."""
