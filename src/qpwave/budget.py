"""The work budget for enumerations and tuple sums.

Every operation that enumerates lattice points or index tuples checks its
estimated work against one process-wide budget before running; each guard
is checked on its own, not summed over a call.  The default keeps desk-scale
scans under a minute; ``set_default_budget`` (or the CLI's ``QPWAVE_BUDGET``)
changes it.
"""

from __future__ import annotations

from .errors import BudgetError

DEFAULT_BUDGET = 10_000_000

# Entry cap on one outer-product table (a tuple-fold step, a tuple-power product); the
# work budget is checked on the same product, so the cap binds only above a 1e8 budget.
MEMORY_ENTRY_BUDGET = 100_000_000

_default = DEFAULT_BUDGET


def get_default_budget() -> int:
    return _default


def set_default_budget(n: int) -> None:
    global _default
    if n <= 0:
        raise ValueError("budget must be positive")
    _default = int(n)


def resolve(budget: int | None) -> int:
    return _default if budget is None else int(budget)


def check(work: int, budget: int | None = None, what: str = "enumeration") -> None:
    limit = resolve(budget)
    if work > limit:
        raise BudgetError(f"{what} needs ~{work} units, budget is {limit}")


def check_memory(entries: int, what: str = "tuple table") -> None:
    """Cap the entries of one outer-product table: a tuple-fold step or a tuple-power product."""
    if entries > MEMORY_ENTRY_BUDGET:
        raise BudgetError(
            f"{what} needs ~{entries} entries, memory cap is {MEMORY_ENTRY_BUDGET}"
        )
