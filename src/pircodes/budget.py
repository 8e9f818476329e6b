"""Decision-node budgets shared by the backtracking searches.

A budget counts decision nodes, not wall time, so runs are reproducible.
Searches that stop because a budget ran out must report their result as
incomplete ("unknown") rather than as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Budget:
    """Mutable node counter; ``limit=None`` means unlimited.

    ``used`` counts only the nodes spent; ``exhausted`` records that a spend
    was refused, so a search was cut.
    """

    limit: int | None = None
    used: int = 0
    exhausted: bool = field(default=False, init=False)

    def spend(self, amount: int = 1) -> bool:
        """Consume ``amount`` nodes, or refuse them if that would pass the
        limit; return whether they were spent."""
        if self.limit is not None and self.used + amount > self.limit:
            self.exhausted = True
            return False
        self.used += amount
        return True


def ensure_budget(budget: Budget | int | None) -> Budget:
    """Coerce an optional int or Budget into a Budget instance."""
    if budget is None:
        return Budget(None)
    if isinstance(budget, int):
        return Budget(budget)
    return budget
