"""Physical plan trees produced by the optimizer."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PlanNode", "ScanNode", "JoinNode", "plan_aliases", "plan_depth"]


@dataclass
class PlanNode:
    """Base class for plan nodes; ``est_rows`` is the optimizer's belief."""

    est_rows: float = 0.0


@dataclass
class ScanNode(PlanNode):
    """A (filtered) sequential scan of one base relation."""

    alias: str = ""
    table: str = ""

    def __repr__(self) -> str:
        return f"Scan({self.table} {self.alias}, est={self.est_rows:.0f})"


@dataclass
class JoinNode(PlanNode):
    """A binary join; ``method`` is ``hash``, ``inlj`` or ``nlj``.

    For ``inlj`` the right child is always the inner (indexed) side.
    """

    left: PlanNode | None = None
    right: PlanNode | None = None
    method: str = "hash"

    def __repr__(self) -> str:
        return (
            f"Join[{self.method}](est={self.est_rows:.0f})"
            f"({self.left!r}, {self.right!r})"
        )


def plan_aliases(node: PlanNode) -> frozenset[str]:
    """All base-relation aliases below a plan node."""
    if isinstance(node, ScanNode):
        return frozenset([node.alias])
    assert isinstance(node, JoinNode)
    return plan_aliases(node.left) | plan_aliases(node.right)


def plan_depth(node: PlanNode) -> int:
    if isinstance(node, ScanNode):
        return 1
    assert isinstance(node, JoinNode)
    return 1 + max(plan_depth(node.left), plan_depth(node.right))
