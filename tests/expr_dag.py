"""DAG-aware structural equality for expressions.

``Expr.__eq__`` compares ``_key()`` tuples recursively with no memo, so
comparing two equal DAGs that were built separately costs time
exponential in their sharing: a depth-8 unroll of CPUTask does not
compare in minutes.  :class:`DagInterner` hash-conses nodes instead.
Each node gets an id from its type and its ``_key()`` with every child
replaced by the child's id, visited iteratively, so structurally equal
nodes (``==``) get equal ids in time linear in the number of distinct
nodes.
"""

from repro.expr.ast import Expr


class DagInterner:
    """Interns expression nodes: equal ids iff structurally equal."""

    def __init__(self):
        #: (node type, key with child ids) -> id.
        self._table = {}
        #: id(node) -> id; ``_nodes`` keeps those nodes alive.
        self._ids = {}
        self._nodes = []

    def intern(self, root: Expr) -> int:
        ids = self._ids
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in ids:
                stack.pop()
                continue
            pending = [child for child in node.children if id(child) not in ids]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            key = tuple(
                ids[id(part)] if isinstance(part, Expr) else part
                for part in node._key()
            )
            ids[id(node)] = self._table.setdefault(
                (type(node), key), len(self._table)
            )
            self._nodes.append(node)
        return ids[id(root)]

    def canon(self, value):
        """``value`` with every expression replaced by its id, through
        dicts, lists and tuples; compare two canonical forms with ``==``."""
        if isinstance(value, Expr):
            return self.intern(value)
        if isinstance(value, dict):
            return {key: self.canon(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(self.canon(item) for item in value)
        return value


def dag_equal(a, b) -> bool:
    """Structural equality of two expressions (or nested containers of
    them), without ``Expr.__eq__``'s exponential recursion."""
    interner = DagInterner()
    return interner.canon(a) == interner.canon(b)
