"""Exception hierarchy for treedist: one class per source of a mistake.

Every error raised by the library derives from TreedistError, so callers
(and the CLI, which exits 2 on any of them) can catch one type.  Which
subclass is raised says where the mistake lies; the message says what it is:

- BadFormat: tree or coloring text that cannot be read;
- NotATree: edges that do not form a tree on the vertices 0..n-1;
- BadParams: an argument outside the function's domain;
- BudgetExceeded: explicit automorphism enumeration outgrew its limit.

BudgetExceeded is the only budget: it guards explicit automorphism
enumeration, the one computation whose output can be exponential in n.  No
other path has a size cap.
"""


class TreedistError(Exception):
    """Base class for all treedist errors."""


class BadFormat(TreedistError):
    """Input text could not be read: a non-integer token, an odd field count,
    a malformed header, or coloring JSON of the wrong shape."""


class NotATree(TreedistError):
    """Edges do not form a tree on 0..n-1: a cycle, a disconnected graph, a
    duplicate edge, or vertex ids that are negative, missing or too large."""


class BadParams(TreedistError):
    """An argument is outside the function's domain: a vertex not in the
    tree, a partial coloring where a total one is needed, random-tree or
    spine parameters that admit no solution, too few colors, and so on."""


class BudgetExceeded(TreedistError):
    """Automorphism enumeration found more permutations than its limit allows."""
