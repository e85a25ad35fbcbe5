"""Exception hierarchy for treedist.

Every error raised by the library derives from TreedistError so callers
(and the CLI) can catch one type for the exit-code contract.  BudgetExceeded
is the only budget: it guards explicit automorphism enumeration, the one
computation whose output can be exponential in n.  No other path has a size
cap.
"""


class TreedistError(Exception):
    """Base class for all treedist errors."""


class BadFormat(TreedistError):
    """Input text could not be tokenized (non-integer token, odd field count)."""


class NotATree(TreedistError):
    """Edge list does not describe a tree (cycle, disconnected, duplicate edge)."""


class NonContiguousIds(TreedistError):
    """Vertex ids are not exactly 0..n-1."""


class VertexOutOfRange(TreedistError):
    """A vertex id does not belong to the tree."""


class InfeasibleParams(TreedistError):
    """Random-tree parameters admit no tree (e.g. n >= 3 with degree cap < 2)."""


class BadParams(TreedistError):
    """Operation parameters outside the documented domain."""


class PartialColoring(TreedistError):
    """A total coloring was required but some vertex is uncolored."""


class BudgetExceeded(TreedistError):
    """Automorphism enumeration found more permutations than its limit allows."""


class NotFoundWithinMax(TreedistError):
    """No distinguishing coloring exists within the allowed number of colors."""


class IndexOverflow(TreedistError):
    """Sequence index does not fit in the requested number of digits."""


class NotRegularProfile(TreedistError):
    """Tree has a vertex whose valence is neither 1 nor the maximum valence."""


class BadSpine(TreedistError):
    """Marked spine is not a leaf-anchored simple path, or a spine vertex has too many branches."""
