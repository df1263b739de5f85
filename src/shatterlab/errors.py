"""Exception types shared across the package, and the default scan bound.

The CLI maps these onto exit codes: invalid input -> 2, resource limit -> 3.
"""

# most subsets an exhaustive scan visits before it raises ResourceLimitError
DEFAULT_SUBSET_LIMIT = 10**7


class InvalidArgumentError(ValueError):
    """An argument violates an operation's precondition."""


class EmptyDomainError(ValueError):
    """The requested quantity is undefined because its domain is empty."""


class ResourceLimitError(RuntimeError):
    """An exact enumeration would exceed the configured limits."""
