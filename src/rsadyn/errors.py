"""Exception classes shared by all rsadyn modules, one per CLI exit code.

ValidationError exits 2, NotSalemError exits 3, and every other
RsadynError (a failed check or numeric procedure) exits 4; the message
names what failed.
"""


class RsadynError(Exception):
    """A failed check or numeric procedure (CLI exit code 4)."""


class ValidationError(RsadynError):
    """Invalid arguments or parameter combinations (CLI exit code 2)."""


class NotSalemError(RsadynError):
    """Root distribution violates the Salem definition (CLI exit code 3)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
