"""Shared exception root so callers can catch any library error in one clause."""


class EawardError(Exception):
    """Base class for every error this package raises on purpose."""


class NotFound(EawardError):
    """A chain source or the object store has nothing under the requested id."""
