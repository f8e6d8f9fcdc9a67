"""Shared exception root, and the typed read of outside JSON documents."""


class EawardError(Exception):
    """Base class for every error this package raises on purpose."""


class NotFound(EawardError):
    """A chain source or the object store has nothing under the requested id."""


_REQUIRED = object()


def json_field(doc: dict, key: str, kind: type, default=_REQUIRED):
    """doc[key], refused with TypeError unless its type is exactly kind
    (so a JSON boolean is not an integer and 2.0 is not 2). Given a default,
    the key may be absent and then reads as the default; a default of None
    also accepts null."""
    value = doc[key] if default is _REQUIRED else doc.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not kind:
        raise TypeError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value
