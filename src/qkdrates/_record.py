"""Immutable records without ``dataclasses``.

Every record of the package is a named tuple: its fields are read-only, it
compares by value, and ``record._replace(field=value)`` copies it with
fields changed.  Frozen dataclasses would import ``dataclasses``, and with
it ``inspect``, and compile generated methods for each class, which
together cost about 40% of ``import qkdrates.cli`` and so of every CLI
call's start-up.  A record replaces any tuple operation that would be wrong
for it, and one that checks its fields is a ``typing.NamedTuple`` with a
``_check`` method, wrapped by :func:`checked`.
"""


def checked(base):
    """A subclass of the NamedTuple ``base`` that runs ``base._check`` on
    every record it makes: through the constructor, and through ``_make``
    and so ``_replace``, which build the tuple directly and would skip it."""

    def __new__(cls, *args, **kwargs):
        self = base.__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        return cls(*iterable)

    namespace = {
        "__doc__": base.__doc__,
        "__module__": base.__module__,
        "__qualname__": base.__qualname__,
        "__slots__": (),
        "__new__": __new__,
        "_make": classmethod(_make),
    }
    return type(base.__name__, (base,), namespace)
