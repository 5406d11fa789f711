"""Cheap construction of the frozen dataclasses the per-step path builds."""

from dataclasses import fields


def positional_maker(cls):
    """A constructor of the frozen dataclass ``cls`` taking every field, in order.

    The generated ``__init__`` of a frozen dataclass stores each field
    through ``object.__setattr__``; this constructor stores them straight
    into a fresh instance's ``__dict__``, at about half the cost.  Like
    that ``__init__``, its source is generated from the fields, so that
    each store is a plain item assignment.  The object equals, hashes and
    prints as ``cls(*values)`` does, but holds its dict materialized, 64
    bytes (64-bit CPython 3.11) more than the inline values ``__init__``
    leaves.  No default applies and no ``__post_init__`` runs, so it
    serves only classes that have none to run.
    """
    names = [f.name for f in fields(cls)]
    stores = "".join(f"    _store[{name!r}] = {name}\n" for name in names)
    source = (f"def make({', '.join(names)}):\n"
              f"    _self = _new(_cls)\n"
              f"    _store = _self.__dict__\n"
              f"{stores}"
              f"    return _self\n")
    namespace = {"_new": object.__new__, "_cls": cls}
    exec(source, namespace)
    return namespace["make"]
