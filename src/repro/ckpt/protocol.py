"""The ``Checkpointable`` base and the checkpoint error hierarchy.

A component declares its checkpoint state once, as class attributes::

    class Cache(Checkpointable):
        CKPT = (("_sets", Codec(_encode_lines, _decode_lines), "lines"),
                "_lru_clock")

    class XpressBus(Checkpointable):
        CKPT = ("busy_ns",)
        CKPT_SKIP = {"_snoopers": "wiring: live callables"}

and the generic :meth:`Checkpointable.ckpt_capture` /
:meth:`Checkpointable.ckpt_restore` read that one declaration both ways:

- A bare attribute name is stored under the name without its leading
  ``_``.  A value with its own ``ckpt_capture`` (a sub-component) captures
  itself; any other value must be JSON-shaped -- ``None``/bool/int/float/
  str scalars, lists and string-keyed dicts -- and is deep-copied both
  ways, so a state document never aliases live component state.
- ``(attr, codec[, key])`` gives a field its own format.  A :class:`Codec`
  is ``encode(owner, value) -> JSON`` plus ``decode(owner, data,
  current) -> value``; ``decode`` may refill ``current`` in place and
  return it.
- ``CKPT_SKIP`` maps each ``__init__`` attribute that is deliberately
  *not* state (wiring, observer output, fault orchestration, transients
  a safepoint guarantees empty) to the reason why.  simlint SL201 checks
  that every attribute that looks like own mutable state appears in one
  of the two.

Restore applies the fields in declaration order, so a field may depend on
one declared before it (the NIC's merge window looks up a NIPT half).
``ckpt_check`` is the hook refusing capture while the component is not
quiescent.  An override of ``ckpt_capture``/``ckpt_restore`` may add a
check or a reset and must then call ``super()``.

Restore must be exact: a capture taken right after a restore equals the
original capture (the fixed-point property checked by
``tests/test_ckpt.py``).  A state tree of the wrong shape is refused with
:class:`CkptFormatError` naming the class and the key.

What is deliberately *not* captured anywhere (bookkeeping that cannot
influence any simulation observable, documented in
``docs/checkpoint.md``): ``Signal.fire_count``, mutex ticket counters and
contention statistics (safepoints require every mutex unlocked), and
collected event-bus records (transient observer output, not machine
state).

This module has no imports from the rest of the package, so hardware
components may import it without creating cycles.
"""


class CkptError(Exception):
    """Base class for all checkpoint/restore failures."""


class CkptFormatError(CkptError):
    """The file is not a repro checkpoint (bad magic, truncation, not JSON,
    or a state tree of the wrong structure)."""


class CkptVersionError(CkptError):
    """The checkpoint was written by an incompatible format version."""


class CkptIntegrityError(CkptError):
    """The payload checksum does not match: the file is corrupted."""


class SafepointError(CkptError):
    """Capture was attempted at an instant that is not a safepoint.

    When raised by the seek helpers the structured context rides along:
    ``obstacle`` names the blocking component or queue entry, ``sim_time``
    is the simulation time the search reached, and ``stepped`` counts the
    events executed while seeking.  All three are ``None`` when the error
    comes from a direct capture attempt instead of a seek.
    """

    def __init__(self, message, obstacle=None, sim_time=None, stepped=None):
        super().__init__(message)
        self.obstacle = obstacle
        self.sim_time = sim_time
        self.stepped = stepped


class Codec:
    """How one declared field is written to and read from a state tree."""

    __slots__ = ("encode", "decode")

    def __init__(self, encode, decode):
        self.encode = encode
        self.decode = decode


def _json_copy(owner, key, value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if type(value) is list:
        return [_json_copy(owner, key, item) for item in value]
    if type(value) is dict:
        copy = {}
        for name, item in value.items():
            if not isinstance(name, str):
                raise CkptError(
                    "%s.%s: dict key %r is not a string; declare the field "
                    "with a codec" % (type(owner).__name__, key, name)
                )
            copy[name] = _json_copy(owner, key, item)
        return copy
    raise CkptError(
        "%s.%s: a %s is not JSON-shaped and has no ckpt_capture; declare "
        "the field with a codec" % (type(owner).__name__, key,
                                    type(value).__name__)
    )


def _decode_pairs(owner, data, current):
    return {key: value for key, value in data}


#: An int-keyed dict as a sorted list of ``[key, value]`` pairs.
PAIRS = Codec(
    lambda owner, mapping: [[key, mapping[key]] for key in sorted(mapping)],
    _decode_pairs,
)


def _decode_each(owner, data, current):
    if len(data) != len(current):
        raise CkptFormatError(
            "%s: checkpoint has %d parts, this machine has %d"
            % (type(owner).__name__, len(data), len(current))
        )
    for part, part_state in zip(current, data):
        part.ckpt_restore(part_state)
    return current


#: A list of sub-components, each capturing itself.
EACH = Codec(
    lambda owner, parts: [part.ckpt_capture() for part in parts],
    _decode_each,
)


def _decode_same(owner, data, current):
    if data != current:
        raise CkptError(
            "%s: checkpoint records %r, this machine has %r (configuration "
            "mismatch)" % (type(owner).__name__, data, current)
        )
    return current


#: A configured size recorded for checking: restore refuses a mismatch.
SAME = Codec(lambda owner, value: value, _decode_same)


def _fields(cls):
    """``(attr, key, codec)`` for each entry of ``cls.CKPT``; the codec of
    a bare attribute name is None."""
    for spec in cls.CKPT:
        if isinstance(spec, str):
            yield spec, spec.lstrip("_"), None
        else:
            attr, codec = spec[0], spec[1]
            yield attr, (spec[2] if len(spec) > 2 else attr.lstrip("_")), codec


class Checkpointable:
    """Generic capture/restore over the class's ``CKPT`` declaration."""

    __slots__ = ()

    #: Checkpointed fields, in restore order (see the module docstring).
    CKPT = ()
    #: ``{attr: reason}`` for ``__init__`` attributes that are not state.
    CKPT_SKIP = {}

    def ckpt_check(self):
        """Raise :class:`CkptError` when the component cannot be captured
        at this instant (an operation in flight)."""

    def ckpt_capture(self):
        """A JSON-safe dict fully describing the declared state."""
        self.ckpt_check()
        state = {}
        for attr, key, codec in _fields(type(self)):
            value = getattr(self, attr)
            if codec is not None:
                state[key] = codec.encode(self, value)
            elif hasattr(value, "ckpt_capture"):
                state[key] = value.ckpt_capture()
            else:
                state[key] = _json_copy(self, key, value)
        return state

    def ckpt_restore(self, state):
        """Overwrite the declared state from a ``ckpt_capture`` document
        taken on an identically configured component."""
        fields = tuple(_fields(type(self)))
        name = type(self).__name__
        if type(state) is not dict:
            raise CkptFormatError(
                "%s: checkpoint state is a %s, not an object"
                % (name, type(state).__name__)
            )
        keys = {key for _attr, key, _codec in fields}
        if keys != state.keys():
            key = min(keys.symmetric_difference(state))
            raise CkptFormatError(
                "%s: checkpoint state %s key %r"
                % (name, "lacks" if key in keys else "has unknown", key)
            )
        for attr, key, codec in fields:
            data = state[key]
            current = getattr(self, attr)
            try:
                if codec is not None:
                    value = codec.decode(self, data, current)
                elif hasattr(current, "ckpt_restore"):
                    current.ckpt_restore(data)
                    value = current
                else:
                    value = _json_copy(self, key, data)
            except CkptError:
                raise
            except (AttributeError, LookupError, TypeError, ValueError) as exc:
                raise CkptFormatError(
                    "%s: malformed checkpoint state under %r (%s: %s)"
                    % (name, key, type(exc).__name__, exc)
                ) from exc
            setattr(self, attr, value)
