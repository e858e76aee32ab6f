"""SL2xx: checkpoint-coverage rules.

A ``Checkpointable`` component (``repro.ckpt.protocol``) declares its
state once: ``CKPT`` lists the checkpointed fields and ``CKPT_SKIP`` maps
each attribute that is deliberately not state to the reason why.  The
generic capture and restore both read ``CKPT``, so they cannot drift
apart; what can still drift is the declaration itself.  The classic
regression is a new mutable attribute added to ``__init__`` and touched
on the datapath, declared nowhere, so checkpoints silently stop being
complete.  SL201 catches it.

Heuristics (documented in docs/static-analysis.md):

- An ``__init__`` attribute counts as *mutable simulation state* when its
  initial value is a plain literal or container construction (``0``,
  ``None``, ``{}``, ``deque()``...) AND some other method of the class
  mutates it (reassignment, augmented assignment, subscript store, or a
  mutating method call such as ``.append``/``.add``/``.setdefault``).
- Attributes initialized from ``__init__`` parameters are configuration;
  attributes initialized by instantiating another class (``Signal(...)``,
  ``PacketFifo(...)``, ``self.instr.counter(...)``) are sub-components
  that own their own checkpoint state.  Neither is required here.
- An attribute is *classified* when its name appears in the class's
  literal ``CKPT`` tuple (bare or as the first item of a codec entry) or
  among the literal keys of ``CKPT_SKIP``.
"""

import ast

from repro.lint.astutil import class_methods, literal_str_keys, self_attr
from repro.lint.engine import Rule

_CONTAINER_CALLS = {
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict", "bytearray",
}

_MUTATOR_METHODS = {
    "append", "appendleft", "add", "insert", "extend", "extendleft",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "sort", "reverse",
}

# Overrides may reset an attribute around super(); that alone does not
# make it datapath state.
_PROTOCOL_METHODS = {"ckpt_capture", "ckpt_restore", "ckpt_check"}

# Hub registrations return metric objects whose state the hub captures.
_HUB_REGISTRATIONS = {"counter", "timeseries", "histogram", "probe"}


def _init_params(init):
    return {
        arg.arg
        for arg in (
            init.args.posonlyargs + init.args.args + init.args.kwonlyargs
        )
        if arg.arg != "self"
    }


def _mentions_any_name(node, names):
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in names:
            return True
    return False


def _is_instantiation(node):
    """A Call whose target looks like a class or a hub registration."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in _HUB_REGISTRATIONS:
            return True
        return func.attr[:1].isupper() or _is_capitalized_chain(func)
    if isinstance(func, ast.Name):
        return func.id[:1].isupper()
    return False


def _is_capitalized_chain(node):
    while isinstance(node, ast.Attribute):
        if node.attr[:1].isupper():
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id[:1].isupper()


def _candidate_attrs(init):
    """{attr: line} of __init__ assignments that look like own mutable state."""
    params = _init_params(init)
    candidates = {}
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            attr = self_attr(target)
            if attr is None:
                continue
            value = node.value
            if _mentions_any_name(value, params):
                continue  # configuration taken from constructor args
            if _is_instantiation(value):
                continue  # sub-component; it checkpoints itself
            if isinstance(value, ast.Constant) or isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.Tuple)
            ):
                candidates[attr] = node.lineno
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _CONTAINER_CALLS
            ):
                candidates[attr] = node.lineno
    return candidates


def _init_helpers(init):
    """Names of methods __init__ invokes as ``self.helper(...)``.

    Construction often factors into helpers (``self._build()``); attrs
    they populate are still initialization, not datapath mutation.
    """
    helpers = set()
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            helpers.add(node.func.attr)
    return helpers


def _mutated_attrs(methods, skip=()):
    """{attr: method name} for attributes mutated outside init/protocol."""
    mutated = {}
    for name, method in methods.items():
        if name == "__init__" or name in _PROTOCOL_METHODS or name in skip:
            continue
        for node in ast.walk(method):
            attr = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                    if attr is not None:
                        mutated.setdefault(attr, name)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                        if attr is not None:
                            mutated.setdefault(attr, name)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                attr = self_attr(node.func.value)
                if attr is not None:
                    mutated.setdefault(attr, name)
    return mutated


def _is_checkpointable(class_node):
    for base in class_node.bases:
        if isinstance(base, ast.Name) and base.id == "Checkpointable":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "Checkpointable":
            return True
    return False


def _declared_attrs(class_node):
    """Attribute names listed in the class's literal CKPT and CKPT_SKIP."""
    declared = set()
    for item in class_node.body:
        if not (isinstance(item, ast.Assign) and len(item.targets) == 1
                and isinstance(item.targets[0], ast.Name)):
            continue
        name, value = item.targets[0].id, item.value
        if name == "CKPT" and isinstance(value, (ast.Tuple, ast.List)):
            for entry in value.elts:
                if isinstance(entry, (ast.Tuple, ast.List)) and entry.elts:
                    entry = entry.elts[0]
                if isinstance(entry, ast.Constant) and isinstance(
                    entry.value, str
                ):
                    declared.add(entry.value)
        elif name == "CKPT_SKIP" and isinstance(value, ast.Dict):
            declared.update(literal_str_keys(value))
    return declared


class CkptCoverageRule(Rule):
    """SL201: mutable state declared in neither CKPT nor CKPT_SKIP.

    For every class deriving ``Checkpointable``: each ``__init__``
    attribute that is (heuristically) own mutable simulation state and is
    mutated by another method must appear in ``CKPT`` (it is checkpointed)
    or in ``CKPT_SKIP`` (with the reason it is not state).  Anchors on the
    ``__init__`` assignment line.
    """

    code = "SL201"
    title = "mutable attribute missing from CKPT/CKPT_SKIP"

    def check(self, module):
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if not _is_checkpointable(class_node):
                continue
            methods = class_methods(class_node)
            init = methods.get("__init__")
            if init is None:
                continue
            candidates = _candidate_attrs(init)
            if not candidates:
                continue
            mutated = _mutated_attrs(methods, skip=_init_helpers(init))
            declared = _declared_attrs(class_node)
            for attr, line in sorted(candidates.items()):
                if attr not in mutated or attr in declared:
                    continue
                finding = self.finding(
                    module, class_node,
                    "%s.%s is mutable state (mutated in %s) but appears in "
                    "neither CKPT nor CKPT_SKIP; declare it as state or "
                    "give the reason it is not"
                    % (class_node.name, attr, mutated[attr]),
                )
                finding.line = line
                yield finding


RULES = (CkptCoverageRule(),)
