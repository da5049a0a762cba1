"""The benchmark tracer's entry points still resolve against the package.

`perfbench/tracing.py` wraps named functions and methods from outside
`src/`; a rename or a move to a base class here would break
`perfbench/run.py --trace 1`.  This installs every entry, checks that each
one is wrapped, and checks that uninstalling puts every original back.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as mod

        yield mod
    finally:
        sys.path.remove(str(PERFBENCH))


def _bindings():
    """Every padicgz module attribute and class attribute, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "padicgz" or name.startswith("padicgz.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def _current(target, attr):
    return target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)


def test_every_entry_installs_and_uninstalls(tracing):
    entries = tracing.entries()
    before = _bindings()
    originals = [_current(target, attr) for target, attr, _, _, _ in entries]
    t = tracing.Tracer()
    t.install(entries)
    try:
        for (target, attr, name, _, _), orig in zip(entries, originals):
            assert _current(target, attr).__wrapped__ is orig, name
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
