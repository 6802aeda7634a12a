"""Coherence-protocol registry.

All ten reproduced protocols, keyed by their registry name.  Table 1's six
write-in columns are ``TABLE1_PROTOCOLS``, in the paper's column order.

A run simulates one protocol, so the registry names each protocol's
module and class and :func:`get_protocol` imports only the module asked
for.  ``PROTOCOL_NAMES`` lists the ten names without importing anything;
``PROTOCOLS`` (name -> class, all ten) is built on first access.  A
protocol defined elsewhere joins the registry through
:func:`register_protocol`.
"""

from __future__ import annotations

import importlib
from typing import Type

from repro.common.errors import UnknownProtocolError
from repro.protocols.table import TableProtocol

#: Registry name -> (module, class), in the order ``PROTOCOLS`` lists,
#: then any class added by :func:`register_protocol`.
_REGISTRY: dict[str, tuple[str, str] | Type[TableProtocol]] = {
    "write-through": ("repro.protocols.write_through",
                      "ClassicWriteThroughProtocol"),
    "goodman": ("repro.protocols.goodman", "GoodmanProtocol"),
    "synapse": ("repro.protocols.synapse", "SynapseProtocol"),
    "illinois": ("repro.protocols.illinois", "IllinoisProtocol"),
    "yen": ("repro.protocols.yen", "YenProtocol"),
    "berkeley": ("repro.protocols.berkeley", "BerkeleyProtocol"),
    "bitar-despain": ("repro.core.lock_protocol", "BitarDespainProtocol"),
    "dragon": ("repro.protocols.dragon", "DragonProtocol"),
    "firefly": ("repro.protocols.firefly", "FireflyProtocol"),
    "rudolph-segall": ("repro.protocols.rudolph_segall",
                       "RudolphSegallProtocol"),
}

#: The ten reproduced protocols' names, for argument choices.
PROTOCOL_NAMES: tuple[str, ...] = tuple(_REGISTRY)

#: The six columns of Table 1, in order.
TABLE1_PROTOCOLS: tuple[str, ...] = (
    "goodman",
    "synapse",
    "illinois",
    "yen",
    "berkeley",
    "bitar-despain",
)

#: The write-update family of Section D.1.
WRITE_UPDATE_PROTOCOLS: tuple[str, ...] = ("dragon", "firefly", "rudolph-segall")


def get_protocol(name: str,
                 dispatch: str | None = None) -> Type[TableProtocol]:
    """Look up a protocol class by registry name, importing its module.

    ``dispatch`` selects nothing: every protocol runs on its table's
    guard-bit lookup.  It remains only for the benchmark under
    ``perfbench/``, which passes ``"compiled"``; any value other than
    that and ``None`` raises :class:`ValueError`.
    """
    if dispatch not in (None, "compiled"):
        raise ValueError(f"dispatch={dispatch!r} is not supported; "
                         f"pass None")
    try:
        entry = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownProtocolError(
            f"unknown protocol {name!r}; known protocols: {known}"
        ) from None
    if isinstance(entry, tuple):
        module, cls = entry
        return getattr(importlib.import_module(module), cls)
    return entry


def register_protocol(cls: Type[TableProtocol]) -> None:
    """Make ``get_protocol(cls.name)`` -- and so a ``SystemConfig``
    naming it -- resolve to ``cls``.  A registered protocol is not one of
    ``PROTOCOL_NAMES`` or ``PROTOCOLS``, which list the ten reproduced
    ones; their names cannot be taken."""
    if cls.name in PROTOCOL_NAMES:
        raise ValueError(f"{cls.name!r} is a reproduced protocol")
    _REGISTRY[cls.name] = cls


def unregister_protocol(name: str) -> None:
    """Undo :func:`register_protocol` for ``name``."""
    if name in PROTOCOL_NAMES:
        raise ValueError(f"{name!r} is a reproduced protocol")
    _REGISTRY.pop(name, None)


def __getattr__(name: str):
    # PEP 562: the full name -> class table imports all ten protocol
    # modules, so it is built only when something asks for it.
    if name == "PROTOCOLS":
        protocols: dict[str, Type[TableProtocol]] = {
            key: get_protocol(key) for key in PROTOCOL_NAMES}
        globals()["PROTOCOLS"] = protocols
        return protocols
    raise AttributeError(
        f"module 'repro.protocols' has no attribute {name!r}")


__all__ = [
    "PROTOCOLS",
    "PROTOCOL_NAMES",
    "TABLE1_PROTOCOLS",
    "WRITE_UPDATE_PROTOCOLS",
    "TableProtocol",
    "get_protocol",
    "register_protocol",
    "unregister_protocol",
]
