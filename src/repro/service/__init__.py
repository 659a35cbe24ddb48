"""Analysis-as-a-service: daemon, durable result store, protocol, client.

The subsystem turns the batch-script workflow into a persistent service:

* :mod:`repro.service.store` -- :class:`ResultStore`, the durable
  content-addressed result store (config-hash keyed rows of one SQLite
  database, shared across processes and daemon restarts);
* :mod:`repro.service.server` -- :class:`ReproService`, the asyncio daemon
  with an async job queue, request coalescing and streaming progress;
* :mod:`repro.service.client` -- :class:`ServiceClient`, the blocking
  socket client used by the CLI (``repro-experiments serve / submit /
  status / fetch``) and by scripts;
* :mod:`repro.service.protocol` -- the newline-delimited-JSON wire format
  shared by both ends.

Only the store is imported eagerly: :mod:`repro.api.engine` builds its
persistent cache on it, and loading the server/client machinery (asyncio,
sockets) at ``import repro`` time would be wasted work for purely
analytical use.  ``ReproService``, ``ServiceClient`` and friends resolve
lazily on first attribute access (PEP 562).
"""

from __future__ import annotations

from typing import Any

from .store import ResultStore, StoreError, default_store_dir

__all__ = [
    "ResultStore",
    "StoreError",
    "default_store_dir",
    "ReproService",
    "ServiceHandle",
    "start_service_thread",
    "ServiceClient",
    "ServiceError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
]

_LAZY = {
    "ReproService": ("repro.service.server", "ReproService"),
    "ServiceHandle": ("repro.service.server", "ServiceHandle"),
    "start_service_thread": ("repro.service.server", "start_service_thread"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "ServiceError": ("repro.service.client", "ServiceError"),
    "DEFAULT_HOST": ("repro.service.protocol", "DEFAULT_HOST"),
    "DEFAULT_PORT": ("repro.service.protocol", "DEFAULT_PORT"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
