"""Cloud storage stand-ins: object store (OSS) and structured store (ODPS).

EXIST uploads raw trace data directly to object storage instead of
keeping it on the node (reducing node memory and file I/O), decodes it
off-node, and writes the structured results into an analytical store any
user can query (paper §4).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional


class ObjectStore:
    """OSS-like flat key → bytes store with basic accounting."""

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self.bytes_uploaded = 0
        self.upload_count = 0

    def put(self, key: str, data: bytes) -> None:
        """Store (or overwrite) an object."""
        if not key:
            raise ValueError("empty object key")
        self._objects[key] = bytes(data)
        self.bytes_uploaded += len(data)
        self.upload_count += 1

    def get(self, key: str) -> bytes:
        """Fetch an object; raises KeyError when absent."""
        try:
            return self._objects[key]
        except KeyError:
            raise KeyError(f"no object {key!r}") from None

    def exists(self, key: str) -> bool:
        """Whether an object is stored under ``key``."""
        return key in self._objects

    @property
    def total_bytes(self) -> int:
        return sum(len(v) for v in self._objects.values())


class BinaryRepository:
    """Program-binary repository (paper §4).

    The off-node software decoder fetches traces from OSS and *binaries
    from the binary repository* keyed by the traced application; this is
    that repository.
    """

    def __init__(self) -> None:
        self._binaries: Dict[str, object] = {}

    def register(self, app: str, binary: object) -> None:
        """Store (or replace) the binary for ``app``."""
        if not app:
            raise ValueError("empty application name")
        self._binaries[app] = binary

    def fetch(self, app: str) -> object:
        """Fetch ``app``'s binary."""
        try:
            return self._binaries[app]
        except KeyError:
            raise KeyError(f"no binary for {app!r}") from None

    def has(self, app: str) -> bool:
        """Whether a binary is registered for ``app``."""
        return app in self._binaries

    def apps(self) -> List[str]:
        """Applications with a registered binary."""
        return sorted(self._binaries)

class StructuredStore:
    """ODPS-like append-only tables with predicate queries."""

    def __init__(self) -> None:
        self._tables: Dict[str, List[Dict]] = {}

    def create_table(self, name: str) -> None:
        """Create an empty table (idempotent)."""
        self._tables.setdefault(name, [])

    def insert(self, table: str, rows: Iterable[Mapping]) -> int:
        """Append rows; returns how many were inserted."""
        store = self._tables.setdefault(table, [])
        count = 0
        for row in rows:
            store.append(dict(row))
            count += 1
        return count

    def query(
        self,
        table: str,
        where: Optional[Callable[[Dict], bool]] = None,
    ) -> List[Dict]:
        """A table's rows, in insertion order, filtered by ``where``."""
        try:
            rows = self._tables[table]
        except KeyError:
            raise KeyError(f"no table {table!r}") from None
        return [r for r in rows if where is None or where(r)]

    def count(self, table: str) -> int:
        """Row count of a table (0 when absent)."""
        return len(self._tables.get(table, []))

    def tables(self) -> List[str]:
        """Sorted names of existing tables."""
        return sorted(self._tables)
