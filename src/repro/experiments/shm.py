"""Where POSIX shared memory lives, for leak audits.

No part of the runtime creates shared-memory segments: the persistent
backend ships every job by value over its worker's task queue.  This
module stays only because the end-to-end benchmark (``perfbench``) imports
:func:`list_segments` for the leak audit of its sweep workload, and
``perfbench`` changes only together with its workload definitions.
"""

from __future__ import annotations

import os

#: Where the platform exposes POSIX shared memory as files (Linux).  On
#: platforms without it :func:`list_segments` finds nothing.
SHM_DIR = "/dev/shm"


def list_segments(prefix: str) -> list[str]:
    """Names of live segments under ``prefix`` (leak audits; Linux only)."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(entry for entry in os.listdir(SHM_DIR) if entry.startswith(prefix))
