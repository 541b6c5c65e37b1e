"""Machine metadata recorded with every benchmark result.

``perfbench/run.py`` stamps each result line with
:func:`machine_metadata`, so a measurement always carries the hardware
and runtime it was taken on.
"""

from __future__ import annotations

import os
import platform
from typing import Dict

__all__ = ["machine_metadata"]


def machine_metadata() -> Dict[str, object]:
    """Hardware/runtime facts recorded with every benchmark report."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
