"""simlint configuration: what to scan, what is exempt, where registries live.

The defaults encode this repository's layout; tests construct ad-hoc configs
pointing at fixture trees.  All paths are POSIX-style and relative to
``root`` so findings are machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: directory names never descended into when expanding scan paths
DEFAULT_EXCLUDE_DIRS = ("__pycache__", ".git", "testdata")

#: scan targets when ``python -m repro lint`` is given no paths
DEFAULT_SCAN_PATHS = ("src", "tests")


@dataclass(frozen=True)
class LintConfig:
    """Immutable per-run configuration.

    The registry modules are parsed (never imported) to resolve SIM004 names
    cross-module; a missing module simply disables the corresponding half
    of SIM004.
    """

    root: Path
    clock_modules: tuple[str, ...] = ("src/repro/sim/clock.py",)
    events_module: str = "src/repro/obs/events.py"
    counters_module: str = "src/repro/sim/resources.py"
    incidents_module: str = "src/repro/heal/incidents.py"
    stations_module: str = "src/repro/engine/stations.py"
    exclude_dirs: tuple[str, ...] = DEFAULT_EXCLUDE_DIRS

    def relpath(self, path: Path) -> str:
        """``path`` as a POSIX string relative to ``root`` (or as given)."""
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def is_clock_module(self, relpath: str) -> bool:
        return relpath in self.clock_modules
