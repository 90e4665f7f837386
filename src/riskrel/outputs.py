"""Staged outputs: a failed command publishes none of its files.

Inside ``with Outputs(inputs) as outputs:``, ``outputs(path)`` makes
missing parent directories and returns a hidden sibling ``.<name>.tmp`` to
write instead, file or directory. A path already handed out is a
``ValueError``, since two outputs would be staged into one, and so is one
of the command's ``inputs`` (compared after resolving symlinks), which
publishing would overwrite. On a normal exit each sibling is
``os.replace``d onto its name; a staged directory whose target exists has
its entries moved in one by one, so other files there stay. Before the
first rename every target is checked: a staged file whose target is a
directory, or a staged directory whose target is a file, at the top or one
entry into a merged directory, is an ``IsADirectoryError`` or
``NotADirectoryError`` that publishes nothing. On an exception the siblings
and the directories made are removed, so earlier outputs stay as they were.
Each output, and each entry moved into an existing directory, is published
by its own rename, so a run killed between two renames leaves some outputs
new and some old (ROADMAP item 8); the next ``outputs(path)`` clears the
siblings a killed run leaves.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, suppress
from pathlib import Path
from typing import Iterable


class Outputs(AbstractContextManager):
    """Hands out staging paths and publishes them if the ``with`` block succeeds."""

    def __init__(self, inputs: Iterable[str | Path] = ()) -> None:
        self._inputs = {Path(p).resolve() for p in inputs}
        self._staged: dict[Path, Path] = {}   # final path -> staged sibling
        self._made: list[Path] = []

    def __call__(self, path: str | Path) -> Path:
        path = Path(os.path.abspath(path))
        if path in self._staged:
            raise ValueError(f"{path} is given for two outputs")
        if path.resolve() in self._inputs:
            raise ValueError(f"{path} is an input of this command, so it cannot be written")
        for parent in reversed(path.parents):
            if not parent.exists():
                parent.mkdir()
                self._made.append(parent)
        staged = self._staged[path] = path.with_name(f".{path.name}.tmp")
        _remove(staged)
        return staged

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for path, staged in self._staged.items():
                    _check_kind(staged, path)
                for path, staged in self._staged.items():
                    _publish(staged, path)
                self._made.clear()  # published, so the directories stay
        finally:
            for staged in self._staged.values():
                with suppress(OSError):
                    _remove(staged)
            for parent in reversed(self._made):
                with suppress(OSError):
                    parent.rmdir()


def _check_kind(staged: Path, path: Path) -> None:
    """Raise if ``staged`` is a directory and ``path`` an existing file, or the
    other way round; for a directory merged into ``path``, check each entry."""
    if not (staged.exists() and path.exists()):
        return
    if staged.is_dir() and not path.is_dir():
        raise NotADirectoryError(f"{path} is a file, so a directory cannot be written there")
    if path.is_dir() and not staged.is_dir():
        raise IsADirectoryError(f"{path} is a directory, so a file cannot be written there")
    if staged.is_dir():
        for entry in staged.iterdir():
            _check_kind(entry, path / entry.name)


def _publish(staged: Path, path: Path) -> None:
    if staged.is_dir() and path.is_dir():
        for entry in sorted(staged.iterdir()):
            os.replace(entry, path / entry.name)
        staged.rmdir()
    else:
        os.replace(staged, path)


def _remove(staged: Path) -> None:
    if staged.is_dir() and not staged.is_symlink():
        for entry in staged.iterdir():
            entry.unlink()
        staged.rmdir()
    else:
        staged.unlink(missing_ok=True)
