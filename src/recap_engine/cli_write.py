"""The CLI's write commands, ``route freeze`` and ``version bump``.

Each reads the bundle under an advisory ``flock`` on a lock file beside it
and replaces the file atomically. ``cli`` imports this module only when a
write command runs, so no read command compiles it.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from pathlib import Path

from .bundle import decode, decode_field, lone_surrogate, serialize_bundle
from .cli import EXIT_OK, EXIT_USAGE, LockUnavailable, _emit_diagnostics, _load
from .cli import _load_project, _out, _read_text
from .model import ChangelogEntry, LayerDecl, ProjectBundle
from .operations import bump_version, freeze_route
from .routing import committed_route


def freeze(args) -> int:
    """``route BUNDLE freeze``: freeze the project's committed route."""
    # Read under the lock: a write that lands before it is then not overwritten.
    with _BundleLock(args.bundle):
        bundle, project = _load_project(args.bundle, args.project)
        if project is None:
            return EXIT_USAGE
        freeze_route(bundle, project.id, timestamp=args.timestamp, actor=args.actor)
        _write_atomic(args.bundle, bundle)
    route = committed_route(bundle, project)
    _out(f"frozen {route.id.render()} at {route.frozen_at}")
    return EXIT_OK


def bump(args) -> int:
    """``version BUNDLE bump --changelog FILE``: bump the grandparent's
    version by the changelog entry the file holds."""
    text = _read_text(args.changelog, "changelog")
    if text is None:
        return EXIT_USAGE
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an over-long integer
        print(f"cannot read changelog: {exc}", file=sys.stderr)
        return EXIT_USAGE
    surrogate = lone_surrogate(text)
    if surrogate is not None:
        _emit_diagnostics([surrogate])
        return EXIT_USAGE
    try:
        # The file's own keys locate its errors: to_version, new_laws[0].
        entry = decode(ChangelogEntry, raw, at="")
        laws = raw.get("new_laws")
        new_laws = None if laws is None else decode_field(
            LayerDecl, "laws", laws, ns="gp", at="new_laws"
        )
    except ValueError as exc:
        print(f"bad changelog: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Read under the lock: a write that lands before it is then not overwritten.
    with _BundleLock(args.bundle):
        bundle = _load(args.bundle)
        if bundle is None:
            return EXIT_USAGE
        if new_laws is None:
            new_laws = list(bundle.grandparent().laws)
        bump_version(bundle, entry, new_laws, actor=args.actor)
        _write_atomic(args.bundle, bundle)
    _out(f"version {bundle.grandparent().version}")
    return EXIT_OK


def _write_atomic(path: str, bundle: ProjectBundle) -> None:
    """Replace the bundle file durably: the new bytes reach the disk before
    the rename, and the rename before this returns. A failed write or
    rename leaves the old file and no temporary file behind."""
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    text = serialize_bundle(bundle)
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


class _BundleLock:
    """Advisory ``flock`` on a lock file beside the bundle, preventing
    concurrent mutators. The kernel releases it when its holder exits, so a
    killed mutator leaves no lock behind; a leftover lock file blocks
    nothing."""

    def __init__(self, path: str):
        self.lock_path = Path(path + ".lock")
        self.fd: int | None = None

    def __enter__(self):
        while True:
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_WRONLY, 0o644)
            except OSError as exc:  # e.g. the bundle's directory is missing
                raise LockUnavailable(f"cannot lock the bundle: {exc}") from None
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # A holder that released the lock may have removed the file
                # after this process opened it; only the file at the path counts.
                if os.path.samestat(os.fstat(fd), os.stat(self.lock_path)):
                    self.fd = fd
                    return self
            except FileNotFoundError:
                pass
            except BlockingIOError:
                os.close(fd)
                message = f"bundle is locked by another process ({self.lock_path})"
                raise LockUnavailable(message) from None
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)

    def __exit__(self, *exc):
        # Removed while still held, so no other process locks this file
        # after it is gone.
        self.lock_path.unlink(missing_ok=True)
        os.close(self.fd)
        return False
