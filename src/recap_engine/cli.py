"""Command-line frontend over bundle files.

Exit codes: 0 success or compliant, 1 violations found, 2 usage or parse
error. Reports go to stdout; diagnostics go to stderr. Mutating commands
write the bundle atomically behind an advisory ``flock``.

Each command imports the engine modules it runs when it runs, so starting
the CLI loads only those; ``explain`` needs nothing but the diagnostics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .diagnostics import Diagnostic, OperationRejected, Severity, explain_code

if TYPE_CHECKING:
    from .model import ProjectBundle, ProjectDecl

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

_COLORS = {Severity.ERROR: "\033[31m", Severity.WARNING: "\033[33m", Severity.INFO: "\033[36m"}
_RESET = "\033[0m"


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("RECAP_NO_COLOR")


def _emit_diagnostics(diags: list[Diagnostic]) -> None:
    color = _use_color()
    for diag in diags:
        line = diag.render()
        if color:
            line = f"{_COLORS[diag.severity]}{line}{_RESET}"
        print(line, file=sys.stderr)


def _read_text(path: str, what: str) -> str | None:
    """The file's text as text mode reads it, or None once the reason it
    cannot be read is reported: the OS error, or the line of the first byte
    that is not UTF-8."""
    from .bundle import decode_utf8

    try:
        return decode_utf8(Path(path).read_bytes())
    except OSError as exc:
        print(f"cannot read {what}: {exc}", file=sys.stderr)
    except OperationRejected as exc:
        _emit_diagnostics(exc.diagnostics)
    return None


def _load(path: str) -> ProjectBundle | None:
    from .bundle import parse_bundle

    text = _read_text(path, path)
    if text is None:
        return None
    result = parse_bundle(text)
    _emit_diagnostics(result.diagnostics)
    return result.bundle


def _write_atomic(path: str, bundle: ProjectBundle) -> None:
    """Replace the bundle file durably: the new bytes reach the disk before
    the rename, and the rename before this returns. A failed write or
    rename leaves the old file and no temporary file behind."""
    from .bundle import serialize_bundle

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


class LockUnavailable(Exception):
    """The bundle's advisory lock cannot be taken; the message says why."""


class _BundleLock:
    """Advisory ``flock`` on a lock file beside the bundle, preventing
    concurrent mutators. The kernel releases it when its holder exits, so a
    killed mutator leaves no lock behind; a leftover lock file blocks
    nothing."""

    def __init__(self, path: str):
        self.lock_path = Path(path + ".lock")
        self.fd: int | None = None

    def __enter__(self):
        import fcntl  # loaded here: commands that never write do not pay for it

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


def _pick_project(bundle: ProjectBundle, name: str | None) -> ProjectDecl | None:
    if name is None:
        if len(bundle.projects) == 1:
            return bundle.projects[0]
        print(
            f"--project required: bundle has {len(bundle.projects)} projects",
            file=sys.stderr,
        )
        return None
    return _named(bundle.projects, name, "project", lambda project: project.id)


def _named(decls: list, name: str, what: str, ident):
    """The one declaration ``name`` picks by canonical id or local name;
    None, once reported, when it picks none or more than one."""
    found = [d for d in decls if ident(d).render() == name or ident(d).local_name == name]
    if len(found) == 1:
        return found[0]
    if found:
        ids = ", ".join(ident(d).render() for d in found)
        print(f"{what} name {name!r} is ambiguous: {ids}", file=sys.stderr)
    else:
        print(f"no {what} named {name!r}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    from .reporting import compliance_verdict, render_report

    bundle = _load(args.bundle)
    if bundle is None:
        return EXIT_USAGE
    report = compliance_verdict(bundle)
    if args.format == "structured":
        print(render_report(report, "structured"))
    else:
        print(report.verdict)
        _emit_diagnostics(report.findings)
    return EXIT_OK if report.verdict == "compliant" else EXIT_VIOLATIONS


def _cmd_tier(args) -> int:
    from .tiering import check_tier_declaration, tier_unit

    bundle = _load(args.bundle)
    if bundle is None:
        return EXIT_USAGE
    units = [u for u in bundle.units if not u.superseded and not u.quarantined]
    if args.unit:
        unit = _named(units, args.unit, "unit", lambda unit: unit.study_id)
        if unit is None:
            return EXIT_USAGE
        units = [unit]
    diags: list[Diagnostic] = []
    for unit in units:
        try:
            decision = tier_unit(unit)
        except OperationRejected as exc:
            diags.extend(exc.diagnostics)
            continue
        if args.unit:
            print(f"{decision.tier.label} ({decision.rule_id})")
        else:
            print(f"{unit.study_id.render()}  {decision.tier.label} ({decision.rule_id})")
        if unit.declared_tier is not None:
            diags.extend(check_tier_declaration(unit))
    _emit_diagnostics(diags)
    has_error = any(d.severity == Severity.ERROR for d in diags)
    return EXIT_VIOLATIONS if has_error else EXIT_OK


def _load_project(path: str, name: str | None) -> tuple[ProjectBundle | None, ProjectDecl | None]:
    bundle = _load(path)
    return bundle, None if bundle is None else _pick_project(bundle, name)


def _cmd_route(args) -> int:
    from .routing import check_route_coherence, committed_route, freeze_route

    if args.action == "check":
        bundle, project = _load_project(args.bundle, args.project)
        if project is None:
            return EXIT_USAGE
        diags = check_route_coherence(bundle, project.id)
        _emit_diagnostics(diags)
        has_error = any(d.severity == Severity.ERROR for d in diags)
        print("coherent" if not has_error else "incoherent")
        return EXIT_VIOLATIONS if has_error else EXIT_OK
    # Read under the lock: a write that lands before it is then not overwritten.
    with _BundleLock(args.bundle):
        bundle, project = _load_project(args.bundle, args.project)
        if project is None:
            return EXIT_USAGE
        try:
            freeze_route(bundle, project.id, timestamp=args.timestamp, actor=args.actor)
        except OperationRejected as exc:
            _emit_diagnostics(exc.diagnostics)
            return EXIT_VIOLATIONS
        _write_atomic(args.bundle, bundle)
    route = committed_route(bundle, project)
    print(f"frozen {route.id.render()} at {route.frozen_at}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    import json

    from .bundle import encode
    from .contamination import scan_bundle

    bundle = _load(args.bundle)
    if bundle is None:
        return EXIT_USAGE
    events = scan_bundle(bundle)
    if args.format == "structured":
        print(json.dumps({"events": [encode(e) for e in events]}, indent=2))
        return EXIT_VIOLATIONS if events else EXIT_OK
    for event in events:
        via = f" via {event.site.token}" if event.site.token else ""
        print(
            f"{event.id} {event.rule_violated} {event.direction} "
            f"at {event.site.container}{via} ({event.location})"
        )
    print(f"{len(events)} contamination event(s)")
    return EXIT_VIOLATIONS if events else EXIT_OK


def _cmd_report(args) -> int:
    from .reporting import build_study_log, build_tier_table, render_report

    bundle, project = _load_project(args.bundle, args.project)
    if project is None:
        return EXIT_USAGE
    fmt = {"md": "markdown", "csv": "csv", "structured": "structured"}[args.format]
    try:
        if args.artifact == "study-log":
            artifact = build_study_log(bundle, project)
        elif args.artifact == "tier-table":
            artifact = build_tier_table(bundle, project)
        else:
            blocks = [b for b in bundle.reviewer_blocks if b.project_ref == project.id]
            if not blocks:
                print("no reviewer block for project", file=sys.stderr)
                return EXIT_VIOLATIONS
            artifact = blocks[0]
        print(render_report(artifact, fmt), end="")
    except OperationRejected as exc:
        _emit_diagnostics(exc.diagnostics)
        return EXIT_VIOLATIONS if any(
            d.code != "E_FORMAT_UNSUPPORTED" for d in exc.diagnostics
        ) else EXIT_USAGE
    return EXIT_OK


def _cmd_version(args) -> int:
    import json

    from .bundle import decode, decode_field, lone_surrogate
    from .layers import bump_version
    from .model import ChangelogEntry, LayerDecl

    text = _read_text(args.changelog, "changelog")
    if text is None:
        return EXIT_USAGE
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
        try:
            bump_version(bundle, entry, new_laws, actor=args.actor)
        except OperationRejected as exc:
            _emit_diagnostics(exc.diagnostics)
            return EXIT_VIOLATIONS
        _write_atomic(args.bundle, bundle)
    print(f"version {bundle.grandparent().version}")
    return EXIT_OK


def _cmd_explain(args) -> int:
    text = explain_code(args.code)
    if text is None:
        print(f"unknown code {args.code!r}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _utf8(text: str) -> str:
    """An argument stored in the bundle: bytes the OS could not decode reach
    Python as lone surrogates, which the bundle file could not hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError("not valid UTF-8") from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recap-engine",
        description="Validate, tier, route, scan, report, and version project bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="full compliance verdict")
    p.add_argument("bundle")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tier", help="tier decisions with fired rules")
    p.add_argument("bundle")
    p.add_argument("--unit")
    p.set_defaults(func=_cmd_tier)

    p = sub.add_parser("route", help="freeze or check the committed route")
    p.add_argument("bundle")
    p.add_argument("action", choices=["freeze", "check"])
    p.add_argument("--project")
    p.add_argument("--timestamp")
    p.add_argument("--actor", default="cli", type=_utf8)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("scan", help="contamination scan")
    p.add_argument("bundle")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("report", help="render a mandatory output")
    p.add_argument("bundle")
    p.add_argument("artifact", choices=["study-log", "tier-table", "reviewer-block"])
    p.add_argument("--format", choices=["md", "csv", "structured"], default="md")
    p.add_argument("--project")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("version", help="versioning governance")
    p.add_argument("bundle")
    p.add_argument("action", choices=["bump"])
    p.add_argument("--changelog", required=True)
    p.add_argument("--actor", default="cli", type=_utf8)
    p.set_defaults(func=_cmd_version)

    p = sub.add_parser("explain", help="rule text for a diagnostic code")
    p.add_argument("code")
    p.set_defaults(func=_cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except LockUnavailable as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except OperationRejected as exc:
        _emit_diagnostics(exc.diagnostics)
        return EXIT_VIOLATIONS
    except Exception as exc:  # last resort: one line and the usage exit code, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
