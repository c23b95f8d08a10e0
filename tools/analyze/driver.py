"""aladdin-analyze driver: file discovery, backend selection, reporting.

Usage (from the repo root; also exposed as `ctest -R analyze`):

    python3 -m tools.analyze                       # newest preset's DB
    python3 -m tools.analyze --preset asan         # that preset's DB
    python3 -m tools.analyze --backend cindex      # force AST backend
    python3 -m tools.analyze --json out.json       # machine-readable report
    python3 -m tools.analyze --list-allows         # suppression inventory
    python3 -m tools.analyze --fixture f.cpp ...   # corpus mode (tests)

Exit status 0 = clean; 1 = violations; 2 = usage/environment error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import clang_backend, compile_db, config, rules
from .diagnostics import (CATALOG, AllowMarker, Diagnostic, apply_allows,
                          collect_allows, render_json, render_text)
from .source_model import SourceFile, build_source_file

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="aladdin-analyze",
        description="Static enforcement of the Aladdin determinism, "
                    "allocation, locking and exhaustiveness invariants.")
    parser.add_argument("--backend", choices=("auto", "lex", "cindex"),
                        default="auto",
                        help="auto picks cindex when the clang bindings are "
                             "importable, else the built-in lexer")
    parser.add_argument("--preset", help="CMake preset whose compile "
                        "database to use (default: newest configured)")
    parser.add_argument("--compile-db", help="explicit compile_commands.json "
                        "(file or its directory)")
    parser.add_argument("--rules", help="comma-separated rule families "
                        "(D1,A1,L1,E1); default all")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full report as JSON")
    parser.add_argument("--list-allows", action="store_true",
                        help="print every analyze:allow marker and config "
                             "exemption with its reason, then exit")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed diagnostics in the report")
    parser.add_argument("--fixture", action="store_true",
                        help="treat the given files as the whole world "
                             "(widens every rule scope to them)")
    parser.add_argument("files", nargs="*",
                        help="restrict analysis to these files (with "
                             "--fixture: the fixture TUs)")
    return parser.parse_args(argv)


def _discover_files(args: argparse.Namespace) -> list[Path]:
    if args.files:
        return [Path(f).resolve() for f in args.files]
    db_path = compile_db.locate(REPO_ROOT, compile_db=args.compile_db,
                                preset=args.preset)
    commands = compile_db.load(db_path)
    tus = compile_db.translation_units(commands, REPO_ROOT)
    # Headers are not TUs but carry the class/field/enum declarations the
    # rules need; scan every header under src/ alongside the TU list.
    headers = sorted((REPO_ROOT / "src").rglob("*.h"))
    seen: set[Path] = set()
    out: list[Path] = []
    for p in list(tus) + headers:
        if p not in seen and p.suffix in (".cpp", ".h", ".cc", ".hpp"):
            seen.add(p)
            out.append(p)
    return out


def _build_models(paths: list[Path], backend: str,
                  args: argparse.Namespace) -> tuple[list[SourceFile], str]:
    if backend == "auto":
        backend = "cindex" if clang_backend.available() else "lex"
    if backend == "cindex":
        if not clang_backend.available():
            print("aladdin-analyze: --backend=cindex requested but the "
                  "clang Python bindings are unavailable", file=sys.stderr)
            raise SystemExit(2)
        commands: dict[str, compile_db.CompileCommand] = {}
        if not args.fixture:
            try:
                db_path = compile_db.locate(REPO_ROOT,
                                            compile_db=args.compile_db,
                                            preset=args.preset)
                commands = {c.file: c for c in compile_db.load(db_path)}
            except compile_db.CompileDbError:
                pass  # headers/fixtures parse fine without flags
        merged: dict[str, SourceFile] = {}
        for path in paths:
            if path.suffix not in (".cpp", ".cc"):
                continue  # headers arrive via the TUs that include them
            for model in clang_backend.build_from_tu(
                    path, REPO_ROOT, commands.get(str(path))):
                merged[model.path] = model
        # Headers no TU includes (or fixture headers) still need models.
        for path in paths:
            rel = _rel(path)
            if rel not in merged:
                merged[rel] = build_source_file(
                    rel, path.read_text(encoding="utf-8"))
        return list(merged.values()), "cindex"
    models = [build_source_file(_rel(p), p.read_text(encoding="utf-8"))
              for p in paths]
    return models, "lex"


def _rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def _list_allows(models: list[SourceFile]) -> int:
    rows: list[str] = []
    for model in models:
        markers, malformed = collect_allows(model.path, model.comments)
        for m in markers:
            rows.append(f"{m.file}:{m.line}: allow({m.code}) — {m.reason}")
        for d in malformed:
            rows.append(d.format())
    for table, label in ((config.D103_EXEMPT, "D103 file exemption"),
                         (config.A1_EXEMPT_FILES, "A1 file exemption"),
                         (config.A1_EXEMPT_CALLEES, "A1 callee exemption"),
                         (config.A1_COLD_FUNCTIONS, "A1 cold function"),
                         (config.L104_EXEMPT, "L104 file exemption")):
        for name, reason in sorted(table.items()):
            rows.append(f"{name}: {label} — {reason}")
    print("\n".join(rows) if rows else "no suppressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.rules:
        families = {f.strip().upper() for f in args.rules.split(",")}
        unknown = families - {"D1", "A1", "L1", "E1"}
        if unknown:
            print(f"aladdin-analyze: unknown rule family: "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    else:
        families = None

    try:
        paths = _discover_files(args)
    except compile_db.CompileDbError as err:
        print(f"aladdin-analyze: {err}", file=sys.stderr)
        return 2

    models, backend = _build_models(paths, args.backend, args)
    if args.list_allows:
        return _list_allows(models)

    ctx = rules.RuleContext(files=models, fixture_mode=args.fixture)
    diags = rules.run_all(ctx, families)

    markers: list[AllowMarker] = []
    malformed: list[Diagnostic] = []
    for model in models:
        file_markers, file_malformed = collect_allows(model.path,
                                                      model.comments)
        markers.extend(file_markers)
        malformed.extend(file_malformed)
    if families is not None:
        # A marker for a family that did not run cannot be judged stale.
        letters = {f[0] for f in families}
        markers = [m for m in markers if m.code[0] in letters]
    diags = apply_allows(diags, markers) + malformed

    report = render_text(diags, show_suppressed=args.show_suppressed)
    active = [d for d in diags if not d.suppressed]
    print(report, file=sys.stderr if active else sys.stdout)
    if args.json:
        Path(args.json).write_text(render_json(diags, backend, len(models))
                                   + "\n")
    return 1 if active else 0
