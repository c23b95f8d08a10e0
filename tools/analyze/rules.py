"""The D1/A1/L1/E1 rule implementations.

Each rule consumes the backend-neutral SourceFile model (source_model.py)
and emits Diagnostics with closed codes (diagnostics.py). Scoping policy
lives in config.py; `fixture_mode` widens every scope to exactly the files
given so the fixture corpus can exercise a rule without living under src/.
"""

from __future__ import annotations

import dataclasses
import re

from . import config
from .diagnostics import Diagnostic
from .source_model import (FunctionDef, SourceFile, Token, call_names,
                           iter_switches)

UNORDERED_TYPES = frozenset({
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "flat_hash_map", "flat_hash_set",
})
ORDERED_ASSOC_TYPES = frozenset({"map", "set", "multimap", "multiset"})
RAND_CALLS = frozenset({"rand", "srand", "rand_r", "drand48", "lrand48"})
CLOCK_TYPES = frozenset({
    "system_clock", "steady_clock", "high_resolution_clock",
})
CLOCK_CALLS = frozenset({"gettimeofday", "clock_gettime", "timespec_get"})

ALLOC_CALLS = frozenset({"make_unique", "make_shared"})
GROWTH_METHODS = frozenset({"assign", "resize", "reserve"})
OWNING_CONTAINERS = frozenset({
    "vector", "deque", "list", "string", "basic_string", "ostringstream",
    "stringstream", "priority_queue", "queue", "stack",
}) | UNORDERED_TYPES | ORDERED_ASSOC_TYPES

RAW_LOCK_TYPES = frozenset({
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock",
})

_MACRO_NAME = re.compile(r"^[A-Z][A-Z0-9_]*$")


@dataclasses.dataclass
class RuleContext:
    files: list[SourceFile]
    fixture_mode: bool = False

    def d1_files(self) -> list[SourceFile]:
        if self.fixture_mode:
            return self.files
        return [f for f in self.files
                if config.in_scope(f.path, config.D1_SCOPE)]

    def l1_surface(self) -> list[SourceFile]:
        if self.fixture_mode:
            return self.files
        return [f for f in self.files if f.path in config.L1_SURFACE]


def run_all(ctx: RuleContext,
            families: set[str] | None = None) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if families is None or "D1" in families:
        diags += rule_d101_unordered_iteration(ctx)
        diags += rule_d102_pointer_keyed_order(ctx)
        diags += rule_d103_nondeterministic_sources(ctx)
    if families is None or "A1" in families:
        diags += rule_a1_hot_path_allocation(ctx)
        diags += rule_a104_nested_vector(ctx)
    if families is None or "L1" in families:
        diags += rule_l1_locking(ctx)
    if families is None or "E1" in families:
        diags += rule_e1_exhaustive_switches(ctx)
    return diags


# --------------------------------------------------------------------------
# D1 — determinism
# --------------------------------------------------------------------------


def _unordered_member_names(files: list[SourceFile]) -> set[str]:
    """Names of class members whose declared type is an unordered container,
    across every scanned file (members are declared in headers but iterated
    in sources, so this registry is global)."""
    names: set[str] = set()
    for f in files:
        for c in f.classes:
            for field in c.fields:
                if any(t in UNORDERED_TYPES
                       for t in field.type_text.split()):
                    names.add(field.name)
    return names


def _local_unordered_names(body: list[Token]) -> set[str]:
    """Variables declared `std::unordered_*<...> name` inside a body."""
    names: set[str] = set()
    i = 0
    while i < len(body):
        tok = body[i]
        if tok.kind == "id" and tok.text in UNORDERED_TYPES:
            j = i + 1
            if j < len(body) and body[j].text == "<":
                depth = 0
                while j < len(body):
                    if body[j].text == "<":
                        depth += 1
                    elif body[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if j + 1 < len(body) and body[j + 1].kind == "id":
                    names.add(body[j + 1].text)
                i = j
        i += 1
    return names


def _range_for_exprs(body: list[Token]):
    """Yields (colon_token, range_expr_tokens) for each range-for in body."""
    for i, tok in enumerate(body):
        if tok.kind != "id" or tok.text != "for":
            continue
        if i + 1 >= len(body) or body[i + 1].text != "(":
            continue
        depth = 0
        colon = None
        has_semicolon = False
        j = i + 1
        while j < len(body):
            t = body[j].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1:
                if t == ";":
                    has_semicolon = True
                elif t == ":" and colon is None:
                    colon = j
            j += 1
        if colon is not None and not has_semicolon:
            yield body[colon], body[colon + 1:j]


def rule_d101_unordered_iteration(ctx: RuleContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    members = _unordered_member_names(ctx.d1_files())
    for f in ctx.d1_files():
        # Namespace-scope globals live outside every function body, so the
        # per-function local scan never sees them; scan the file's top-level
        # tokens (everything not inside a body) for their declarations.
        body_ids = {id(t) for fn in f.functions for t in fn.body}
        file_scope = _local_unordered_names(
            [t for t in f.tokens if id(t) not in body_ids])
        for fn in f.functions:
            candidates = (members | file_scope
                          | _local_unordered_names(fn.body))
            if not candidates:
                continue
            for colon_tok, expr in _range_for_exprs(fn.body):
                hit = next((t for t in expr if t.kind == "id"
                            and t.text in candidates), None)
                if hit is not None:
                    diags.append(Diagnostic(
                        "D101", f.path, hit.line,
                        f"range-for over unordered container '{hit.text}' "
                        f"in '{fn.qualified}' — iteration order is hash "
                        "layout; use an ordered container or sort first"))
            for i, tok in enumerate(fn.body):
                if tok.text in (".", "->") and i + 2 < len(fn.body):
                    recv = fn.body[i - 1] if i else None
                    meth = fn.body[i + 1]
                    if (recv is not None and recv.kind == "id"
                            and recv.text in candidates
                            and meth.text in ("begin", "cbegin", "rbegin")
                            and fn.body[i + 2].text == "("):
                        diags.append(Diagnostic(
                            "D101", f.path, recv.line,
                            f"iterator over unordered container "
                            f"'{recv.text}' in '{fn.qualified}' — "
                            "iteration order is hash layout"))
    return diags


def rule_d102_pointer_keyed_order(ctx: RuleContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for f in ctx.d1_files():
        toks = f.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id" or tok.text not in ORDERED_ASSOC_TYPES:
                continue
            if not (i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "<":
                continue
            depth = 0
            star = None
            j = i + 1
            while j < len(toks):
                t = toks[j].text
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif t == "," and depth == 1:
                    break  # only the *key* type decides iteration order
                elif t == "*":
                    star = toks[j]
                j += 1
            if star is not None:
                diags.append(Diagnostic(
                    "D102", f.path, tok.line,
                    f"std::{tok.text} keyed by a pointer — iteration order "
                    "is allocation layout; key by a stable id instead"))
    return diags


def rule_d103_nondeterministic_sources(ctx: RuleContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for f in ctx.d1_files():
        if not ctx.fixture_mode and f.path in config.D103_EXEMPT:
            continue
        toks = f.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "id":
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if tok.text in RAND_CALLS and nxt == "(":
                diags.append(Diagnostic(
                    "D103", f.path, tok.line,
                    f"'{tok.text}()' in decision-path code — randomness "
                    "must flow through common/rng.h with explicit seeds"))
            elif tok.text == "random_device":
                diags.append(Diagnostic(
                    "D103", f.path, tok.line,
                    "std::random_device in decision-path code — "
                    "non-deterministic seed source; use an explicit seed"))
            elif tok.text in CLOCK_TYPES:
                diags.append(Diagnostic(
                    "D103", f.path, tok.line,
                    f"raw {tok.text} read in decision-path code — clocks "
                    "feed stats only, via common/timer.h (WallTimer)"))
            elif tok.text in CLOCK_CALLS and nxt == "(":
                diags.append(Diagnostic(
                    "D103", f.path, tok.line,
                    f"'{tok.text}()' in decision-path code — clocks feed "
                    "stats only, via common/timer.h"))
            elif (tok.text == "time" and nxt == "("
                  and i + 2 < len(toks)
                  and toks[i + 2].text in ("nullptr", "NULL", "0")):
                diags.append(Diagnostic(
                    "D103", f.path, tok.line,
                    "time(nullptr) in decision-path code — wall-clock "
                    "seeding breaks replayability"))
    return diags


# --------------------------------------------------------------------------
# A1 — hot-path allocation
# --------------------------------------------------------------------------


def _class_of(fn: FunctionDef) -> str:
    parts = fn.qualified.split("::")
    return parts[-2] if len(parts) >= 2 else ""


def _reachable_from_hot(
        ctx: RuleContext
) -> dict[tuple[str, int], tuple[FunctionDef, list[str]]]:
    """BFS over the name-matched call graph from every ALADDIN_HOT root.

    Returns definition site (file, line) -> (function, call chain from the
    root). Name matching is conservative (a callee name reaches every
    same-named definition); exemptions in config.py prune the sanctioned
    scratch types, runtime-gated cold paths and cold functions. The
    visited set is keyed by definition site, not by qualified name: the
    lexer backend qualifies an out-of-line member without its class, so
    same-named methods of two classes in one namespace share a qualified
    name and would otherwise shadow each other.
    """
    defs_by_name: dict[str, list[FunctionDef]] = {}
    all_fns: list[FunctionDef] = []
    for f in ctx.files:
        for fn in f.functions:
            defs_by_name.setdefault(fn.name, []).append(fn)
            all_fns.append(fn)

    def exempt(fn: FunctionDef) -> bool:
        if ctx.fixture_mode:
            return _class_of(fn) in config.A1_EXEMPT_CLASSES
        if config.file_exempt(fn.file, config.A1_EXEMPT_FILES):
            return True
        if f"{fn.file}:{fn.name}" in config.A1_COLD_FUNCTIONS:
            return True
        if _class_of(fn) in config.A1_EXEMPT_CLASSES:
            return True
        return any(key in fn.qualified for key in config.A1_EXEMPT_CALLEES)

    reached: dict[tuple[str, int], tuple[FunctionDef, list[str]]] = {}
    frontier: list[tuple[FunctionDef, list[str]]] = []
    for fn in all_fns:
        if fn.is_hot and not exempt(fn):
            frontier.append((fn, [fn.name]))
    while frontier:
        fn, chain = frontier.pop()
        if (fn.file, fn.line) in reached:
            continue
        reached[(fn.file, fn.line)] = (fn, chain)
        for callee, _tok in call_names(fn.body):
            if _MACRO_NAME.match(callee):
                continue  # ALADDIN_*/gtest macros are not calls to follow
            for target in defs_by_name.get(callee, ()):
                if (target.file, target.line) in reached or exempt(target):
                    continue
                frontier.append((target, chain + [target.name]))
    return reached


_SCRATCH_ROOT_NAMES = frozenset({"ws", "ws_", "workspace", "workspace_"})


def _scratch_locals(body: list[Token]) -> set[str]:
    """Locals declared with a sanctioned scratch type (StampedArray<T> v...)
    — growth on them is amortised scratch, not per-call heap growth."""
    names: set[str] = set()
    for i, tok in enumerate(body):
        if tok.kind == "id" and tok.text in config.A1_EXEMPT_CLASSES:
            j = i + 1
            if j < len(body) and body[j].text == "<":
                depth = 0
                while j < len(body):
                    if body[j].text == "<":
                        depth += 1
                    elif body[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                j += 1
            if j < len(body) and body[j].kind == "id":
                names.add(body[j].text)
    return names


def _receiver_root(body: list[Token], dot_idx: int) -> str:
    """For `a.b.c.assign(` at the `.` before the method, the chain root `a`
    (walking back over id/./->/() segments)."""
    i = dot_idx - 1
    root = ""
    while i >= 0:
        t = body[i]
        if t.kind == "id":
            root = t.text
            if i >= 1 and body[i - 1].text in (".", "->"):
                i -= 2
                continue
        break
    return root


def rule_a1_hot_path_allocation(ctx: RuleContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    reached = _reachable_from_hot(ctx)
    for fn, chain in reached.values():
        via = " -> ".join(chain)
        body = fn.body
        scratch = _scratch_locals(body) | _SCRATCH_ROOT_NAMES
        for i, tok in enumerate(body):
            # All forms of `new` count, placement included.
            if tok.text == "new":
                diags.append(Diagnostic(
                    "A101", fn.file, tok.line,
                    f"operator new in '{fn.qualified}' "
                    f"(hot call chain: {via})"))
            elif tok.kind == "id" and tok.text in ALLOC_CALLS:
                diags.append(Diagnostic(
                    "A101", fn.file, tok.line,
                    f"std::{tok.text} in '{fn.qualified}' "
                    f"(hot call chain: {via})"))
            elif (tok.kind == "id" and tok.text in OWNING_CONTAINERS
                  and i >= 2 and body[i - 1].text == "::"
                  and body[i - 2].text == "std"):
                if _is_owning_construction(body, i):
                    diags.append(Diagnostic(
                        "A102", fn.file, tok.line,
                        f"std::{tok.text} constructed per call in "
                        f"'{fn.qualified}' (hot call chain: {via}) — use "
                        "flow::Workspace or member scratch"))
            elif (tok.text in (".", "->") and i + 2 < len(body)
                  and body[i + 1].kind == "id"
                  and body[i + 1].text in GROWTH_METHODS
                  and body[i + 2].text == "("
                  and _receiver_root(body, i) not in scratch):
                diags.append(Diagnostic(
                    "A103", fn.file, body[i + 1].line,
                    f".{body[i + 1].text}() in '{fn.qualified}' "
                    f"(hot call chain: {via}) — growth must be amortised "
                    "against a pinned high-water mark"))
    return diags


def _is_owning_construction(body: list[Token], i: int) -> bool:
    """True when body[i] (a container type name) is a by-value local /
    temporary construction, not a reference, pointer, or nested type use."""
    j = i + 1
    if j < len(body) and body[j].text == "<":
        depth = 0
        while j < len(body):
            if body[j].text == "<":
                depth += 1
            elif body[j].text == ">":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        j += 1
    after = body[j].text if j < len(body) else ""
    after2 = body[j + 1].text if j + 1 < len(body) else ""
    if after in ("&", "*", "::"):
        return False  # reference/pointer/iterator type, no allocation
    if after in ("(", "{"):
        return True  # temporary: std::vector<int>{...}
    if j < len(body) and body[j].kind == "id":
        return after2 in (";", "(", "{", "=", ",", ")")
    return False


def rule_a104_nested_vector(ctx: RuleContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for f in ctx.files:
        if not ctx.fixture_mode and not config.matches(f.path,
                                                       config.A104_GLOB):
            continue
        toks = f.tokens
        for i, tok in enumerate(toks):
            # std :: vector < std :: vector <
            if (tok.text == "vector" and i + 4 < len(toks)
                    and toks[i + 1].text == "<"
                    and toks[i + 2].text == "std"
                    and toks[i + 3].text == "::"
                    and toks[i + 4].text == "vector"):
                diags.append(Diagnostic(
                    "A104", f.path, tok.line,
                    "nested std::vector adjacency in flow/; use the frozen "
                    "CSR (flow/graph.h) or flat arrays"))
    return diags


# --------------------------------------------------------------------------
# L1 — locking
# --------------------------------------------------------------------------


def rule_l1_locking(ctx: RuleContext) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for f in ctx.l1_surface():
        for c in f.classes:
            mutexes = [fd for fd in c.fields if fd.is_mutex]
            if not mutexes:
                continue
            guarded_refs = {fd.guarded_by for fd in c.fields
                            if fd.guarded_by}
            mutex_names = {m.name for m in mutexes}
            for m in mutexes:
                if not any(m.name in ref for ref in guarded_refs):
                    diags.append(Diagnostic(
                        "L101", f.path, m.line,
                        f"mutex '{c.name}::{m.name}' guards no field — "
                        "annotate the data it protects with "
                        "ALADDIN_GUARDED_BY"))
            for fd in c.fields:
                if fd.guarded_by:
                    ref = fd.guarded_by.split(".")[0].split("->")[0]
                    if ref not in mutex_names and "::" not in fd.guarded_by:
                        diags.append(Diagnostic(
                            "L102", f.path, fd.line,
                            f"ALADDIN_GUARDED_BY({fd.guarded_by}) on "
                            f"'{c.name}::{fd.name}' names no member mutex"))
                elif not (fd.is_const or fd.is_atomic or fd.is_mutex
                          or fd.is_condvar):
                    diags.append(Diagnostic(
                        "L103", f.path, fd.line,
                        f"field '{c.name}::{fd.name}' in a mutex-holding "
                        "class has no ALADDIN_GUARDED_BY — annotate it or "
                        "justify with analyze:allow(L103)"))
    # L104: raw standard mutexes/locks anywhere in src (they are invisible
    # to -Wthread-safety; common/mutex.h wraps them once, with annotations).
    for f in ctx.files:
        if not ctx.fixture_mode:
            if not config.in_scope(f.path, config.D1_SCOPE):
                continue
            if f.path in config.L104_EXEMPT:
                continue
        toks = f.tokens
        for i, tok in enumerate(toks):
            if (tok.kind == "id" and tok.text in RAW_LOCK_TYPES
                    and i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                diags.append(Diagnostic(
                    "L104", f.path, tok.line,
                    f"raw std::{tok.text} — use aladdin::Mutex / MutexLock "
                    "/ CvLock (common/mutex.h) so -Wthread-safety sees it"))
    return diags


# --------------------------------------------------------------------------
# E1 — closed-enum exhaustiveness
# --------------------------------------------------------------------------


def _switch_labels(body: list[Token]):
    """(enum_name, enumerator, token) per case label plus ('', 'default',
    token) entries, skipping nested switch statements."""
    i = 0
    n = len(body)
    while i < n:
        tok = body[i]
        if tok.kind == "id" and tok.text == "switch":
            # Skip the nested switch wholesale (its labels are its own).
            j = i + 1
            if j < n and body[j].text == "(":
                depth = 0
                while j < n:
                    if body[j].text == "(":
                        depth += 1
                    elif body[j].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                j += 1
                if j < n and body[j].text == "{":
                    depth = 0
                    while j < n:
                        if body[j].text == "{":
                            depth += 1
                        elif body[j].text == "}":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
            i = j + 1
            continue
        if tok.kind == "id" and tok.text == "default" and i + 1 < n \
                and body[i + 1].text == ":":
            yield "", "default", tok
        elif tok.kind == "id" and tok.text == "case":
            path: list[str] = []
            j = i + 1
            while j < n and body[j].text != ":":
                if body[j].kind == "id":
                    path.append(body[j].text)
                elif body[j].text != "::":
                    break  # numeric / expression label: not an enum path
                j += 1
            if path:
                enum_name = path[-2] if len(path) >= 2 else ""
                yield enum_name, path[-1], tok
            i = j
        i += 1


def rule_e1_exhaustive_switches(ctx: RuleContext) -> list[Diagnostic]:
    closed: dict[str, list[str]] = {}
    for f in ctx.files:
        if not ctx.fixture_mode and not config.in_scope(f.path,
                                                        config.E1_SCOPE):
            continue
        for e in f.enums:
            if e.closed:
                closed[e.name] = [x for x in e.enumerators
                                  if x not in config.E1_SENTINELS]
    diags: list[Diagnostic] = []
    if not closed:
        return diags
    scope = ctx.files if ctx.fixture_mode else [
        f for f in ctx.files if config.in_scope(f.path, config.E1_SCOPE)]
    for f in scope:
        for fn in f.functions:
            for sw_tok, sw_body in iter_switches(fn.body):
                labels = list(_switch_labels(sw_body))
                enum_names = {name for name, _, _ in labels if name}
                target = next((n for n in enum_names if n in closed), None)
                if target is None:
                    continue
                seen = {lab for name, lab, _ in labels if name == target}
                has_default = any(lab == "default" for _, lab, _ in labels)
                missing = [x for x in closed[target] if x not in seen]
                if missing:
                    diags.append(Diagnostic(
                        "E101", f.path, sw_tok.line,
                        f"switch over closed enum '{target}' in "
                        f"'{fn.qualified}' misses: {', '.join(missing)}"))
                if has_default:
                    diags.append(Diagnostic(
                        "E102", f.path, sw_tok.line,
                        f"default: in switch over closed enum '{target}' "
                        f"in '{fn.qualified}' — closed enums enumerate "
                        "every case so new enumerators fail loudly"))
    return diags
