"""aladdin-analyze: repo-specific static analysis for the Aladdin tree.

Enforces the invariants the compiler and clang-tidy cannot express:

  D1  determinism   — no iteration over unordered containers, no
                      pointer-keyed ordering, no nondeterministic sources
                      (rand / random_device / raw clock reads) in
                      decision-path code;
  A1  allocation    — ALADDIN_HOT functions and their transitive callees
                      must not heap-allocate outside flow::Workspace;
  L1  locking       — the concurrency surface declares its lock discipline
                      with ALADDIN_GUARDED_BY and uses the annotated Mutex;
  E1  exhaustiveness— switches over closed enums (// analyze:closed_enum)
                      cover every enumerator and never carry default:.

Two backends produce the same translation-unit model the rules consume:
the libclang backend (clang.cindex, AST-grade — used automatically when the
bindings are importable, e.g. in CI where clang is pinned) and a built-in
lexer backend with no dependencies beyond the standard library. See
DESIGN.md §8 for the rule catalog and escape-hatch policy.
"""

__version__ = "1.0"
