// Markers consumed by the aladdin-analyze static-analysis suite
// (tools/analyze/) — see DESIGN.md §8 for the rule catalog.
//
// ALADDIN_HOT marks a steady-state hot-path entry point: the function and
// everything it transitively calls (rule A1) must not heap-allocate outside
// the sanctioned scratch owners (flow::Workspace and its
// StampedArray/RingQueue members). Under clang it also leaves a real
// [[clang::annotate]] node in the AST for the libclang backend; under other
// compilers it is a pure source-level marker for the built-in backend.
//
// Escape hatch, shared by every analyze rule: suppress one diagnostic on
// one line with
//
//   ... flagged code ...  // `analyze:allow(A102) cold audit path, runs once`
//
// A marker must name the exact diagnostic code and carry a reason —
// reasonless suppressions are themselves a violation (X001), so the
// suppression inventory stays reviewable (aladdin-analyze --list-allows).
#pragma once

#if defined(__clang__)
#define ALADDIN_HOT [[clang::annotate("aladdin::hot")]]
#else
#define ALADDIN_HOT
#endif
