#!/usr/bin/env python3
"""Fixture-corpus tests for the aladdin-analyze suite (tools/analyze/).

Every rule family has a violating and (where meaningful) a conforming
translation unit under tests/analyze/. Each violating fixture must produce
exactly the expected diagnostic codes — no more, no fewer — and each
conforming fixture must come back clean, so a rule that silently stops
firing (or starts over-firing) turns the `analyze_unit` ctest red.

Runs the analyzer in-process (no subprocess per case) through the same
driver entry point `ctest -R analyze` uses, in --fixture mode so rule
scopes widen to the fixture files instead of src/.

Standalone:  python3 tools/test_analyze.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import diagnostics, rules  # noqa: E402
from tools.analyze.source_model import build_source_file  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "analyze"


def analyze_fixture(name: str, families=None):
    """(active_codes, suppressed_codes) for one fixture TU, sorted."""
    path = FIXTURES / name
    rel = path.relative_to(REPO_ROOT).as_posix()
    model = build_source_file(rel, path.read_text(encoding="utf-8"))
    ctx = rules.RuleContext(files=[model], fixture_mode=True)
    diags = rules.run_all(ctx, families)
    markers, malformed = diagnostics.collect_allows(rel, model.comments)
    diags = diagnostics.apply_allows(diags, markers) + malformed
    active = sorted(d.code for d in diags if not d.suppressed)
    suppressed = sorted(d.code for d in diags if d.suppressed)
    return active, suppressed


class ViolatingFixtures(unittest.TestCase):
    """Each rule is demonstrated by a fixture that fails with exact codes."""

    def test_d1(self):
        active, suppressed = analyze_fixture("d1_violating.cpp")
        self.assertEqual(active,
                         ["D101", "D101", "D101", "D102", "D103", "D103"])
        self.assertEqual(suppressed, [])

    def test_a1(self):
        active, suppressed = analyze_fixture("a1_violating.cpp")
        self.assertEqual(active, ["A101", "A101", "A102", "A103", "A104"])
        self.assertEqual(suppressed, [])

    def test_a1_same_named_members(self):
        # Planner::Run and Merger::Run share a name and a namespace; the
        # walk must visit both definitions, so each make_unique is an A101.
        active, suppressed = analyze_fixture("a1_same_name.cpp")
        self.assertEqual(active, ["A101", "A101"])
        self.assertEqual(suppressed, [])

    def test_l1(self):
        active, suppressed = analyze_fixture("l1_violating.cpp")
        self.assertEqual(active, ["L101", "L102", "L103", "L104"])
        self.assertEqual(suppressed, [])

    def test_e1(self):
        active, suppressed = analyze_fixture("e1_violating.cpp")
        self.assertEqual(active, ["E101", "E102"])
        self.assertEqual(suppressed, [])

    def test_x_suppression_hygiene(self):
        # A reasonless marker and an unknown code are X001 (and suppress
        # nothing, so the underlying D103 stays live); a well-formed marker
        # covering no diagnostic is X002; the valid marker suppresses its
        # D103 without tripping anything.
        active, suppressed = analyze_fixture("x_violating.cpp")
        self.assertEqual(active, ["D103", "X001", "X001", "X002"])
        self.assertEqual(suppressed, ["D103"])


class ConformingFixtures(unittest.TestCase):
    """The sanctioned counterparts produce zero violations."""

    def test_d1(self):
        self.assertEqual(analyze_fixture("d1_conforming.cpp"), ([], []))

    def test_a1(self):
        self.assertEqual(analyze_fixture("a1_conforming.cpp"), ([], []))

    def test_l1(self):
        # The one deliberately unguarded field is suppressed by its
        # analyze:allow(L103) marker — a used marker is not stale.
        active, suppressed = analyze_fixture("l1_conforming.cpp")
        self.assertEqual(active, [])
        self.assertEqual(suppressed, ["L103"])

    def test_e1(self):
        self.assertEqual(analyze_fixture("e1_conforming.cpp"), ([], []))


class FamilyFiltering(unittest.TestCase):
    """--rules narrows the run without inventing stale-marker noise."""

    def test_single_family_only(self):
        active, _ = analyze_fixture("a1_violating.cpp", families={"A1"})
        self.assertTrue(all(c.startswith("A1") for c in active), active)
        self.assertEqual(len(active), 5)

    def test_marker_for_unrun_family_not_stale(self):
        # l1_conforming carries an analyze:allow(L103); running only D1
        # must not report it as stale (X002) — it was never judged.
        path = FIXTURES / "l1_conforming.cpp"
        rel = path.relative_to(REPO_ROOT).as_posix()
        model = build_source_file(rel, path.read_text(encoding="utf-8"))
        ctx = rules.RuleContext(files=[model], fixture_mode=True)
        diags = rules.run_all(ctx, {"D1"})
        markers, malformed = diagnostics.collect_allows(rel, model.comments)
        markers = [m for m in markers
                   if any(m.code.startswith(f) for f in ("D1",))]
        diags = diagnostics.apply_allows(diags, markers) + malformed
        self.assertEqual([d.code for d in diags], [])


class DriverEndToEnd(unittest.TestCase):
    """The __main__ entry point agrees with the in-process results."""

    def run_driver(self, *argv: str) -> int:
        from tools.analyze import driver
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = driver.main(list(argv))
        self.last_output = buf.getvalue()
        return code

    def test_violating_exits_1(self):
        code = self.run_driver("--backend", "lex", "--fixture",
                               str(FIXTURES / "d1_violating.cpp"))
        self.assertEqual(code, 1)
        self.assertIn("6 violation(s)", self.last_output)

    def test_conforming_exits_0(self):
        code = self.run_driver("--backend", "lex", "--fixture",
                               str(FIXTURES / "d1_conforming.cpp"))
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
