import json
import re
import time
from itertools import product

import pytest
from click.testing import CliRunner

import fcheaps.enumerator
from fcheaps.cells import cells_report
from fcheaps.cli import main
from fcheaps.coxeter import GroupType, build_graph
from fcheaps.enumerator import ValidationReport, iter_fc, passes_filter
from fcheaps.genfunc import _family, affine_period, affine_periodic_part, card_involutions
from fcheaps.qpoly import PeriodReport, TPoly
from fcheaps.walks import WalkFamilySpec, family_poly
from test_genfunc import drop_one_walk


def run(*argv):
    return CliRunner().invoke(main, argv)


def dumped(payload) -> str:
    """The bytes the CLI writes for a JSON payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestGraphShow:
    def test_text_lists_bonds(self):
        r = run("graph", "show", "--type", "A", "--rank", "4")
        assert r.exit_code == 0
        assert "bond s1 -- s2  m=3" in r.output
        assert "generators: s1 s2 s3" in r.output

    def test_json_b_has_quadruple_bond(self):
        r = run("graph", "show", "--type", "B", "--rank", "3", "--format", "json")
        data = json.loads(r.output)
        assert data["cyclic"] is False
        assert [b["m"] for b in data["bonds"]] == [3, 4]

    def test_json_affd_has_forks(self):
        r = run("graph", "show", "--type", "affD", "--rank", "2", "--format", "json")
        data = json.loads(r.output)
        assert len(data["forks"]) == 2

    def test_csv(self):
        r = run("graph", "show", "--type", "affA", "--rank", "3", "--format", "csv")
        lines = r.output.splitlines()
        assert lines[0] == "a,b,m"
        assert len(lines) == 4


class TestEnumerate:
    def test_involution_counts_csv_matches_triangle(self):
        r = run("enumerate", "--type", "affA", "--rank", "3",
                "--max-length", "4", "--involutions", "--format", "csv")
        assert r.exit_code == 0
        assert r.output == "0,1\n1,3\n2,0\n3,0\n4,0\n"

    def test_text_counts(self):
        r = run("enumerate", "--type", "A", "--rank", "4", "--max-length", "6")
        # 14 FC elements in S4, none past length 4
        assert r.output.splitlines() == [
            "0: 1", "1: 3", "2: 5", "3: 4", "4: 1", "5: 0", "6: 0"]

    def test_json_counts(self):
        r = run("enumerate", "--type", "A", "--rank", "4",
                "--max-length", "6", "--involutions", "--format", "json")
        data = json.loads(r.output)
        assert data["counts"] == [1, 3, 1, 0, 1, 0, 0]
        assert data["filter"] == "involutions"

    def test_more_generators_than_bytes_hold(self):
        # A:300 has 299 generators; its length-2 involutions are the
        # commuting pairs, C(299, 2) - 298 of them
        r = run("enumerate", "--type", "A", "--rank", "300", "--max-length", "2", "--involutions")
        assert r.exit_code == 0
        assert r.output == "0: 1\n1: 299\n2: 44253\n"

    def test_wide_graph_under_all(self):
        # every node builds a Heap: the C(299, 2) - 298 commuting pairs and
        # both orders of the 298 bonded pairs
        r = run("enumerate", "--type", "A", "--rank", "300", "--max-length", "2")
        assert r.exit_code == 0
        assert r.output == "0: 1\n1: 299\n2: 44849\n"

    def test_stream_words(self):
        r = run("enumerate", "--type", "A", "--rank", "3",
                "--max-length", "3", "--stream")
        assert r.output.splitlines() == ["e", "s1", "s2", "s1 s2", "s2 s1"]

    def test_stream_csv_has_header(self):
        r = run("enumerate", "--type", "A", "--rank", "3",
                "--max-length", "2", "--stream", "--format", "csv")
        assert r.output.splitlines()[0] == "length,word"

    def test_alternating_filter(self):
        r = run("enumerate", "--type", "B", "--rank", "2",
                "--max-length", "4", "--alternating", "--format", "csv")
        # s1s0s1 is a peak, not alternating; s0s1s0 stays
        assert r.output == "0,1\n1,2\n2,0\n3,1\n4,0\n"

    @pytest.mark.parametrize("argv", [("B", "4", "10", "--all"), ("D", "5", "8", "--involutions"),
                                      ("affA", "5", "9", "--all"), ("affD", "4", "8", "--alternating")])
    def test_stream_lists_the_sorted_walk(self, argv):
        # the listing that streamed heaps from iter_fc is the reference order
        fam, rank, window, flag = argv
        g = build_graph(GroupType(fam, int(rank)))
        want = [f"{length},{' '.join(g.names[c] for c in h.canonical_word) or 'e'}"
                for length, h in iter_fc(g, int(window)) if passes_filter(h, flag[2:])]
        r = run("enumerate", "--type", fam, "--rank", rank, "--max-length", window,
                flag, "--stream", "--format", "csv")
        assert r.output.splitlines() == ["length,word", *want]

    @pytest.mark.parametrize("fam_rank,flag,window", [
        *product([("A", "5"), ("B", "4"), ("affA", "4")],
                 ["--all", "--involutions", "--alternating"], ["0", "7"]),
        (("A", "8"), "--all", "30")])
    def test_stream_json_bytes(self, fam_rank, flag, window):
        # the records are written in blocks (A:8 has 1,430 of them); the
        # bytes are those of one dump
        fam, rank = fam_rank
        g = build_graph(GroupType(fam, int(rank)))
        payload = {"type": fam, "rank": int(rank), "max_length": int(window),
                   "filter": flag[2:],
                   "elements": [{"length": length,
                                 "word": " ".join(g.names[c] for c in h.canonical_word) or "e"}
                                for length, h in iter_fc(g, int(window))
                                if passes_filter(h, flag[2:])]}
        r = run("enumerate", "--type", fam, "--rank", rank, "--max-length", window,
                flag, "--stream", "--format", "json")
        assert r.exit_code == 0
        assert r.output == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_stream_json_empty_listing(self, monkeypatch):
        monkeypatch.setattr("fcheaps.cli.listed_words", lambda g, max_length, mode: [[]])
        r = run("enumerate", "--type", "A", "--rank", "3", "--max-length", "0",
                "--stream", "--format", "json")
        payload = {"type": "A", "rank": 3, "max_length": 0, "filter": "all", "elements": []}
        assert r.output == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_stream_over_the_cap_exits_two(self, monkeypatch):
        monkeypatch.setattr("fcheaps.enumerator.LAYER_CAP", 2)
        # A:3 lists at most two words per length, A:4 three of length one
        assert run("enumerate", "--type", "A", "--rank", "3", "--max-length", "3",
                   "--stream").exit_code == 0
        r = run("enumerate", "--type", "A", "--rank", "4", "--max-length", "3",
                "--stream")
        assert r.exit_code == 2
        assert r.stdout == ""
        # the walk has no set order, so the length that trips first is open
        assert re.fullmatch(r"Error: length \d exceeds 2 heaps; lower --max-length\n",
                            r.stderr)

    def test_negative_window_rejected(self):
        assert run("enumerate", "--type", "A", "--rank", "3",
                   "--max-length", "-1").exit_code == 2


class TestGenfunc:
    def test_maj_text(self):
        r = run("genfunc", "maj", "--type", "A", "--rank", "4")
        assert r.exit_code == 0
        assert r.output == "1 + q + 2*q^2 + q^3 + q^4\n"

    def test_length_text(self):
        r = run("genfunc", "length", "--type", "B", "--rank", "2")
        assert r.output == "1 + 2*t + 2*t^3\n"

    def test_card(self):
        assert run("genfunc", "card", "--type", "B", "--rank", "2").output == "5\n"
        assert run("genfunc", "card", "--type", "D", "--rank", "3").output == "16\n"

    def test_csv_rows_skip_zero_coefficients(self):
        r = run("genfunc", "length", "--type", "B", "--rank", "2", "--format", "csv")
        assert r.output == "exponent,coefficient\n0,1\n1,2\n3,2\n"

    def test_card_json(self):
        r = run("genfunc", "card", "--type", "D", "--rank", "5", "--format", "json")
        assert r.exit_code == 0
        assert r.output == dumped({"rank": 5, "stat": "card", "type": "D", "value": 61})

    def test_length_json(self):
        r = run("genfunc", "length", "--type", "B", "--rank", "3", "--format", "json")
        assert r.exit_code == 0
        assert r.output == dumped({"coeffs": ["1", "3", "1", "2", "1", "1", "1"], "rank": 3,
                                   "stat": "length", "truncated_at": 10, "type": "B",
                                   "var": "t"})

    def test_json_round_trip(self):
        r = run("genfunc", "maj", "--type", "D", "--rank", "4", "--format", "json")
        data = json.loads(r.output)
        assert data["stat"] == "maj" and data["var"] == "q"
        assert all(isinstance(c, str) for c in data["coeffs"])

    def test_descents_restriction(self):
        r = run("genfunc", "maj", "--type", "B", "--rank", "4", "--descents", "0")
        assert r.output == "1\n"

    def test_descents_needs_type_b_maj(self):
        assert run("genfunc", "maj", "--type", "A", "--rank", "4",
                   "--descents", "1").exit_code == 2
        assert run("genfunc", "length", "--type", "B", "--rank", "4",
                   "--descents", "1").exit_code == 2

    def test_affine_rejected(self):
        assert run("genfunc", "maj", "--type", "affA", "--rank", "4").exit_code == 2


class TestSeries:
    def test_text_window(self):
        r = run("series", "--id", "M", "--xmax", "4", "--tmax", "6")
        lines = r.output.splitlines()
        assert lines[0] == "[x^0] 1"
        assert lines[2] == "[x^2] t"

    def test_matches_library(self):
        from fcheaps.genfunc import solve_series
        r = run("series", "--id", "Mstar", "--xmax", "6", "--tmax", "8",
                "--format", "json")
        data = json.loads(r.output)
        s = solve_series("Mstar", 6, 8)
        assert data["coeffs"] == [[str(c) for c in p.coeffs] for p in s.coeffs]

    def test_csv_header(self):
        r = run("series", "--id", "Q", "--xmax", "3", "--tmax", "4", "--format", "csv")
        assert r.output.splitlines()[0] == "xpow,tpow,coefficient"

    def test_unknown_id(self):
        assert run("series", "--id", "Z", "--xmax", "3", "--tmax", "4").exit_code == 2

    def test_negative_window(self):
        assert run("series", "--id", "M", "--xmax", "-1", "--tmax", "4").exit_code == 2


class TestWalksFamily:
    def test_matches_library_poly(self):
        r = run("walks", "family", "--n", "5", "--end", "0", "--tmax", "8")
        want = family_poly(WalkFamilySpec(n=5, allow_horiz=True, end=0), 8)
        assert r.output == want.to_text("t") + "\n"

    def test_flags_map_to_walk_spec(self):
        r = run("walks", "family", "--n", "4", "--no-horiz", "--touch",
                "--start", "le1", "--end", "eq-start", "--weight", "exclude-start",
                "--tmax", "8", "--format", "json")
        data = json.loads(r.output)
        want = family_poly(WalkFamilySpec(n=4, allow_horiz=False, start="le1",
                                          end="eq-start", require_touch=True,
                                          weight="exclude-start"), 8)
        assert data["coeffs"] == [str(c) for c in want.coeffs]

    def test_bad_start_token(self):
        assert run("walks", "family", "--n", "3", "--start", "sideways",
                   "--tmax", "4").exit_code == 2

    def test_negative_height(self):
        assert run("walks", "family", "--n", "3", "--start", "-2",
                   "--tmax", "4").exit_code == 2

    def test_window_past_the_family_cap_exits_2(self, monkeypatch):
        # cap 300 state bits: --start any at n=2 touches 11 * 4 * 6 = 264 at
        # tmax 3 and passes 300 at step 2 at tmax 4 (13 * 5 * 6 = 390)
        monkeypatch.setattr("fcheaps.walks.FAMILY_CAP", 300)
        argv = ("walks", "family", "--n", "2", "--start", "any", "--tmax")
        assert run(*argv, "3").exit_code == 0
        r = run(*argv, "4")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == ("Error: walk family of 5 start heights on 5 slots of 6 bits "
                            "exceeds 300 state bits at step 2; lower --tmax\n")

    def test_default_cap_refuses_a_quadratic_window(self):
        # 40001 start heights by 40001 slots: refused at the seeding
        r = run("walks", "family", "--n", "2", "--start", "any", "--tmax", "40000")
        assert r.exit_code == 2
        assert r.stdout == ""
        assert re.fullmatch(r"Error: walk family of 40001 start heights on 40001 slots of "
                            r"\d+ bits exceeds \d+ state bits at step 0; lower --tmax\n", r.stderr)

    def test_default_cap_refuses_a_long_window_early(self):
        # 1000 steps from 501 start heights on 501 slots, about 4 s of work:
        # under a cap on the seeded states alone it ran to the end
        start = time.perf_counter()
        r = run("walks", "family", "--n", "1000", "--start", "any", "--tmax", "500")
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2
        assert r.stdout == ""
        assert re.fullmatch(r"Error: walk family of 501 start heights on 501 slots of \d+ bits "
                            r"exceeds \d+ state bits at step \d+; lower --tmax\n", r.stderr)


class TestVerify:
    def test_finite_report_line(self):
        r = run("verify", "--type", "B", "--rank", "2")
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "card=5 maj=1+2q+2q^2 length=1+2t+2t^3 all match"
        assert any(l.startswith("note:") and "alternating" in l for l in lines)

    def test_affine_report(self):
        r = run("verify", "--type", "affA", "--rank", "4", "--max-length", "24")
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[0] == "remainder=0"
        assert lines[1].startswith("period=4 ")
        assert "all match" in lines

    def test_json_shape(self):
        r = run("verify", "--type", "D", "--rank", "3", "--format", "json")
        data = json.loads(r.output)
        assert data["ok"] is True
        assert set(data["checks"]) >= {"card", "maj", "length"}

    def test_mismatch_exits_one(self, monkeypatch):
        # cross_validate sets card, maj and length for every finite group
        bad = ValidationReport(group=GroupType("B", 2), ok=False, checks=["maj", "length"],
                               failures=["card: expected 5 got 6"], notes=[],
                               card=6, maj=TPoly([1, 2, 2]), length=TPoly([1, 2, 0, 2]),
                               remainder=None, period=None)
        monkeypatch.setattr("fcheaps.cli.cross_validate", lambda *a, **k: bad)
        r = run("verify", "--type", "B", "--rank", "2")
        assert r.exit_code == 1
        assert r.output == ("card=6 maj=1+2q+2q^2 length=1+2t+2t^3 MISMATCH\n"
                            "failure: card: expected 5 got 6\n")


class TestEnumerateWideBD:
    @pytest.mark.parametrize("fam,pairs", [("B", 7021), ("D", 7140)])
    def test_length_two_alternating_window_at_rank_120(self, fam, pairs):
        # an involution of length at most 2 is e, one generator or a
        # commuting pair, and each of these is alternating
        g = build_graph(GroupType(fam, 120))
        start = time.perf_counter()
        r = run("enumerate", "--type", fam, "--rank", "120", "--max-length", "2",
                "--alternating", "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 0
        assert json.loads(r.output)["counts"] == [1, g.size, pairs]
        assert pairs == g.size * (g.size - 1) // 2 - len(g.bonds)


class TestAffAFaultInjection:
    """The two affA verdicts that only a wrong closed form or a wrong declared
    period can fail, each failed by injecting that fault."""

    def test_wrong_declared_period_fails_period_divides(self, monkeypatch):
        declared = affine_period
        monkeypatch.setattr("fcheaps.enumerator.affine_period",
                            lambda family, n: declared(family, n) + 1)
        r = run("verify", "--type", "affA", "--rank", "4")
        assert r.exit_code == 1
        assert "failure: period-divides: detected 4, declared 5\n" in r.output

    def test_wrong_periodic_part_fails_zero_remainder(self, monkeypatch):
        def lowered(family, n, lmax):
            part, period = affine_periodic_part(family, n, lmax)
            return part - TPoly.term(2, part.cap), period
        monkeypatch.setattr("fcheaps.enumerator.affine_periodic_part", lowered)
        r = run("verify", "--type", "affA", "--rank", "4")
        assert r.exit_code == 1
        assert "failure: zero-remainder: remainder t^2\n" in r.output


class TestFiniteFaultInjection:
    """The card and length verdicts of a finite verify, each failed alone by
    injecting a fault."""

    @pytest.mark.parametrize("family,name", [("B", "B"), ("D", "Dodd")])
    def test_shifted_walk_family_fails_length(self, monkeypatch, family, name):
        # one walk of the rank-4 family moved one degree up keeps the total
        # that length_genfunc checks, and changes the polynomial
        def shifted(spec, tmax):
            p = family_poly(spec, tmax)
            if spec == _family(name, 4):
                k = next(i for i, c in enumerate(p.coeffs) if c)
                p = p - TPoly.term(k, p.cap) + TPoly.term(k + 1, p.cap)
            return p
        monkeypatch.setattr("fcheaps.genfunc.family_poly", shifted)
        r = run("verify", "--type", family, "--rank", "4", "--format", "json")
        assert r.exit_code == 1
        data = json.loads(r.output)
        assert [f.split(":")[0] for f in data["failures"]] == ["length"]
        assert data["failures"][0].startswith("length: first divergence at degree ")

    def test_wrong_count_fails_card(self, monkeypatch):
        formula = card_involutions
        monkeypatch.setattr("fcheaps.enumerator.card_involutions",
                            lambda family, n: formula(family, n) + 1)
        r = run("verify", "--type", "D", "--rank", "4")
        assert r.exit_code == 1
        assert r.output.endswith(" MISMATCH\nfailure: card: enumerated 25, formula 26\n")

    @staticmethod
    def shifted_up(p: TPoly) -> TPoly:
        """p with its lowest coefficient's one unit moved one degree up."""
        k = next(i for i, c in enumerate(p.coeffs) if c)
        return p - TPoly.term(k, p.cap) + TPoly.term(k + 1, p.cap)

    def test_shifted_maj_fails_maj(self, monkeypatch):
        formula = fcheaps.enumerator.maj_genfunc
        monkeypatch.setattr("fcheaps.enumerator.maj_genfunc",
                            lambda family, n: self.shifted_up(formula(family, n)))
        r = run("verify", "--type", "A", "--rank", "4")
        assert r.exit_code == 1
        assert r.output.endswith(" MISMATCH\nfailure: maj: first divergence at degree 0: "
                                 "1 vs 0\n")

    def test_shifted_descent_term_fails_maj_by_descents(self, monkeypatch):
        # the one-descent term of B:4 moved: the alternating class no longer
        # sums to it, while the whole maj polynomial still matches
        formula = fcheaps.enumerator.maj_genfunc_by_descents
        monkeypatch.setattr("fcheaps.enumerator.maj_genfunc_by_descents",
                            lambda n, k: self.shifted_up(formula(n, k)) if k == 1
                            else formula(n, k))
        r = run("verify", "--type", "B", "--rank", "4", "--format", "json")
        assert r.exit_code == 1
        assert json.loads(r.output)["failures"] == [
            "maj-by-descents: first divergence at degree 1: 0 vs 1"]


class TestFailedWalkTotals:
    """Walk families that fail their own t = 1 total: verify reports a failed
    length verdict with the check's message, genfunc length and series write
    one Error: line, and each exits 1."""

    @pytest.fixture(autouse=True)
    def lose_a_walk(self, monkeypatch):
        drop_one_walk(monkeypatch, 4)

    def test_verify(self):
        r = run("verify", "--type", "A", "--rank", "4")
        assert r.exit_code == 1
        assert r.output == ("card=6 maj=1+q+2q^2+q^3+q^4 length=1+3t+t^2+t^4 MISMATCH\n"
                            "failure: length: A:4 length polynomial totals 5, not 6\n")

    def test_genfunc_length(self):
        r = run("genfunc", "length", "--type", "A", "--rank", "4")
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "Error: A:4 length polynomial totals 5, not 6\n"

    def test_series(self):
        r = run("series", "--id", "M", "--xmax", "8", "--tmax", "30")
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "Error: M row 4 totals 1 walks, not 2\n"


AFFINE_FAILURES = {
    # reconciled, but the detected period does not divide the declared one
    "period": ValidationReport(
        group=GroupType("affC", 2), ok=False, checks=["reconcile"],
        failures=["period-divides: detected 4, declared 6"], notes=["a note"],
        remainder=TPoly([1, 3, 0, 4], 17),
        period=PeriodReport(transient_start=1, period=4, repeating_block=(3, 1, 4, 1))),
    # not reconciled: no remainder and no period
    "reconcile": ValidationReport(
        group=GroupType("affC", 2), ok=False, checks=[],
        failures=["reconcile: remainder coefficient -1 at degree 3 is negative"],
        notes=["first note", "second note"]),
}


class TestAffineFailureRendering:
    """verify's affine renderings of a failed report, in both formats."""

    @pytest.fixture(params=sorted(AFFINE_FAILURES))
    def failing(self, request, monkeypatch):
        report = AFFINE_FAILURES[request.param]
        monkeypatch.setattr("fcheaps.cli.cross_validate", lambda *a, **k: report)
        return request.param

    def test_text(self, failing):
        r = run("verify", "--type", "affC", "--rank", "2", "--max-length", "17")
        assert r.exit_code == 1
        assert r.output == {
            "period": "remainder=1+3t+4t^3\nperiod=4 transient=1 block=3,1,4,1\nMISMATCH\n"
                      "note: a note\nfailure: period-divides: detected 4, declared 6\n",
            "reconcile": "MISMATCH\nnote: first note\nnote: second note\n"
                         "failure: reconcile: remainder coefficient -1 at degree 3 is negative\n",
        }[failing]

    def test_json(self, failing):
        r = run("verify", "--type", "affC", "--rank", "2", "--max-length", "17",
                "--format", "json")
        assert r.exit_code == 1
        head = {"type": "affC", "rank": 2, "ok": False}
        assert r.output == dumped({
            "period": {**head, "checks": ["reconcile"],
                       "failures": ["period-divides: detected 4, declared 6"],
                       "notes": ["a note"],
                       "remainder": {"coeffs": ["1", "3", "0", "4"], "truncated_at": 17,
                                     "var": "t"},
                       "period": {"period": 4, "repeating_block": [3, 1, 4, 1],
                                  "transient_start": 1}},
            "reconcile": {**head, "checks": [],
                          "failures": ["reconcile: remainder coefficient -1 at degree 3 "
                                       "is negative"],
                          "notes": ["first note", "second note"]},
        }[failing])

    def test_short_window_rejected(self):
        assert run("verify", "--type", "affA", "--rank", "4",
                   "--max-length", "2").exit_code == 2

    def test_window_on_finite_family_rejected(self):
        r = run("verify", "--type", "A", "--rank", "4", "--max-length", "5")
        assert r.exit_code == 2
        assert "--max-length applies to affine families only" in r.output


class TestInconclusiveWindow:
    """A window shorter than two declared periods is inconclusive (exit 2),
    not a mismatch (exit 1)."""

    @pytest.mark.parametrize("argv,window,period", [
        (("--type", "affC", "--rank", "2", "--max-length", "8"), 8, 6),
        (("--type", "affB", "--rank", "2", "--max-length", "20"), 20, 30),
        (("--type", "affB", "--rank", "4"), 150, 90),
    ])
    def test_exits_two(self, argv, window, period):
        r = run("verify", *argv)
        assert r.exit_code == 2
        assert f"inconclusive: window {window} < 2 × declared period {period}" in r.output
        assert "MISMATCH" not in r.output

    def test_json_format_exits_two(self):
        r = run("verify", "--type", "affC", "--rank", "2", "--max-length", "8",
                "--format", "json")
        assert r.exit_code == 2
        assert "inconclusive" in r.output

    def test_gate_is_two_declared_periods(self):
        # affA:4 declares period 4: a window of 7 is refused, one of 10 decides
        r = run("verify", "--type", "affA", "--rank", "4", "--max-length", "7")
        assert r.exit_code == 2
        assert "inconclusive: window 7 < 2 × declared period 4" in r.output
        r = run("verify", "--type", "affA", "--rank", "4", "--max-length", "10")
        assert r.exit_code == 0
        assert "all match" in r.output


class TestSeriesLimit:
    """A series or length window whose walk families exceed FAMILY_CAP exits 2
    with one Error: line and no stdout.  At a cap of 900 state bits M at
    4 x 6 and B:2 fit; Mstar at 4 x 6 and B:3 do not."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr("fcheaps.walks.FAMILY_CAP", 900)

    @staticmethod
    def assert_limit(r, slots, width, step, advice):
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == (f"Error: walk family of 1 start heights on {slots} slots of "
                            f"{width} bits exceeds 900 state bits at step {step}; {advice}\n")

    def test_series(self):
        assert run("series", "--id", "M", "--xmax", "4", "--tmax", "6").exit_code == 0
        self.assert_limit(run("series", "--id", "Mstar", "--xmax", "4", "--tmax", "6"),
                          7, 10, 4, "lower --xmax or --tmax")

    def test_genfunc_length(self):
        assert run("genfunc", "length", "--type", "B", "--rank", "2").exit_code == 0
        self.assert_limit(run("genfunc", "length", "--type", "B", "--rank", "3"),
                          11, 9, 3, "lower --rank")
        # maj and card count no walks
        assert run("genfunc", "maj", "--type", "B", "--rank", "3").exit_code == 0
        assert run("genfunc", "card", "--type", "B", "--rank", "3").exit_code == 0

    def test_verify_trips_before_enumerating(self, monkeypatch):
        assert run("verify", "--type", "B", "--rank", "2").exit_code == 0

        def refuse(*_a, **_k):
            raise AssertionError("enumerated past the series limit")

        monkeypatch.setattr("fcheaps.enumerator.walk_fc", refuse)
        self.assert_limit(run("verify", "--type", "B", "--rank", "3"), 11, 9, 3, "lower --rank")


class TestWindowLimitsAtTheDefaultCap:
    def test_length_window_past_the_old_series_cap_runs(self):
        # the solver refused A:45's window of 46 x 509 coefficients (cost 5.5e8)
        r = run("genfunc", "length", "--type", "A", "--rank", "45", "--format", "json")
        assert r.exit_code == 0
        assert sum(map(int, json.loads(r.stdout)["coeffs"])) == card_involutions("A", 45)

    def test_family_refused_before_the_pass(self):
        # exited 2 after 0.47 s when the state bits were counted as the DP ran
        t0 = time.perf_counter()
        r = run("walks", "family", "--start", "0", "--n", "20000", "--tmax", "34")
        elapsed = time.perf_counter() - t0
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == ("Error: walk family of 1 start heights on 35 slots of 360 bits "
                            "exceeds 2000000000 state bits at step 19844; lower --tmax\n")
        assert elapsed < 0.1


class TestCells:
    def test_text_report(self):
        r = run("cells", "--rank", "3", "--max-length", "6")
        lines = r.output.splitlines()
        assert lines[0] == "rank 3 max_length 6 fibers 4"
        assert all(l.endswith(": ok") for l in lines if l.startswith("audit "))
        assert r.exit_code == 0

    def test_json_audits(self):
        r = run("cells", "--rank", "4", "--max-length", "6", "--format", "json")
        data = json.loads(r.output)
        assert data["fiber_count"] == len(data["fibers"])
        assert all(data["audits"].values())

    def test_csv(self):
        r = run("cells", "--rank", "3", "--max-length", "4", "--format", "csv")
        lines = r.output.splitlines()
        assert lines[0] == "representative,members,involution"
        assert "e," in lines[1]

    def test_rank_floor(self):
        assert run("cells", "--rank", "1", "--max-length", "4").exit_code == 2

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_failed_audit_exits_one(self, monkeypatch, fmt):
        good = cells_report(3, 3)
        bad = {**good, "audits": {**good["audits"], "at_most_one_involution_per_fiber": False}}
        monkeypatch.setattr("fcheaps.cli.cells_report", lambda n, max_length: bad)
        r = run("cells", "--rank", "3", "--max-length", "3", "--format", fmt)
        assert r.exit_code == 1
        assert r.output == {
            "text": "rank 3 max_length 3 fibers 4\n"
                    "e | members 1 | involution e\n"
                    "s0 | members 5 | involution s0\n"
                    "s1 | members 5 | involution s1\n"
                    "s2 | members 5 | involution s2\n"
                    "audit at_most_one_involution_per_fiber: FAILED\n"
                    "audit missing_involutions_only_on_even_cycles: ok\n"
                    "audit representatives_irreducible_both_tests: ok\n",
            "json": dumped(bad),
            "csv": "representative,members,involution\ne,1,e\ns0,5,s0\ns1,5,s1\ns2,5,s2\n",
        }[fmt]



def _flipped_zigzag(h, labels):
    """cells._zigzag with its parity flipped: the first label's top below."""
    tops = h.last
    return all((tops[a] > tops[b]) == (j % 2 == 1)
               for j, (a, b) in enumerate(zip(labels, labels[1:])))


class TestCellsFaultInjection:
    """Each cells audit fails, exit 1, when a fault in fcheaps.cells breaks
    what it audits."""

    @pytest.mark.parametrize("target,fault,rank,audit", [
        ("is_self_dual", lambda h: True, 4, "at_most_one_involution_per_fiber"),
        ("is_self_dual", lambda h: False, 3, "missing_involutions_only_on_even_cycles"),
        ("_zigzag", _flipped_zigzag, 4, "representatives_irreducible_both_tests"),
    ], ids=["every-heap-self-dual", "no-heap-self-dual", "zigzag-parity-flipped"])
    def test_audit_fails(self, monkeypatch, target, fault, rank, audit):
        monkeypatch.setattr(f"fcheaps.cells.{target}", fault)
        start = time.perf_counter()
        r = run("cells", "--rank", str(rank), "--max-length", "8")
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 1
        failed = [line for line in r.output.splitlines() if line.endswith(": FAILED")]
        assert failed == [f"audit {audit}: FAILED"]


class TestUsageErrors:
    def test_unknown_family(self):
        r = run("enumerate", "--type", "E", "--rank", "6", "--max-length", "4")
        assert r.exit_code == 2

    def test_unknown_flag(self):
        assert run("genfunc", "card", "--type", "A", "--rank", "4",
                   "--frobnicate").exit_code == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate").exit_code == 2
