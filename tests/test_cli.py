import argparse
import gc
import hashlib
import json
import sys
import time
import tracemalloc
import weakref
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seidelspec.cli as cli
import seidelspec.determination as determination
import seidelspec.multipartite as multipartite
import seidelspec.verify as verify
from seidelspec import (
    CapExceededError,
    ConsistencyError,
    InvalidPartitionError,
    Partition,
    charpoly_coefficients,
    charpoly_oracle,
    complete_multipartite,
    seidel_matrix,
    spectrum_report,
)
from seidelspec.cli import main
from seidelspec.verify import (
    SWEEP_CAP,
    bounds_suite,
    closedform_suite,
    determination_suite,
    run_suites,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCharpoly:
    def test_all_forms_agree(self, capsys):
        code, out, _ = run(capsys, "charpoly", "3,2,1", "--form", "all")
        assert code == 0
        assert "(x+1)^3 * (x^3-3x^2-9x+19)" in out
        assert "all forms agree: yes" in out

    def test_product_form_single_part(self, capsys):
        code, out, _ = run(capsys, "charpoly", "5", "--form", "product")
        assert code == 0
        assert "(x+1)^4 * (x-4)" in out

    def test_grouped_input(self, capsys):
        code, out, _ = run(capsys, "charpoly", "2*2,1", "--form", "grouped")
        assert code == 0
        assert "(x+1)^2 * (x-3) * (x^2+x-4)" in out

    def test_invalid_partition(self, capsys):
        code, _, err = run(capsys, "charpoly", "0,2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("charpoly", "400*1"),
            ("charpoly", "1000*1", "--form", "product"),
            ("charpoly", "5000*1", "--form", "grouped"),
            ("spectrum", "300*1"),
            ("bound", "3000*1"),
            ("quotient", "3000*1"),
        ],
        ids=["charpoly", "product", "grouped", "spectrum", "bound", "quotient"],
    )
    def test_order_checked_before_work(self, capsys, argv):
        # each of these runs for seconds or more if the order is not
        # refused right after parsing
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "64" in err and argv[1].split("*")[0] in err

    @pytest.mark.parametrize(
        "text",
        ["5000000*1", "3000000*1,1*-3", "," + "1" * 5000, "1," + "x" * 5000, "3," + "9" * 5000],
        ids=["5000000*1", "3000000*1,1*-3", "empty-then-5000", "5000-letter", "5000-digit"],
    )
    def test_order_checked_before_expansion(self, capsys, text):
        # a huge count is refused from the group sum, a negative size as
        # its token is read, so no part list is built or echoed; a long
        # bad token or text is echoed only in part
        code, out, err = run(capsys, "charpoly", text)
        assert code == 2
        assert out == ""
        assert len(err) < 200

    def test_huge_count_allocates_no_part_list(self, capsys):
        # one huge count, and a million tokens that the running order sum
        # must stop reading at the first group past the cap
        for text in ("5000000*1", ",".join(["1"] * 1_000_000)):
            tracemalloc.start()
            try:
                code = main(["charpoly", text])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            assert code == 2
            assert peak < 1 << 20

    def test_forms_resolved_at_call_time(self, capsys, monkeypatch):
        # the span tracer rebinds module attributes; a call made through
        # CLOSED_FORMS must reach the rebound function
        import seidelspec.multipartite as mp

        seen = []
        original = mp.charpoly_product

        def counted(p):
            seen.append(p)
            return original(p)

        monkeypatch.setattr(mp, "charpoly_product", counted)
        code, _, _ = run(capsys, "charpoly", "3,2,1", "--form", "product")
        assert code == 0
        assert seen == [mp.Partition([3, 2, 1])]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "charpoly", "3,2,1", "--form", "all", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert len(payload["forms"]) == 4
        assert payload["forms"][0]["coefficients"][0] == "19"


class TestSpectrumBoundQuotient:
    def test_spectrum_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "3,2,1", "--json")
        assert code == 0
        assert json.loads(out)["-1_multiplicity"] == "3"

    def test_spectrum_json_expands_once(self, capsys, monkeypatch):
        # the report checks the eigenvalues on the factored polynomial, and
        # only its JSON expands it: one kernel call per spectrum --json
        import seidelspec.multipartite as mp

        calls = []
        kernel = mp._times_ones_powers

        def counted(products):
            calls.append(products)
            return kernel(products)

        monkeypatch.setattr(mp, "_times_ones_powers", counted)
        code, out, _ = run(capsys, "spectrum", "17,16,10,8,4,4,3,2", "--json")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["charpoly"]["coefficients"][-1] == "1"

    @pytest.mark.parametrize("text", ["17,16,10,8,4,4,3,2", "64"])
    def test_reports_never_expand(self, capsys, monkeypatch, text):
        # the numeric residual check reads the factored form, so a report,
        # bound, text spectrum and the bounds suite expand nothing
        def refuse(products):
            raise AssertionError("the full polynomial was expanded")

        monkeypatch.setattr(multipartite, "_times_ones_powers", refuse)
        assert spectrum_report(Partition.parse(text)).max_scaled_residual < 1e-11
        for argv in (("bound", text), ("bound", text, "--json"), ("spectrum", text)):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.startswith(("partition: ", "{")), argv
        assert bounds_suite(max_n=8).passed

    @pytest.mark.parametrize(
        "text", ["3,2,1", "17,16,10,8,4,4,3,2", "20,20,12,12", "7*9,1", "32,32", "64"]
    )
    def test_spectrum_json_coefficients_match_oracle(self, capsys, text):
        # no report check reads the expanded coefficients any more, so they
        # are tied to the graph here, exactly
        code, out, _ = run(capsys, "spectrum", text, "--json")
        assert code == 0
        graph = complete_multipartite(Partition.parse(text))
        oracle = charpoly_oracle(seidel_matrix(graph))
        assert json.loads(out)["charpoly"]["coefficients"] == [str(c) for c in oracle.coeffs]

    def test_bound_tight(self, capsys):
        code, out, _ = run(capsys, "bound", "2,2,2")
        assert code == 0
        assert "bound: -3.0" in out
        assert "tight" in out and "yes" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("2,2,2",),
                "7dd08677679749171bed452ca933ae73b5218f8f277995d48c7eb377e7d64d65",
            ),
            (
                ("17,16,10,8,4,4,3,2", "--json"),
                "f58013593bf64663cc6644f090ee19afb3a29117ef591f9fc4f96de46c8c9ea1",
            ),
            (
                ("64*1", "--json"),
                "ac70e403e7809c1b21d66e476094211e0a22ffc0fbde44582e68d9d7d76ab70a",
            ),
        ],
    )
    def test_bound_output_pinned(self, capsys, argv, digest):
        # SHA-256 of stdout, recorded when symmetric_eigenvalues began to
        # deflate exchangeable runs (the least eigenvalue of 2,2,2 is now
        # exactly -3.0) and symmetrize_quotient became symmetric by
        # construction
        code, out, _ = run(capsys, "bound", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "partition, digest",
        [
            (
                "17,16,10,8,4,4,3,2",
                "546e7e5fd597eff7561da5ddf2f3bc0d2359e76ee775922649a9fd83032837a1",
            ),
            (
                # 32 runs of two twin rows
                "32*2",
                "a3ace72fef26f7b36cb60e43d33b3f464eb3e03a00970b45316440c3b942c57f",
            ),
            (
                # an order-16 partition of the benchmark's large catalog
                "8,3,2,2,1",
                "9b579e60386092548bc07bca44ba816132b0c80fae1460ade6345fbbdcf41d97",
            ),
        ],
    )
    def test_spectrum_json_output_pinned(self, capsys, partition, digest):
        # SHA-256 of the whole stdout, every eigenvalue's repr included,
        # recorded when symmetric_eigenvalues began to deflate exchangeable
        # runs, so each part's -1s are exact, and symmetrize_quotient
        # became symmetric by construction
        code, out, _ = run(capsys, "spectrum", partition, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bound_violation_exits_3(self, capsys, monkeypatch):
        # a bound below the least eigenvalue (-3 for 2,2,2) is refused by
        # the report, and bound prints nothing to stdout
        import seidelspec.spectra as spectra

        low = spectra.least_eigenvalue_bound(Partition([5, 5, 5]))
        monkeypatch.setattr(spectra, "least_eigenvalue_bound", lambda p: low)
        code, out, err = run(capsys, "bound", "2,2,2")
        assert code == 3
        assert out == ""
        assert "above bound" in err

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient", "1,1")
        assert code == 0
        assert "[0, -1]" in out and "[-1, 0]" in out


class TestSearch:
    def test_bipartite_degeneracy_flagged(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4", "--k", "2")
        assert code == 0
        assert "2,2; 3,1" in out
        assert "degeneracy" in out

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "search", "--n", "1000")
        assert code == 2
        assert "cap" in err.lower() or "error" in err

    @pytest.mark.parametrize(
        "argv",
        [("--n", "0"), ("--n", "-3"), ("--n", "5", "--k", "0"), ("--n", "5", "--k", "-1")],
    )
    def test_empty_order_or_part_count_rejected(self, capsys, argv):
        code, out, err = run(capsys, "search", *argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--n", "24", "--json"),
                "784fad8afce54e276021bfcc4ea9dba3e936db522e7e3a8019abb95cb9b4fdde",
            ),
            (
                ("--n", "13", "--k", "3"),
                "a9426a34f151651a5898f70017e7150571855ab917ed73da4ac15d7e901679c0",
            ),
            (
                # the order of the search benchmark
                ("--n", "30", "--json"),
                "0fab0be696ab7b8ca6f003c180306c6bebc5a8840db33b6d8332f2229abda065",
            ),
            (
                # the search at its cap, COSPECTRAL_CAP = 36
                ("--n", "36", "--json"),
                "b654c0bf867dbbeb9499ebfdab1be8a5edfbbf52eb9f91f52cb05fa373d65b47",
            ),
        ],
    )
    def test_search_output_pinned(self, capsys, argv, digest):
        # SHA-256 of stdout recorded from the search that keyed every
        # partition on its expanded coefficient tuple; keying on
        # (sigma_3, ..., sigma_k), expanding each class's residual, the
        # batched JSON writer, the packed (x+1)^e product and the streamed
        # class list must not change a byte
        code, out, _ = run(capsys, "search", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_search_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "search", "--n", "10", "--json")
        code2, out2, _ = run(capsys, "search", "--n", "10", "--json")
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerify:
    def test_closedform_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "closedform", "--max-n", "6")
        assert code == 0
        assert out.startswith("PASS closedform")

    def test_determination_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "determination", "--max-n", "8")
        assert code == 0
        assert "PASS determination" in out

    def test_forced_pattern_with_mates_fails_its_order(self, capsys, monkeypatch):
        # (6,6,1) is cospectral with (9,2,2); put under a forced pattern,
        # its mates make the order-13 scan raise, recorded as one failure
        real = determination.forced_rule
        monkeypatch.setattr(
            determination,
            "forced_rule",
            lambda p: "repeated_size" if p == Partition([6, 6, 1]) else real(p),
        )
        result = determination_suite(max_n=13)
        (failure,) = result.failures
        assert failure.startswith("order 13: 6,6,1 matches forced pattern repeated_size")
        code, out, _ = run(capsys, "verify", "--suite", "determination", "--max-n", "13")
        assert code == 3
        assert "FAIL determination" in out

    def test_recovery_is_checked_against_the_scan(self, monkeypatch):
        # split the class of (6,6,1) and (9,2,2) in the scan: recovery of
        # either one still finds both, which the suite must report
        real = determination.cospectral_classes
        pair = {Partition([6, 6, 1]), Partition([9, 2, 2])}

        def split(n, k=None):
            classes = []
            for cls in real(n, k):
                if pair <= set(cls.partitions):
                    classes.extend(
                        determination.CospectralClass(cls.charpoly, (p,))
                        for p in cls.partitions
                    )
                else:
                    classes.append(cls)
            return classes

        monkeypatch.setattr(determination, "cospectral_classes", split)
        result = determination_suite(max_n=13)
        assert not result.passed
        assert result.failures == (
            "6,6,1: recovery gives 6,6,1 9,2,2, the scan 6,6,1",
            "9,2,2: recovery gives 6,6,1 9,2,2, the scan 9,2,2",
        )

    def test_recovery_error_is_that_partitions_failure(self, monkeypatch):
        # an error from recovery fails its partition, and the suite goes on
        # to every other partition and order
        checks = determination_suite(max_n=8).checks
        real = verify.recover_partitions
        broken = charpoly_coefficients(Partition([3, 2, 1])).residual

        def recover(residual):
            if residual == broken:
                raise ConsistencyError("recovery broke")
            return real(residual)

        monkeypatch.setattr(verify, "recover_partitions", recover)
        result = determination_suite(max_n=8)
        assert result.failures == ("3,2,1: recovery failed: recovery broke",)
        assert result.checks == checks

    def test_determination_over_cap_is_usage_error(self, capsys):
        # refused before the recovery sweep starts, not reported as a failure
        code, out, err = run(capsys, "verify", "--suite", "determination", "--max-n", "37")
        assert code == 2
        assert out == ""
        assert "36" in err and "37" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("all", "37"),
            ("closedform", "25"),
            ("bounds", "25"),
            ("all", "-3"),
        ],
        ids=["all", "closedform", "bounds", "negative"],
    )
    def test_orders_checked_before_any_suite(self, capsys, argv):
        # each of these runs for seconds or more, or passes vacuously,
        # if the order is not refused before the first suite starts
        suite, max_n = argv
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert max_n in err

    def test_sweep_suites_refuse_over_cap(self):
        for suite in (closedform_suite, bounds_suite):
            with pytest.raises(CapExceededError):
                suite(SWEEP_CAP + 1)
        with pytest.raises(InvalidPartitionError):
            run_suites(["switching"], max_n=-1)

    def test_switching_tiny(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "switching", "--max-n", "4")
        assert code == 0
        assert "PASS switching" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "switching", "--jobs", "2"),
            ("search", "--n", "5", "--jobs", "2"),
        ],
        ids=["verify", "search"],
    )
    def test_jobs_option_removed(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "--jobs" in err

    def test_run_suites_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="frobnicate"):
            run_suites(["closedform", "frobnicate"], max_n=1)

    def test_rebound_suite_runs_with_the_seed(self, capsys, monkeypatch):
        # the span tracer rebinds verify.switching_suite after the first
        # calls; the rebound function must run and get --seed
        seen = []
        original = verify.switching_suite

        def recorded(**options):
            seen.append(options)
            return original(**options)

        assert run(capsys, "verify", "--suite", "switching", "--max-n", "4")[0] == 0
        monkeypatch.setattr(verify, "switching_suite", recorded)
        (result,) = run_suites(["switching"], max_n=4, seed=7)
        assert result.passed
        code, out, _ = run(capsys, "verify", "--suite", "switching", "--max-n", "4", "--seed", "8")
        assert code == 0 and "PASS switching" in out
        assert seen == [{"max_n": 4, "seed": 7}, {"max_n": 4, "seed": 8}]

    def test_bounds_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds", "--max-n", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True


class TestSwitchEquiv:
    def test_equivalent_pair(self, capsys):
        code, out, _ = run(capsys, "switch-equiv", "--g6", "C]", "--g6", "C?")
        assert code == 0
        assert "equivalent" in out and "switch at" in out

    def test_orders_differ(self, capsys):
        code, out, _ = run(capsys, "switch-equiv", "--g6", "C?", "--g6", "B?")
        assert code == 1
        assert "orders differ" in out

    def test_not_equivalent(self, capsys):
        # triangle vs empty on 3 vertices: different switching classes
        code, out, _ = run(capsys, "switch-equiv", "--g6", "Bw", "--g6", "B?")
        assert code == 1
        assert "not equivalent" in out

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "switch-equiv", "--g6", "~x", "--g6", "B?")
        assert code == 2

    def test_json_witness(self, capsys):
        code, out, _ = run(capsys, "switch-equiv", "--g6", "C]", "--g6", "C?", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert sorted(payload["switch_set"]) in ([0, 1], [2, 3])

    def test_single_input_rejected(self, capsys):
        code, _, err = run(capsys, "switch-equiv", "--g6", "C]")
        assert code == 2

    @pytest.mark.parametrize(
        "pair, payload",
        [
            (("C?", "B?"), {"equivalent": False, "reason": "orders differ"}),
            (("Bw", "B?"), {"equivalent": False}),
        ],
        ids=["orders-differ", "not-equivalent"],
    )
    def test_json_not_equivalent(self, capsys, pair, payload):
        code, out, _ = run(capsys, "switch-equiv", "--g6", pair[0], "--g6", pair[1], "--json")
        assert code == 1
        assert out == json.dumps(payload, indent=2) + "\n"


class TestRepeatedCalls:
    """main called many times in one process starts afresh every call."""

    def test_usage_error_then_good_call(self, capsys):
        code, out, err = run(capsys, "charpoly", "3,2,1", "--form", "nope")
        assert code == 2 and out == "" and "nope" in err
        code, out, _ = run(capsys, "charpoly", "3,2,1", "--form", "product")
        assert code == 0
        assert "(x+1)^3 * (x^3-3x^2-9x+19)" in out

    def test_g6_lists_fresh_per_call(self, capsys):
        code, out, _ = run(capsys, "switch-equiv", "--g6", "C]", "--g6", "C?")
        assert code == 0 and "switch at" in out
        # inputs left over from the first call would make three
        code, out, _ = run(capsys, "switch-equiv", "--g6", "Bw", "--g6", "B?")
        assert code == 1 and out == "not equivalent\n"
        code, _, err = run(capsys, "switch-equiv", "--g6", "C]")
        assert code == 2 and "exactly two" in err

    def test_json_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "quotient", "2,1", "--json")
        assert code == 0 and json.loads(out)["partition"] == "2,1"
        code, out, _ = run(capsys, "quotient", "2,1")
        assert code == 0 and out.startswith("partition: 2,1\n")

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        # the span tracer rebinds cli.cmd_* after the first calls
        assert run(capsys, "charpoly", "3,2,1")[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_charpoly", lambda args: seen.append(args.partition) or 0)
        assert run(capsys, "charpoly", "2,1") == (0, "", "")
        assert seen == ["2,1"]


class TestParserPerCall:
    """main builds the parser of the command it runs, afresh every call."""

    def test_build_parser_holds_every_command(self):
        # the benchmark's setup snippet and --help build the full parser
        (sub,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == [
            "charpoly",
            "spectrum",
            "bound",
            "quotient",
            "search",
            "verify",
            "switch-equiv",
        ]
        assert list(cli.COMMANDS) == list(sub.choices)

    @staticmethod
    def spy(monkeypatch) -> list:
        """Record each subparser added, by name and weak reference."""
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spying(self, name, **kwargs):
            parser = add_parser(self, name, **kwargs)
            added.append((name, weakref.ref(parser)))
            return parser

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spying)
        return added

    def test_one_subparser_per_call(self, capsys, monkeypatch):
        added = self.spy(monkeypatch)
        assert run(capsys, "spectrum", "3,2,1")[0] == 0
        assert [name for name, _ in added] == ["spectrum"]
        assert run(capsys, "spectrum", "3,2,1")[0] == 0
        assert [name for name, _ in added] == ["spectrum", "spectrum"]
        # no call's parser outlives it
        gc.collect()
        assert [ref() for _, ref in added] == [None, None]

    @pytest.mark.parametrize(
        "argv", [(), ("--help",), ("bogus",), ("--json", "charpoly", "3,2")], ids=str
    )
    def test_other_first_arguments_build_every_command(self, capsys, monkeypatch, argv):
        added = self.spy(monkeypatch)
        assert run(capsys, *argv)[0] in (0, 2)
        assert [name for name, _ in added] == list(cli.COMMANDS)


def dumped(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def streamed_and_listed(payload):
    """Two views of one payload: the first hands on each iterator's items
    one at a time, as the original iterator does, and records them; the
    second holds the recorded items in lists, filled as the first is
    written."""
    if isinstance(payload, dict):
        views = {key: streamed_and_listed(value) for key, value in payload.items()}
        return (
            {key: streamed for key, (streamed, _) in views.items()},
            {key: held for key, (_, held) in views.items()},
        )
    if isinstance(payload, (list, tuple)):
        views = [streamed_and_listed(value) for value in payload]
        return type(payload)(s for s, _ in views), [h for _, h in views]
    if isinstance(payload, Iterator):
        held = []

        def stream():
            for item in payload:
                streamed, item_held = streamed_and_listed(item)
                held.append(item_held)
                yield streamed

        return stream(), held
    return payload, payload


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=30,
)


class TestJsonWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ("charpoly", "3,2,1", "--form", "all", "--json"),
            ("charpoly", "64", "--form", "all", "--json"),
            ("spectrum", "17,16,10,8,4,4,3,2", "--json"),
            ("bound", "2*3", "--json"),
            ("quotient", "3,2,1", "--json"),
            ("search", "--n", "12", "--json"),
            ("search", "--n", "13", "--k", "3", "--json"),
            ("search", "--n", "1", "--json"),
            ("verify", "--suite", "closedform", "--max-n", "6", "--json"),
            ("verify", "--suite", "switching", "--json"),
            ("switch-equiv", "--g6", "C]", "--g6", "C?", "--json"),
            ("switch-equiv", "--g6", "DCO", "--g6", "D??", "--json"),
            ("switch-equiv", "--g6", "C]", "--g6", "D??", "--json"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_every_command_prints_json_dumps(self, capsys, monkeypatch, argv):
        # the payload each command hands the writer, dumped by json itself;
        # the writer still takes a search's classes as an iterator, whose
        # items are recorded as they are written
        payloads = []
        write = cli._print_json

        def recorded(payload):
            streamed, held = streamed_and_listed(payload)
            payloads.append((payload, held))
            write(streamed)

        monkeypatch.setattr(cli, "_print_json", recorded)
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1)
        assert len(payloads) == 1
        payload, held = payloads[0]
        assert isinstance(payload.get("classes"), Iterator) == (argv[0] == "search")
        assert out == dumped(held)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            {"a": [], "b": {}, "c": [[], {}], "d": {"e": {"f": []}}},
            [[], [[]], {}, [{}], {"g": [{}]}],
            ["a", 1, -2, 10**40, 1.5, -0.0, 1e300, True, False, None, {"h": "i"}, ["j"]],
            {"k": "l", "m": "n"},
            {"o": "p", "q": 1},
            ["only", "strings"],
            ("a", "tuple"),
            ["a", ("nested", ["tuple"])],
            {"ünïcødé ☃ 𝄞": ["ünïcødé ☃ 𝄞", "日本語"]},
            ['"quoted"', "back\\slash", "\\\"", "/"],
            {"ctl\x00": ["\x00\x01\x1f", "\n\r\t\b\f", "\x7f", "\u2028\u2029"]},
            "top-level string",
            12,
            -3.25,
            True,
            None,
            [float("inf"), float("-inf"), float("nan")],
        ],
    )
    def test_synthetic_payloads(self, capsys, payload):
        cli._print_json(payload)
        assert capsys.readouterr().out == dumped(payload)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: iter(()),
            lambda: (c for c in ()),
            lambda: {"empty": (c for c in ()), "after": 1},
            lambda: (s for s in ["a", "ünï☃", '"q"', ""]),
            lambda: {"strings": map(str, range(3))},
            lambda: ({"i": str(i), "sq": [i * i], "odd": bool(i % 2)} for i in range(4)),
            lambda: {"dicts": ({"n": i, "e": {}} for i in range(3)), "tail": []},
            lambda: ((str(j) for j in range(i)) for i in range(4)),
            lambda: [({"x": (y for y in "ab")} for _ in range(2)), (c for c in ())],
            lambda: (i for i in [None, True, 1.5, -(10**40), "s", ["l"], ("t",)]),
        ],
        ids=[
            "empty-iter",
            "empty-generator",
            "empty-generator-in-dict",
            "generator-of-strings",
            "map-of-strings",
            "generator-of-dicts",
            "generator-of-dicts-in-dict",
            "nested-generators",
            "generators-in-list",
            "generator-of-mixed",
        ],
    )
    def test_iterator_payloads(self, capsys, make):
        # any iterator is written as a list, one item at a time
        streamed, held = streamed_and_listed(make())
        cli._print_json(streamed)
        assert capsys.readouterr().out == dumped(held)

    def test_iterator_items_are_written_as_taken(self, monkeypatch):
        # a long generator is taken an item at a time: the pieces of its
        # first items are written before its last item is made
        writes, made = [], []
        monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": lambda self, s: writes.append(s)})())
        count = 4 * cli._WRITE_PIECES

        def items():
            for i in range(count):
                made.append(len(writes))
                yield str(i)

        cli._print_json({"items": items()})
        assert made[0] == 0
        assert made[-1] > 0
        assert "".join(writes) == dumped({"items": list(map(str, range(count)))})

    @settings(max_examples=200, deadline=None)
    @given(payload=json_values)
    def test_any_json_value(self, payload):
        out = []
        stdout = sys.stdout
        sys.stdout = type("Sink", (), {"write": lambda self, s: out.append(s)})()
        try:
            cli._print_json(payload)
        finally:
            sys.stdout = stdout
        assert "".join(out) == dumped(payload)

    def test_search_is_written_in_pieces(self, monkeypatch):
        # 4.5 MB of JSON, written a few hundred pieces at a time: a writer
        # that joined the whole text would make one write of all of it
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": lambda self, s: writes.append(s)})())
        assert main(["search", "--n", "30", "--json"]) == 0
        text = "".join(writes)
        assert len(text) > 4_000_000
        assert max(map(len, writes)) <= 1_000_000
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0fab0be696ab7b8ca6f003c180306c6bebc5a8840db33b6d8332f2229abda065"
        )

    def test_search_json_holds_one_chunk(self, monkeypatch):
        # the classes are expanded and written a chunk at a time, so the
        # 4.5 MB report is never held whole: the traced peak was 21.4 MiB
        # when the payload listed every class before the first write, and
        # is about 8.6 MiB streamed
        monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": lambda self, s: len(s)})())
        tracemalloc.start()
        try:
            code = main(["search", "--n", "30", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 14 << 20


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha256("")
# exit code and SHA-256 of stdout and of stderr at COLUMNS=80 for help,
# usage and parse errors, recorded when every call built all seven
# subparsers (CPython 3.11)
USAGE_TEXT = [
    ((), 2, EMPTY, "95c8db067b7cbdb1841e9e1533f4eeb77edbebfdfdea6063435e569f81ed46c0"),
    (("-h",), 0, "c0630c175377539ea74b43698d3b889b5e3663fe06246fcb1fc7e82fdbb01bdf", EMPTY),
    (("--help",), 0, "c0630c175377539ea74b43698d3b889b5e3663fe06246fcb1fc7e82fdbb01bdf", EMPTY),
    (("bogus",), 2, EMPTY, "57c65f476380d49523d364d5123792d66ea974f9eed8370b03d28fc428c5d34f"),
    (
        ("--json", "charpoly", "3,2"),
        2,
        EMPTY,
        "a4c9279a1d581c878b82f8c0c934e6794aec9f87cb554582135b5e45a3e352ab",
    ),
    (
        ("charpoly", "-h"),
        0,
        "7e8891e6a9df758812a2f3c0d68a363bc7adaff43d25b32a46b8949af864b881",
        EMPTY,
    ),
    (
        ("spectrum", "-h"),
        0,
        "e2bcf1a1a226bc9f253a709d65f8eb70be451dbf676c7da3fed4255cd7bfd26f",
        EMPTY,
    ),
    (("bound", "-h"), 0, "3aeed69174702d99a26e052653f2ceae472d3c967fd2eab3e474f771ba9bfcd0", EMPTY),
    (
        ("quotient", "-h"),
        0,
        "d137e766f0ab6aea8e5d85ebb8a708971468290501d44099d9934bd8a1ff5962",
        EMPTY,
    ),
    (
        ("search", "-h"),
        0,
        "d514da4dabc74169db06fa77c7cab072b319911b28482f78748dbe067db22e5d",
        EMPTY,
    ),
    (
        ("verify", "-h"),
        0,
        "924aabdbb7316bcb2a4071751aabd39a06fbd2295e5b940948772f913142111c",
        EMPTY,
    ),
    (
        ("switch-equiv", "-h"),
        0,
        "dcd7ffc04e089b77b6f99ed8b77e7364105c4beaa94b31d41138ec5af12a3939",
        EMPTY,
    ),
    (("charpoly",), 2, EMPTY, "5cff310cf4e9d9192fbcd5a48bf4cf66fc3bc4a13554d8fd8ffc4994d0e6f059"),
    (("spectrum",), 2, EMPTY, "72725c939bcf26b4b1c7dc4465f4685a2fd64358bb5dffdadb070c27fe01df19"),
    (("search",), 2, EMPTY, "a5475fcdede18653c48ac195ff5f50537d947eadc8560d09c89ec9253d62577c"),
    (
        ("charpoly", "3,2", "extra"),
        2,
        EMPTY,
        "cb0f30fa2c4b789640143827f3de7764c97269392bf41a86a968a491fbde4ba9",
    ),
    (
        ("quotient", "3,2", "--bogus"),
        2,
        EMPTY,
        "7154f35d07d902dd5799fd2e31aa09cf5a734ff3877b91d26d4a135eef884cee",
    ),
    (
        ("charpoly", "3,2", "--form", "nope"),
        2,
        EMPTY,
        "573c95894f39c1a2478e436b619a70657803f1dc0151464074d79603ccf78e06",
    ),
    (
        ("verify", "--suite", "zzz"),
        2,
        EMPTY,
        "549bbe804921f4e71c7d67e5b60cccbd51a2d16029c83ba3a7a825ad02716fd5",
    ),
    (
        ("search", "--n", "x"),
        2,
        EMPTY,
        "986ce484b9eb93a7c79adcc31bec1619e86068756b8dea51e0b4b3dfc25e3693",
    ),
]
USAGE_IDS = [" ".join(argv) or "no-arguments" for argv, *_ in USAGE_TEXT]


class TestUsage:
    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="recorded on CPython 3.11; argparse's wording differs between minor releases",
    )
    @pytest.mark.parametrize("argv, code, out_digest, err_digest", USAGE_TEXT, ids=USAGE_IDS)
    def test_usage_text_pinned(self, capsys, monkeypatch, argv, code, out_digest, err_digest):
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = run(capsys, *argv)
        assert (got, sha256(out), sha256(err)) == (code, out_digest, err_digest)

    @pytest.mark.parametrize("argv", [argv for argv, *_ in USAGE_TEXT], ids=USAGE_IDS)
    def test_usage_text_matches_full_parser(self, capsys, monkeypatch, argv):
        # the parser a call builds prints what the parser of all seven
        # commands prints, on any Python
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        full = capsys.readouterr()
        assert run(capsys, *argv) == (exc.value.code or 0, full.out, full.err)

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_plain_value_error_propagates(self, monkeypatch):
        # only typed errors are usage errors; a plain ValueError is a bug
        def broken(n, k=None):
            raise ValueError("internal bug")

        monkeypatch.setattr("seidelspec.cli.verify_shared_part_property", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["search", "--n", "5"])
