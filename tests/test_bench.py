import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import sparsemm.bench as bench_module
import sparsemm.kernels as kernels_module
from sparsemm_helpers import SRC, VirtualClock
from sparsemm.bench import (
    CSV_HEADER,
    KERNEL_NAMES,
    BenchRecord,
    emit_csv,
    parse_csv,
    parse_sizes,
    run_grid,
    time_kernel,
)
from sparsemm.formats import CsrMatrix
from sparsemm.genmat import GenSpec, gen_random_k, generate
from sparsemm.kernels import StrategyKind, multiply_rowmajor
from sparsemm.mtxio import load_matrix_market
from sparsemm.perfmodel import count_mults

# one one-call batch per cell: the first batch already takes more than 0 s
QUICK = {"min_total_seconds": 0, "trials": 1}
QUICK_FLAGS = ["--min-seconds", "0", "--trials", "1"]


def untimed(records) -> list:
    """The records with both timings zeroed, for comparing every other field."""
    return [replace(r, best_seconds=0.0, mflops=0.0) for r in records]


def bounded_work(limit=1000):
    """Work that fails once called more than ``limit`` times, so a
    calibration that would never stop fails instead."""
    calls = []

    def work():
        calls.append(None)
        assert len(calls) <= limit, "calibration does not stop"
    return work


class TestTimeKernelProtocol:
    def test_calibration_trials_and_minimum(self):
        # per-invocation wall time: 1 ms during calibration, then one value
        # per trial batch so the minimum is distinguishable
        trial_dts = [0.001, 0.0008, 0.0012, 0.0009, 0.001]
        clock = VirtualClock(0.001)
        calls = []

        def work():
            call = len(calls)
            calls.append(None)
            if call < 4095:  # 1 + 2 + ... + 2048 calibration invocations
                clock.advance(0.001)
            else:
                clock.advance(trial_dts[(call - 4095) // 2048])

        result = time_kernel(work, flops=72, clock=clock.read)
        assert result.inner_iters == 2048
        # the calibrated batch provably accumulates more than two seconds
        assert result.inner_iters * 0.001 > 2.0
        # five full trial batches ran after calibration
        assert len(calls) == 4095 + 5 * 2048
        # the best (minimum) per-invocation time is reported
        assert result.best_seconds == pytest.approx(0.0008, rel=1e-9)
        assert result.mflops == pytest.approx(72 / 0.0008 / 1e6, rel=1e-9)

    def test_slow_work_keeps_inner_iterations_at_one(self):
        clock = VirtualClock(3.0)
        calls = []

        def work():
            calls.append(None)
            clock.advance()

        result = time_kernel(work, flops=10, clock=clock.read)
        assert result.inner_iters == 1
        assert len(calls) == 1 + 5
        assert result.best_seconds == pytest.approx(3.0)

    def test_trial_count_is_configurable_but_at_least_one(self):
        clock = VirtualClock(2.5)
        result = time_kernel(lambda: clock.advance(), flops=10,
                             clock=clock.read, trials=9)
        assert result.best_seconds == pytest.approx(2.5)
        with pytest.raises(ValueError):
            time_kernel(lambda: None, flops=1, trials=0)

    def test_virtual_clock_rejects_non_positive_tick(self):
        for tick in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tick must be positive and finite"):
                VirtualClock(tick)

    def test_stuck_clock_fails_after_a_batch_of_2_to_the_20_calls(self):
        # calibration reaches a 2**20-call batch after 2**20 - 1 calls
        work = bounded_work(1 << 22)
        with pytest.raises(RuntimeError, match="clock does not advance"):
            time_kernel(work, flops=1, clock=lambda: 0.0, min_total_seconds=0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_minimum_is_rejected(self, bound):
        # no batch exceeds such a bound, so calibration would never stop
        with pytest.raises(ValueError, match="min_total_seconds must be finite"):
            time_kernel(bounded_work(), flops=1, clock=VirtualClock(1.0).read,
                        min_total_seconds=bound)

    def test_minimum_above_one_day_is_rejected(self):
        # on a working clock calibration would double its batch for ages
        with pytest.raises(ValueError, match="at most 86400, got 86400.5"):
            time_kernel(bounded_work(), flops=1, min_total_seconds=86400.5)


class TestCsv:
    record = BenchRecord(case="fd[n=64]", family="fd", n=64, kernel="rowmajor",
                         strategy="combined", seed=7, inner_iters=4,
                         best_seconds=4.8828125e-4, mflops=123.456789)

    def test_empty_records_give_header_only(self):
        assert emit_csv([]) == CSV_HEADER + "\n"

    def test_one_record_two_lines_nine_fields(self):
        text = emit_csv([self.record])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert len(lines[1].split(",")) == 9

    def test_best_seconds_scientific_six_significant_digits(self):
        line = emit_csv([self.record]).splitlines()[1]
        assert line.split(",")[7] == "4.88281e-04"

    def test_round_trip_recovers_records(self):
        text = emit_csv([self.record])
        parsed = parse_csv(text)
        assert len(parsed) == 1
        assert parsed[0].case == self.record.case
        assert parsed[0].n == self.record.n
        assert parsed[0].inner_iters == self.record.inner_iters
        # a second emit of the parsed records reproduces the text exactly
        assert emit_csv(parsed) == text

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_csv("nope\n1,2,3\n")


class TestParseSizes:
    def test_comma_list(self):
        assert parse_sizes("64,128,256") == [64, 128, 256]

    def test_single_value(self):
        assert parse_sizes("512") == [512]

    def test_log_spaced_range(self):
        assert parse_sizes("64:1024:x2") == [64, 128, 256, 512, 1024]

    def test_non_integer_factor(self):
        sizes = parse_sizes("100:1000:x3.16")
        assert sizes[0] == 100
        assert sizes[-1] <= 1000
        assert sizes == sorted(set(sizes))

    def test_rejects_bad_specs(self):
        for spec in ("64:16:x2", "64:128:2", "", ","):
            with pytest.raises(ValueError):
                parse_sizes(spec)

    @pytest.mark.parametrize("spec", ["64:4096:xinf", "64:4096:xnan", "0", "64,-1"])
    def test_rejects_non_finite_factors_and_sizes_below_one(self, spec):
        with pytest.raises(ValueError):
            parse_sizes(spec)

    def test_factor_overflowing_to_infinity_ends_the_range(self):
        assert parse_sizes("64:4096:x1e308") == [64]

    @pytest.mark.parametrize("spec", ["64:4096:xinf", "64:4096:xnan", "64:4096:2", "0", "", ",",
                                  "1:2:x1.0000000000000002"])
    def test_cli_reports_bad_spec_as_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_module.main(["run", "--sizes", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("sparsemm-bench run: error: argument --sizes: ")
        assert err[-1].endswith(repr(spec))
        assert not any("Traceback" in line for line in err)


class TestRunGrid:
    def test_single_cell_gives_single_record(self):
        records = run_grid(["fd"], ["rowmajor"], [StrategyKind.COMBINED],
                           [64], seed=3, **QUICK)
        assert len(records) == 1
        rec = records[0]
        assert (rec.case, rec.family, rec.n) == ("fd[n=64]", "fd", 64)
        assert (rec.kernel, rec.strategy, rec.seed) == ("rowmajor", "combined", 3)
        assert rec.best_seconds > 0
        assert rec.mflops > 0

    @pytest.mark.parametrize("strategies", [
        [], [StrategyKind.SORT], [StrategyKind.SORT, StrategyKind.COMBINED]])
    def test_classic_runs_one_strategyless_cell_per_family_and_size(self, strategies):
        records = run_grid(["fd", "random"], ["classic"], strategies, [16, 25], seed=0,
                           **QUICK)
        assert [(r.family, r.n, r.kernel, r.strategy) for r in records] == [
            ("fd", 16, "classic", "none"), ("fd", 25, "classic", "none"),
            ("random", 16, "classic", "none"), ("random", 25, "classic", "none")]

    @pytest.mark.parametrize("kernel, strategies, message", [
        ("rowmajor", [], "kernel 'rowmajor' needs a storing strategy"),
        ("mixed", [], "kernel 'mixed' needs a storing strategy"),
        ("bogus", [StrategyKind.SORT], "unknown kernel 'bogus'"),
        ("colmajor", [None], "None is not a valid StrategyKind"),
    ])
    def test_bad_cell_raises_before_any_operand_is_generated(
            self, monkeypatch, kernel, strategies, message):
        calls = []

        def counting_generate(spec):
            calls.append(spec)
            return generate(spec)

        monkeypatch.setattr(bench_module, "generate", counting_generate)
        with pytest.raises(ValueError, match=message):
            run_grid(["fd"], ["classic", kernel], strategies, [16], seed=0)
        assert calls == []

    def test_repeated_inputs_count_once(self):
        records = run_grid(["fd", "random", "fd"], ["rowmajor", "classic", "rowmajor"],
                           [StrategyKind.SORT, "sort", StrategyKind.MIN_MAX],
                           [16, 25, 16], seed=0, **QUICK)
        assert [(r.family, r.n, r.kernel, r.strategy) for r in records] == [
            (family, n, kernel, strategy)
            for family in ("fd", "random") for n in (16, 25)
            for kernel, strategy in (("rowmajor", "sort"), ("rowmajor", "minmax"),
                                     ("classic", "none"))]

    def test_grid_is_deterministic_apart_from_timings(self):
        grid = (["fd", "random"], ["rowmajor", "mixed"],
                [StrategyKind.COMBINED], [16, 25])
        first = run_grid(*grid, seed=11, **QUICK)
        second = run_grid(*grid, seed=11, **QUICK)
        assert untimed(first) == untimed(second)
        assert len(first) == 8
        assert {r.inner_iters for r in first} == {1}

    def test_verify_accepts_all_kernels(self):
        records = run_grid(["random"], ["classic", "rowmajor", "colmajor", "mixed"],
                           [StrategyKind.MIN_MAX], [24], seed=5, verify=True, **QUICK)
        assert [(r.kernel, r.strategy) for r in records] == [
            ("classic", "none"), ("rowmajor", "minmax"),
            ("colmajor", "minmax"), ("mixed", "minmax")]

    def test_operands_are_generated_once_per_family_and_size(self, monkeypatch, capsys):
        calls = []

        def counting_generate(spec):
            calls.append((spec.family, spec.n, spec.seed))
            return generate(spec)

        monkeypatch.setattr(bench_module, "generate", counting_generate)
        assert bench_module.main(["run", "--case", "fd", "random", "--kernel", *KERNEL_NAMES,
                                  "--strategy", "sort", "combined", "--sizes", "16,25",
                                  "--seed", "4", *QUICK_FLAGS]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == 2 * 2 * 7
        # fd multiplies its one operand by itself, random draws B at seed + 1
        assert calls == [("fd", 16, 4), ("fd", 25, 4),
                         ("random", 16, 4), ("random", 16, 5),
                         ("random", 25, 4), ("random", 25, 5)]

    def test_verify_builds_each_reference_once_per_family_and_size(self, monkeypatch):
        calls = {"per-row": 0, "dense": 0}

        def counting(kind, real):
            def call(*args, **kwargs):
                calls[kind] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(bench_module, "rowmajor_reference",
                            counting("per-row", bench_module.rowmajor_reference))
        monkeypatch.setattr(bench_module, "dense_multiply_reference",
                            counting("dense", bench_module.dense_multiply_reference))
        records = run_grid(["fd", "random"], ["classic", "rowmajor", "colmajor"],
                           [StrategyKind.MIN_MAX, StrategyKind.SORT],
                           [16, 25], seed=2, verify=True, **QUICK)
        assert len(records) == 2 * 2 * 5
        assert calls == {"per-row": 4, "dense": 4}

    def test_fd_sizes_snap_to_square_dimensions(self):
        # 60 and 64 snap to one 8 x 8 grid, which is measured once
        records = run_grid(["fd"], ["rowmajor"], [StrategyKind.SORT],
                           [60, 64, 16, 16], seed=0, **QUICK)
        assert [r.n for r in records] == [64, 16]

    def test_verify_rejects_a_product_one_ulp_off(self):
        a, b = gen_random_k(24, 5, 1), gen_random_k(24, 5, 2)
        references = bench_module._references(a, b)
        assert [what for what, _ in references] == ["the per-row reference",
                                                    "the dense reference"]
        product = multiply_rowmajor(a, b)
        bench_module._verify_cell(product, references, "exact")
        values = product.values.copy()
        values[7] = np.nextafter(values[7], np.inf)
        off = CsrMatrix.from_arrays(24, 24, product.row_ptr, product.col_idx, values)
        # each reference on its own catches the one-ulp error
        for what, reference in references:
            bench_module._verify_cell(product, [(what, reference)], "exact")
            with pytest.raises(RuntimeError, match=f"off disagrees with {what}"):
                bench_module._verify_cell(off, [(what, reference)], "off")

    def test_verify_catches_a_block_product_one_ulp_off_above_the_oracle_limit(
            self, monkeypatch):
        # fd at n = 1024 is past ORACLE_LIMIT, so only the per-row reference
        # checks it
        def one_ulp_off(a, b, strategy, stats=None):
            product = multiply_rowmajor(a, b, strategy, stats)
            values = product.values.copy()
            values[100] = np.nextafter(values[100], np.inf)
            return CsrMatrix.from_arrays(product.rows, product.cols, product.row_ptr,
                                         product.col_idx, values)

        monkeypatch.setattr(bench_module, "multiply_rowmajor", one_ulp_off)
        with pytest.raises(RuntimeError, match=r"fd\[n=1024\]/rowmajor/combined "
                                               "disagrees with the per-row reference"):
            run_grid(["fd"], ["rowmajor"], [StrategyKind.COMBINED], [1024], seed=0,
                     verify=True)

    def test_verify_runs_each_cell_once_more_recording_stats(self, monkeypatch):
        # a product that goes wrong only while KernelStats are recorded, as
        # combined's pattern product runs only then
        def off_with_stats(a, b, strategy, stats=None):
            product = multiply_rowmajor(a, b, strategy, stats)
            if stats is None:
                return product
            values = product.values.copy()
            values[0] = np.nextafter(values[0], np.inf)
            return CsrMatrix.from_arrays(product.rows, product.cols, product.row_ptr,
                                         product.col_idx, values)

        monkeypatch.setattr(bench_module, "multiply_rowmajor", off_with_stats)
        with pytest.raises(RuntimeError, match=r"random\[n=24;k=5\]/rowmajor/combined with "
                                               "KernelStats disagrees with the per-row"):
            run_grid(["random"], ["rowmajor"], [StrategyKind.COMBINED], [24], seed=0,
                     verify=True, **QUICK)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_verify_checks_the_recorded_multiplications(self, kernel, monkeypatch):
        def one_too_many(real):
            def call(*args):
                product = real(*args)
                if args[-1] is not None:  # the KernelStats being recorded
                    args[-1].multiplications += 1
                return product
            return call

        for name in ("multiply_classic", "multiply_rowmajor", "multiply_colmajor",
                     "multiply_mixed"):
            monkeypatch.setattr(bench_module, name, one_too_many(getattr(bench_module, name)))
        a = generate(GenSpec(family="fd", n=16))
        want = count_mults(a, a).multiplications
        with pytest.raises(RuntimeError, match=rf"fd\[n=16\]/{kernel}/\w+ counted {want + 1} "
                                               rf"multiplications, not {want}$"):
            run_grid(["fd"], [kernel], [StrategyKind.SORT], [16], seed=0, verify=True,
                     **QUICK)

    @pytest.mark.parametrize("kernel", ["rowmajor", "colmajor", "mixed"])
    @pytest.mark.parametrize("family, label", [("random", r"random\[n=64;k=5\]"),
                                               ("fd", r"fd\[n=64\]")])
    def test_verify_checks_the_recorded_row_choices(self, kernel, family, label, monkeypatch):
        # a block kernel whose record of combined's rule names the other
        # mechanism for every row, its products still right: fd's rows all
        # sort and random's all scan
        row_choices = kernels_module._row_choices
        other = {StrategyKind.SORT: StrategyKind.MIN_MAX, StrategyKind.MIN_MAX: StrategyKind.SORT}

        def flipped(plan):
            return [(row, other[choice]) for row, choice in row_choices(plan)]

        monkeypatch.setattr(kernels_module, "_row_choices", flipped)
        with pytest.raises(RuntimeError, match=rf"{label}/{kernel}/combined recorded "
                                               "row_choices that disagree"):
            run_grid([family], [kernel], [StrategyKind.COMBINED], [64], seed=0, verify=True,
                     **QUICK)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("corruption", ["drop a block", "flip a mechanism"])
    def test_verify_checks_the_recorded_blocks(self, kernel, corruption, monkeypatch):
        # a block kernel whose record loses its middle block, or names the
        # other mechanism for it, its products still right
        other = {"scan": "sort", "sort": "scan"}

        def corrupting(real):
            def call(*args):
                product = real(*args)
                if args[-1] is not None:  # the KernelStats being recorded
                    blocks = args[-1].blocks
                    middle = len(blocks) // 2
                    if corruption == "drop a block":
                        del blocks[middle]
                    else:
                        blocks[middle] = blocks[middle]._replace(
                            mechanism=other[blocks[middle].mechanism])
                return product
            return call

        for name in ("multiply_classic", "multiply_rowmajor", "multiply_colmajor",
                     "multiply_mixed"):
            monkeypatch.setattr(bench_module, name, corrupting(getattr(bench_module, name)))
        with pytest.raises(RuntimeError, match=rf"fd\[n=64\]/{kernel}/\w+ recorded blocks "
                                               "that do not tile its 64 majors"):
            run_grid(["fd"], [kernel], [StrategyKind.COMBINED], [64], seed=0, verify=True,
                     **QUICK)

    @pytest.mark.parametrize("family, references", [("fd", 1), ("random", 2)])
    def test_verify_runs_the_per_row_reference_once_per_pattern(self, family, references,
                                                                 monkeypatch):
        # fd multiplies its symmetric stencil by itself, so colmajor's record,
        # of b^T a^T, is rowmajor's; random's operands differ and need both
        calls = []

        def counting(*args):
            calls.append(args[2])
            return kernels_module.rowmajor_reference(*args)

        monkeypatch.setattr(bench_module, "rowmajor_reference", counting)
        run_grid([family], ["rowmajor", "colmajor", "mixed"], [StrategyKind.COMBINED], [64],
                 seed=0, verify=True, **QUICK)
        assert calls == [StrategyKind.COMBINED] * references

    @pytest.mark.parametrize("kernel, strategy", [("classic", "none"), ("rowmajor", "sort"),
                                                  ("colmajor", "minmax"), ("mixed", "bfbool")])
    def test_verify_rejects_row_choices_outside_combined(self, kernel, strategy, monkeypatch):
        def recording_a_choice(real):
            def call(*args):
                product = real(*args)
                if args[-1] is not None:  # the KernelStats being recorded
                    args[-1].row_choices.append((0, StrategyKind.SORT))
                return product
            return call

        for name in ("multiply_classic", "multiply_rowmajor", "multiply_colmajor",
                     "multiply_mixed"):
            monkeypatch.setattr(bench_module, name,
                                recording_a_choice(getattr(bench_module, name)))
        with pytest.raises(RuntimeError, match=rf"fd\[n=16\]/{kernel}/{strategy} recorded "
                                               "row_choices"):
            run_grid(["fd"], [kernel], [strategy if kernel != "classic" else "sort"], [16],
                     seed=0, verify=True, **QUICK)


def run_cli(args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "sparsemm.bench", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def readme_commands() -> list:
    """The arguments of every ``sparsemm-bench`` command in the README's
    ``sh`` blocks, continuation lines joined and split as a shell would."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["sparsemm-bench"]:
                commands.append(words[1:])
    return commands


class TestCli:
    def test_run_emits_parseable_deterministic_csv(self, tmp_path):
        out = tmp_path / "records.csv"
        args = ["run", "--case", "fd", "--kernel", "rowmajor", "--strategy",
                "sort", "--sizes", "16,36", "--seed", "9", "--csv", str(out), *QUICK_FLAGS]
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr
        first = parse_csv(out.read_text())
        assert [(r.case, r.n, r.inner_iters) for r in first] == [
            ("fd[n=16]", 16, 1), ("fd[n=36]", 36, 1)]
        proc = run_cli(args)
        assert proc.returncode == 0
        assert untimed(parse_csv(out.read_text())) == untimed(first)

    def test_run_verify_passes_on_small_case(self):
        proc = run_cli(["run", "--case", "random", "--kernel", "mixed",
                        "--strategy", "combined", "--sizes", "16", "--verify",
                        *QUICK_FLAGS])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == CSV_HEADER

    def test_classic_kernel_maps_to_strategyless_cell(self):
        proc = run_cli(["run", "--case", "fd", "--kernel", "classic",
                        "--strategy", "combined", "--sizes", "16", *QUICK_FLAGS])
        assert proc.returncode == 0, proc.stderr
        records = parse_csv(proc.stdout)
        assert [(r.kernel, r.strategy) for r in records] == [("classic", "none")]

    @pytest.mark.parametrize("extra, flag", [
        (["--strategy", "none"], "argument --strategy: invalid choice: 'none'"),
        (["--strict"], "unrecognized arguments: --strict"),
    ])
    def test_none_strategy_and_strict_are_usage_errors(self, extra, flag):
        proc = run_cli(["run", "--case", "fd", "--kernel", "classic", "--sizes", "16",
                        *QUICK_FLAGS, *extra])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert flag in proc.stderr.splitlines()[-1]
        assert "Traceback" not in proc.stderr

    def test_each_kernel_gets_its_cells(self):
        # classic runs only its strategy-less cell, rowmajor only the
        # storing strategies
        proc = run_cli(["run", "--case", "fd", "--kernel", "classic", "rowmajor",
                        "--strategy", "combined", "--sizes", "16", *QUICK_FLAGS])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        records = parse_csv(proc.stdout)
        assert [(r.kernel, r.strategy) for r in records] == [
            ("classic", "none"), ("rowmajor", "combined")]

    def test_repeated_kernel_and_strategy_give_each_row_once(self):
        proc = run_cli(["run", "--case", "fd", "--kernel", "rowmajor", "classic",
                        "rowmajor", "--strategy", "sort", "sort", "--sizes", "16",
                        *QUICK_FLAGS])
        assert proc.returncode == 0, proc.stderr
        records = parse_csv(proc.stdout)
        assert [(r.case, r.kernel, r.strategy) for r in records] == [
            ("fd[n=16]", "rowmajor", "sort"), ("fd[n=16]", "classic", "none")]

    @pytest.mark.parametrize("argv, message", [
        (["run", "--case", "random", "--k", "0"], "argument --k: must be at least 1, got '0'"),
        (["run", "--case", "fill", "--fill", "2"], "argument --fill: need 0 < fill <= 1, got '2'"),
        (["run", "--trials", "0"], "argument --trials: must be at least 1, got '0'"),
        (["gen", "--case", "fd", "--size", "0", "--out", "unused.mtx"],
         "argument --size: must be at least 1, got '0'"),
        (["run", "--min-seconds", "nan"],
         "argument --min-seconds: need seconds from 0 to 86400, got 'nan'"),
        (["run", "--min-seconds", "inf"],
         "argument --min-seconds: need seconds from 0 to 86400, got 'inf'"),
        (["run", "--min-seconds", "-1"],
         "argument --min-seconds: need seconds from 0 to 86400, got '-1'"),
        (["run", "--sizes", "16", "--trials", "1", "--min-seconds", "1e300"],
         "argument --min-seconds: need seconds from 0 to 86400, got '1e300'"),
        (["gen", "--case", "random", "--size", "4", "--k", "9", "--out", "unused.mtx"],
         "argument --k: must be at most --size (4) for the random family, got 9"),
        (["model", "--peak", "nan", "--bandwidth", "1", "--balance", "1"],
         "--peak, --bandwidth and --balance must all be positive"),
        (["model", "--peak", "1", "--bandwidth", "0", "--balance", "1"],
         "--peak, --bandwidth and --balance must all be positive"),
        (["run", "--sizes", "16", "--csv", "missing/x.csv"],
         "argument --csv: can't open 'missing/x.csv': No such file or directory"),
        (["gen", "--case", "fd", "--size", "4", "--out", "missing/x.mtx"],
         "argument --out: can't open 'missing/x.mtx': No such file or directory"),
    ])
    def test_bad_number_is_a_usage_error(self, argv, message, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(bench_module, "generate", None)  # must not be reached
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            bench_module.main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"sparsemm-bench {argv[0]}: error: {message}"
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, grid, kernel_cells", [
        pytest.param(
            ["--case", "fd", "random", "--kernel", *KERNEL_NAMES, "--strategy", "minmax",
             "sort", "--sizes", "16,25", "--seed", "3", "--verify"],
            (["fd", "random"], list(KERNEL_NAMES), ["minmax", "sort"], [16, 25], 3),
            [("classic", "none"), ("rowmajor", "minmax"), ("rowmajor", "sort"),
             ("colmajor", "minmax"), ("colmajor", "sort"), ("mixed", "minmax"),
             ("mixed", "sort")],
            id="every-kernel"),
        # the README's two Experiments commands, at small sizes
        pytest.param(
            ["--case", "fd", "--kernel", "rowmajor", "mixed", "colmajor", "classic",
             "--sizes", "16", "--seed", "42"],
            (["fd"], ["rowmajor", "mixed", "colmajor", "classic"], ["combined"], [16], 42),
            [("rowmajor", "combined"), ("mixed", "combined"), ("colmajor", "combined"),
             ("classic", "none")],
            id="kernel-comparison"),
        pytest.param(
            ["--case", "fill", "--kernel", "rowmajor", "--strategy", "minmax", "combined",
             "--sizes", "8:16:x2", "--fill", "0.001", "--seed", "42"],
            (["fill"], ["rowmajor"], ["minmax", "combined"], [8, 16], 42),
            [("rowmajor", "minmax"), ("rowmajor", "combined")],
            id="fill-sweep"),
    ])
    def test_run_gives_the_records_of_one_grid(self, argv, grid, kernel_cells):
        proc = run_cli(["run", *argv, *QUICK_FLAGS])
        assert proc.returncode == 0, proc.stderr
        records = run_grid(*grid, **QUICK)
        assert untimed(parse_csv(proc.stdout)) == untimed(records)
        # family, then size, then kernel, then strategy
        families, _, _, sizes, _ = grid
        assert [(r.family, r.n, r.kernel, r.strategy) for r in records] == [
            (family, n, kernel, strategy)
            for family in families for n in sizes for kernel, strategy in kernel_cells]

    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert len(commands) >= 6  # the harness section's four and the two experiments
        for argv in commands:
            bench_module.build_parser().parse_args(argv)  # SystemExit if one does not

    def test_model_reports_bound_and_binding_limb(self):
        proc = run_cli(["model", "--peak", "7.6e9", "--bandwidth", "60.8e9",
                        "--balance", "16"])
        assert proc.returncode == 0
        assert "3800 MFlop/s" in proc.stdout
        assert "memory-bound" in proc.stdout
        proc = run_cli(["model", "--peak", "1e9", "--bandwidth", "1e12",
                        "--balance", "16"])
        assert "1000 MFlop/s" in proc.stdout
        assert "compute-bound" in proc.stdout

    def test_gen_writes_loadable_matrix_market(self, tmp_path):
        out = tmp_path / "m.mtx"
        proc = run_cli(["gen", "--case", "random", "--size", "32",
                        "--seed", "5", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        m = load_matrix_market(out)
        assert m.rows == 32
        assert m.nnz == 160
