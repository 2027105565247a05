import os
import subprocess
import sys

import numpy as np
import pytest

import sparsemm.bench as bench_module
from sparsemm_helpers import SRC
from sparsemm.bench import (
    CLOCK_OVERRIDE_ENV,
    CSV_HEADER,
    BenchRecord,
    VirtualClock,
    emit_csv,
    parse_csv,
    parse_sizes,
    run_grid,
    time_kernel,
)
from sparsemm.formats import CsrMatrix
from sparsemm.genmat import gen_random_k
from sparsemm.kernels import StrategyKind, multiply_rowmajor
from sparsemm.mtxio import load_matrix_market


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

    def test_environment_override_installs_virtual_clock(self, monkeypatch):
        monkeypatch.setenv(CLOCK_OVERRIDE_ENV, "0.5")
        calls = []
        result = time_kernel(lambda: calls.append(None), flops=100)
        assert result.inner_iters == 8  # 8 * 0.5 s is the first batch > 2 s
        assert len(calls) == (1 + 2 + 4 + 8) + 5 * 8
        assert result.best_seconds == pytest.approx(0.5)
        assert result.mflops == pytest.approx(100 / 0.5 / 1e6)

    def test_virtual_clock_rejects_non_positive_tick(self):
        with pytest.raises(ValueError):
            VirtualClock(0.0)


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
        with pytest.raises(ValueError):
            parse_sizes("64:16:x2")
        with pytest.raises(ValueError):
            parse_sizes("64:128:2")

    @pytest.mark.parametrize("spec", ["64:4096:xinf", "64:4096:xnan", "0", "64,-1"])
    def test_rejects_non_finite_factors_and_sizes_below_one(self, spec):
        with pytest.raises(ValueError):
            parse_sizes(spec)

    def test_factor_overflowing_to_infinity_ends_the_range(self):
        assert parse_sizes("64:4096:x1e308") == [64]

    @pytest.mark.parametrize("spec", ["64:4096:xinf", "64:4096:xnan", "64:4096:2", "0"])
    def test_cli_reports_bad_spec_as_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_module.main(["run", "--sizes", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("sparsemm-bench run: error: argument --sizes: ")
        assert err[-1].endswith(repr(spec))
        assert not any("Traceback" in line for line in err)


class TestRunGrid:
    @pytest.fixture(autouse=True)
    def fast_clock(self, monkeypatch):
        monkeypatch.setenv(CLOCK_OVERRIDE_ENV, "0.7")

    def test_single_cell_gives_single_record(self):
        result = run_grid(["fd"], ["rowmajor"], [StrategyKind.COMBINED],
                          [64], seed=3)
        assert len(result.records) == 1
        assert result.skipped == []
        rec = result.records[0]
        assert (rec.case, rec.family, rec.n) == ("fd[n=64]", "fd", 64)
        assert (rec.kernel, rec.strategy, rec.seed) == ("rowmajor", "combined", 3)
        assert rec.best_seconds > 0
        assert rec.mflops > 0

    def test_classic_with_strategy_is_skipped_with_diagnostic(self):
        result = run_grid(["fd"], ["classic"], [StrategyKind.SORT], [16], seed=0)
        assert result.records == []
        assert len(result.skipped) == 1
        assert "strategy" in result.skipped[0].reason

    def test_scatter_kernel_without_strategy_is_skipped(self):
        result = run_grid(["fd"], ["rowmajor"], [None], [16], seed=0)
        assert result.records == []
        assert len(result.skipped) == 1

    def test_classic_without_strategy_runs(self):
        result = run_grid(["random"], ["classic"], [None], [16], seed=0)
        assert len(result.records) == 1
        assert result.records[0].strategy == "none"

    def test_grid_is_deterministic_under_the_virtual_clock(self):
        grid = (["fd", "random"], ["rowmajor", "mixed"],
                [StrategyKind.COMBINED], [16, 25])
        first = run_grid(*grid, seed=11)
        second = run_grid(*grid, seed=11)
        assert first.records == second.records
        assert len(first.records) == 8

    def test_verify_accepts_all_kernels(self):
        result = run_grid(["random"], ["classic", "rowmajor", "colmajor", "mixed"],
                          [StrategyKind.MIN_MAX, None], [24], seed=5, verify=True)
        assert len(result.records) == 4
        assert len(result.skipped) == 4  # the cross pairings

    def test_fd_sizes_snap_to_square_dimensions(self):
        result = run_grid(["fd"], ["rowmajor"], [StrategyKind.SORT], [60], seed=0)
        assert result.records[0].n == 64

    def test_verify_rejects_a_product_one_ulp_off(self, monkeypatch):
        a, b = gen_random_k(24, 5, 1), gen_random_k(24, 5, 2)
        product = multiply_rowmajor(a, b)
        bench_module._verify_cell(product, a, b, "exact")
        values = product.values.copy()
        values[7] = np.nextafter(values[7], np.inf)
        off = CsrMatrix.from_arrays(24, 24, product.row_ptr, product.col_idx, values)
        with pytest.raises(RuntimeError, match="disagrees with the scatter kernel"):
            bench_module._verify_cell(off, a, b, "off")
        # with the scatter kernel off by the same ulp, the dense reference
        # is the check left to catch it
        monkeypatch.setattr(bench_module, "multiply_rowmajor", lambda *args: off)
        with pytest.raises(RuntimeError, match="disagrees with the dense reference"):
            bench_module._verify_cell(off, a, b, "off")


def run_cli(args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "sparsemm.bench", *args],
                          capture_output=True, text=True, env=env)


class TestCli:
    def test_run_emits_parseable_deterministic_csv(self, tmp_path):
        out = tmp_path / "records.csv"
        args = ["run", "--case", "fd", "--kernel", "rowmajor", "--strategy",
                "sort", "--sizes", "16,36", "--seed", "9", "--csv", str(out)]
        proc = run_cli(args, {CLOCK_OVERRIDE_ENV: "0.7"})
        assert proc.returncode == 0, proc.stderr
        first = parse_csv(out.read_text())
        assert [(r.case, r.n, r.inner_iters) for r in first] == [
            ("fd[n=16]", 16, 4), ("fd[n=36]", 36, 4)]
        proc = run_cli(args, {CLOCK_OVERRIDE_ENV: "0.7"})
        assert proc.returncode == 0
        assert parse_csv(out.read_text()) == first

    def test_run_verify_passes_on_small_case(self):
        proc = run_cli(["run", "--case", "random", "--kernel", "mixed",
                        "--strategy", "combined", "--sizes", "16", "--verify"],
                       {CLOCK_OVERRIDE_ENV: "0.7"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == CSV_HEADER

    def test_classic_kernel_maps_to_strategyless_cell(self):
        proc = run_cli(["run", "--case", "fd", "--kernel", "classic",
                        "--strategy", "combined", "--sizes", "16"],
                       {CLOCK_OVERRIDE_ENV: "0.7"})
        assert proc.returncode == 0, proc.stderr
        records = parse_csv(proc.stdout)
        assert [(r.kernel, r.strategy) for r in records] == [("classic", "none")]

    def test_strict_mode_fails_on_skipped_combination(self):
        proc = run_cli(["run", "--case", "fd", "--kernel", "rowmajor",
                        "--strategy", "none", "--sizes", "16", "--strict"],
                       {CLOCK_OVERRIDE_ENV: "0.7"})
        assert proc.returncode == 2
        assert "skipped" in proc.stderr

    def test_strict_mode_passes_when_each_kernel_gets_its_cells(self):
        # classic takes only 'none', rowmajor only the storing strategies,
        # so the cross product leaves no skip
        proc = run_cli(["run", "--case", "fd", "--kernel", "classic", "rowmajor",
                        "--strategy", "combined", "none", "--sizes", "16", "--strict"],
                       {CLOCK_OVERRIDE_ENV: "0.7"})
        assert proc.returncode == 0, proc.stderr
        records = parse_csv(proc.stdout)
        assert [(r.kernel, r.strategy) for r in records] == [
            ("classic", "none"), ("rowmajor", "combined")]

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
