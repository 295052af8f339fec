import contextlib
import io
import json
import math
import pickle
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covlss.harness as harness
import covlss.lss as lss
from covlss.cli import main, read_config_file
from covlss.enumeration import (
    SymMatrix,
    verify_fourth_moment,
    verify_quadratic_covariance,
    verify_triple_product,
)
from covlss.harness import (
    ConfigError,
    ExperimentConfig,
    build_experiment_model,
    resolve_workers,
    run_experiment,
    run_replications,
    run_verification_suite,
)
from covlss.inference import DegenerateCovarianceError
from covlss.innovations import parse_dist, rademacher, two_point
from covlss.lss import ReplicationInvariantError, SampleConfig, run_replication
from covlss.population import assemble_model, haar_orthogonal
from covlss.seeding import REPLICATION_STREAM, derive_seed


def tiny_cfg(tmp_path, **kw):
    base = dict(
        p=6, n=10, alpha=0.2, beta=0.4, dist="gamma:4:0.5", reps=40,
        master_seed=11, output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


_BLAS_SIZED = dict(centered=True, max_power=4, reps=16, grid_size=9)


class TestConfig:
    def test_validates_fields(self):
        with pytest.raises(ConfigError, match="p must"):
            ExperimentConfig(p=0, n=10).validate()
        with pytest.raises(ConfigError, match="n must"):
            ExperimentConfig(p=2, n=1).validate()
        with pytest.raises(ConfigError, match="beta"):
            ExperimentConfig(p=2, n=10, beta=2.0).validate()
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="alpha"):
                ExperimentConfig(p=2, n=10, alpha=alpha).validate()
        with pytest.raises(ConfigError, match="max_power"):
            ExperimentConfig(p=2, n=10, max_power=1).validate()
        with pytest.raises(ConfigError, match="format"):
            ExperimentConfig(p=2, n=10, format="xml").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(p=2, n=10, dist="cauchy").validate()

    def test_digest_tracks_statistical_fields_only(self):
        a = ExperimentConfig(p=3, n=10, output_dir="x")
        b = ExperimentConfig(p=3, n=10, output_dir="y", workers=4)
        c = ExperimentConfig(p=3, n=11, output_dir="x")
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_pinned(self):
        # a digest names a run's statistical inputs across versions, so it must not drift
        assert ExperimentConfig(p=3, n=10, format="json").digest() == (
            "5566809f6ec1526836667cbd6a82490dfeff305da3c6a0322373b45376ac39e9"
        )
        full_panel = ExperimentConfig(
            p=500, n=1000, alpha=0.2, beta=0.5, dist="gamma:4:0.5", reps=10000, master_seed=1
        )
        assert full_panel.digest() == (
            "a8cde1988723c05c875c16d6c8bfa8a9d8b9f1adb96227abe99d63999a545308"
        )

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.delenv("COVLSS_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("COVLSS_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.setenv("COVLSS_WORKERS", "zero")
        with pytest.raises(ConfigError):
            resolve_workers(None)


class TestRunExperiment:
    def test_single_replication(self, tmp_path):
        res = run_experiment(tiny_cfg(tmp_path, reps=1, grid_size=3))
        assert res.qq.reps == 1
        assert (tmp_path / "out" / "qq.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "a")))
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "b")))
        a = (tmp_path / "a" / "qq.csv").read_bytes()
        b = (tmp_path / "b" / "qq.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "workers,size",
        [
            pytest.param(2, {}, id="2"),
            pytest.param(3, {}, id="3"),
            # sizes where BLAS threads engage: the Gram side (p > n), then the p side
            pytest.param(2, dict(p=400, n=300, **_BLAS_SIZED), id="2-p400-n300"),
            pytest.param(2, dict(p=300, n=400, **_BLAS_SIZED), id="2-p300-n400"),
        ],
    )
    def test_worker_count_independence(self, tmp_path, workers, size):
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "w1"), workers=1, **size))
        run_experiment(
            tiny_cfg(tmp_path, output_dir=str(tmp_path / "wN"), workers=workers, **size)
        )
        names = ["qq.csv", "qq_centered.csv"] if size else ["qq.csv"]
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "wN" / name
            ).read_bytes()

    def test_pool_jobs_carry_no_model(self, tmp_path, monkeypatch):
        # the model (a 60 x 60 factor, about 29 kB pickled) reaches each
        # worker once, through the pool's initializer; a job names its range
        cfg = tiny_cfg(tmp_path, p=60, n=80, reps=12)
        model = build_experiment_model(cfg)
        sent = []

        class RecordingPool(harness.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                jobs = list(zip(*iterables))
                sent.extend(len(pickle.dumps((fn, job))) for job in jobs)
                return super().map(fn, *zip(*jobs), **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        pooled = run_replications(model, cfg, 2)
        assert len(pickle.dumps(model)) > 20_000
        assert sent and max(sent) < 1024
        assert pooled == run_replications(model, cfg, 1)

    def test_summary_contents(self, tmp_path):
        cfg = tiny_cfg(tmp_path, centered=True)
        res = run_experiment(cfg)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["version"].startswith("covlss-")
        assert summary["config_digest"] == cfg.digest()
        assert summary["reps"] == 40
        ms = summary["moments"]
        for key in ("e_t1", "e_t2", "psi11", "psi12", "psi22", "nu4"):
            assert key in ms
        assert ms["e_t1_centered"] is not None
        assert summary["centered"]["ks"] == res.qq_centered.ks
        assert summary["qq"]["prob"][0] == res.qq.probs[0]

    def test_csv_only_format(self, tmp_path):
        run_experiment(tiny_cfg(tmp_path, format="csv"))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "qq" not in summary
        assert (tmp_path / "out" / "qq.csv").exists()

    def test_json_only_format(self, tmp_path):
        run_experiment(tiny_cfg(tmp_path, format="json"))
        assert not (tmp_path / "out" / "qq.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["qq"]["prob"]) == 199

    def test_centered_writes_parallel_report(self, tmp_path):
        run_experiment(tiny_cfg(tmp_path, centered=True))
        assert (tmp_path / "out" / "qq_centered.csv").exists()

    def test_degenerate_combination_reported(self, tmp_path):
        cfg = tiny_cfg(tmp_path, dist="rademacher", diagonal_only=True, alpha=0.0, beta=0.0)
        with pytest.raises(DegenerateCovarianceError, match="rademacher"):
            run_experiment(cfg)

    def test_seventeen_digit_csv(self, tmp_path):
        run_experiment(tiny_cfg(tmp_path, reps=5, grid_size=4))
        lines = (tmp_path / "out" / "qq.csv").read_text().splitlines()
        assert lines[0] == "prob,q_theoretical,q_empirical"
        value = lines[1].split(",")[0]
        assert float(value) == 0.5 / 4
        assert len(value) >= 5

    def test_model_frozen_by_master_seed(self, tmp_path):
        m1 = build_experiment_model(tiny_cfg(tmp_path))
        m2 = build_experiment_model(tiny_cfg(tmp_path))
        assert np.array_equal(m1.eigenvalues, m2.eigenvalues)
        assert np.array_equal(m1.factor, m2.factor)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
    def test_replications_reuse_freed_arrays(self, tmp_path):
        # a replication frees its p x n arrays (4 MB each here); the next one
        # must reuse that memory, not fault its 977 pages in again
        cfg = tiny_cfg(tmp_path, p=500, n=1000, alpha=0.0, beta=0.0, dist="normal", reps=20)
        model = build_experiment_model(cfg)
        run_replications(model, cfg, 1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_replications(model, cfg, 1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / cfg.reps < 100


def _blas_counts():
    return [get() for _, get in harness._openblas_threads()]


def _set_blas_counts(count):
    for set_threads, _ in harness._openblas_threads():
        set_threads(count)


def _assert_no_replication_thread_alive():
    for thread in threading.enumerate():
        if thread.name.startswith("covlss-replicate"):
            thread.join(timeout=30)
            assert not thread.is_alive(), thread.name


def _block_args(cfg, model, start=0):
    return (model, cfg.dist, cfg.n, cfg.master_seed, cfg.max_power, cfg.centered,
            start, cfg.reps)


class TestPipeline:
    """The two replication threads, the kernel lock and the BLAS pin of
    ``_replicate_block``."""

    @pytest.mark.skipif(not harness._openblas_threads(), reason="no OpenBLAS control symbol")
    def test_results_independent_of_ambient_blas_threads(self, tmp_path, monkeypatch):
        # rotated and centered, on both sides: Y'Y (p > n) and Sigma X X'
        # (p <= n), where 2-thread products round differently from 1-thread ones
        seen = []

        def recording(*args):
            seen.append(_blas_counts())
            return run_replication(*args)

        monkeypatch.setattr(harness, "run_replication", recording)
        ambient = _blas_counts()
        for p, n in ((400, 300), (300, 400)):
            cfg = tiny_cfg(tmp_path, p=p, n=n, alpha=0.3, beta=0.3, centered=True, reps=4)
            model = build_experiment_model(cfg)
            assert model.factor is not None
            runs = {}
            try:
                for count in (1, 2):
                    _set_blas_counts(count)
                    runs[count] = [(r.t, r.t_centered) for r in run_replications(model, cfg, 1)]
                    assert _blas_counts() == [count] * len(ambient)
            finally:
                for (set_threads, _), count in zip(harness._openblas_threads(), ambient):
                    set_threads(count)
            assert runs[1] == runs[2]
        assert len(seen) == 16 and all(counts == [1] * len(ambient) for counts in seen)

    @pytest.mark.parametrize("p,n,reps,fail_at", [(40, 50, 12, 7), (400, 400, 6, 3)])
    def test_draw_error_propagates(self, tmp_path, monkeypatch, p, n, reps, fail_at):
        cfg = tiny_cfg(tmp_path, p=p, n=n, diagonal_only=True, reps=reps)
        model = build_experiment_model(cfg)
        bad_seed = derive_seed(cfg.master_seed, REPLICATION_STREAM, fail_at)
        error = RuntimeError(f"draw failed at replication {fail_at}")
        original = lss.sample_block

        def failing(dist, seed, count):
            if seed == bad_seed:
                raise error
            return original(dist, seed, count)

        monkeypatch.setattr(lss, "sample_block", failing)
        before = _blas_counts()
        with pytest.raises(RuntimeError) as excinfo:
            run_replications(model, cfg, 1)
        assert excinfo.value is error
        _assert_no_replication_thread_alive()
        assert _blas_counts() == before

    @pytest.mark.parametrize("p,n,reps,fail_at", [(40, 50, 12, 9), (400, 400, 6, 2)])
    def test_kernel_error_propagates(self, tmp_path, monkeypatch, p, n, reps, fail_at):
        # a NaN innovation makes replication fail_at's statistics NaN, which
        # its invariant check turns into ReplicationInvariantError
        cfg = tiny_cfg(tmp_path, p=p, n=n, diagonal_only=True, reps=reps)
        model = build_experiment_model(cfg)

        def poisoning(cfg, x=None):
            x = lss._draw_x(cfg) if x is None else x
            if cfg.replication_index == fail_at:
                x[0, 0] = math.nan
            return run_replication(cfg, x)

        monkeypatch.setattr(harness, "run_replication", poisoning)
        before = _blas_counts()
        with pytest.raises(ReplicationInvariantError, match=f"replication {fail_at}:"):
            run_replications(model, cfg, 1)
        _assert_no_replication_thread_alive()
        assert _blas_counts() == before

    @pytest.mark.parametrize("pinned", [True, False])
    def test_block_matches_replication_loop(self, tmp_path, monkeypatch, pinned):
        if not pinned:  # as on a BLAS without a thread-count symbol: draw inline
            monkeypatch.setattr(harness, "_openblas_threads", lambda: [])
        elif not harness._openblas_threads():
            pytest.skip("no OpenBLAS control symbol")
        cfg = tiny_cfg(tmp_path, p=30, n=40, centered=True, max_power=4, reps=60)
        model = build_experiment_model(cfg)
        dist = parse_dist(cfg.dist)
        start, stop = 3, cfg.reps  # a block that does not start at 0, as in a pool
        names = []
        original = lss.sample_block

        def recording(*a):
            names.append(threading.current_thread().name)
            return original(*a)

        monkeypatch.setattr(lss, "sample_block", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL between the two threads often
        try:
            got = harness._replicate_block(_block_args(cfg, model, start))
        finally:
            sys.setswitchinterval(interval)
        assert len(names) == stop - start
        caller = threading.current_thread().name
        if pinned:  # both threads draw
            assert {name.startswith("covlss-replicate") for name in names} == {True, False}
            assert caller in names
        else:
            assert set(names) == {caller}
        monkeypatch.setattr(lss, "sample_block", original)
        want = [
            run_replication(SampleConfig(model=model, dist=dist, n=cfg.n, replication_index=rep,
                                         master_seed=cfg.master_seed, max_power=cfg.max_power,
                                         centered=cfg.centered))
            for rep in range(start, stop)
        ]
        assert got == want

    @pytest.mark.skipif(not harness._openblas_threads(), reason="no OpenBLAS control symbol")
    def test_one_kernel_at_a_time(self, tmp_path, monkeypatch):
        # each kernel call is held open for a millisecond, so two threads
        # without the kernel lock would overlap; with it, at most one runs
        cfg = tiny_cfg(tmp_path, p=20, n=30, reps=40)
        model = build_experiment_model(cfg)
        guard = threading.Lock()
        active, peak, callers = [0], [0], set()

        def counting(*args):
            with guard:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                callers.add(threading.current_thread().name)
            try:
                time.sleep(1e-3)
                return run_replication(*args)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(harness, "run_replication", counting)
        got = harness._replicate_block(_block_args(cfg, model))
        assert [r.replication_index for r in got] == list(range(cfg.reps))
        assert peak[0] == 1
        assert len(callers) == 2

    @pytest.mark.parametrize("n", [1, 255, 600])
    def test_half_times_matches_dense_product(self, n):
        p = 20
        rng = np.random.default_rng(n)
        eigs = np.sort(rng.uniform(0.5, 3.0, p))[::-1]
        x = rng.standard_normal((p, n))
        rotated = assemble_model(eigs, haar_orthogonal(p, 7))
        dense = rotated.factor @ x
        y = lss._half_times(rotated, x.copy())
        assert np.allclose(y, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
        diagonal = assemble_model(eigs)
        assert np.array_equal(lss._half_times(diagonal, x.copy()), np.sqrt(eigs)[:, None] * x)


class TestVerificationSuite:
    def test_small_clean_run(self, tmp_path):
        summary = run_verification_suite(2, 10, seed=0, output_dir=str(tmp_path))
        assert summary.ok
        assert all(err <= 1e-12 for err in summary.max_abs_err.values())
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["ok"] is True
        assert {"quadratic_covariance", "fourth_moment", "triple_product",
                "finite_n_moments"} <= set(payload["max_abs_err"])

    def test_dim_guard(self):
        from covlss.enumeration import EnumerationGuardError

        with pytest.raises(EnumerationGuardError):
            run_verification_suite(5, 10, seed=0)

    def test_case_rows_have_interface_fields(self):
        summary = run_verification_suite(2, 3, seed=1)
        row = summary.cases[0]
        assert {"lemma", "dims", "dist", "lhs", "rhs", "abs_err"} <= set(row)

    def test_groups_split_and_regroup_in_case_order(self):
        # 60 cases cover all 4 x 3 (dimension, law) groups; every row must
        # match its case checked alone, as a stack of one, in case order
        cases, seed = 60, 5
        summary = run_verification_suite(4, cases, seed=seed)
        rng = np.random.default_rng(seed)
        laws = [rademacher(), two_point(0.2), two_point(0.35)]
        groups = set()
        for i in range(cases):
            dim = int(rng.integers(1, 5))
            a, b = (rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(2))
            a, b = (SymMatrix((0.5 * (m + m.T))[None]) for m in (a, b))
            dist = laws[i % 3]
            groups.add((dim, dist.selector))
            alone = [
                *verify_quadratic_covariance(a, b, dist),
                *verify_fourth_moment(a, dist),
                *verify_triple_product(a, b, dist),
            ]
            for got, want in zip(summary.cases[3 * i : 3 * i + 3], alone):
                want = want.as_dict()
                assert (got["lemma"], got["dims"], got["dist"]) == (
                    want["lemma"], want["dims"], want["dist"]
                )
                assert got["lhs"] == want["lhs"]
                assert got["rhs"] == pytest.approx(want["rhs"], rel=1e-14, abs=0.0)
        assert len(groups) == 12
        assert summary.cases[3 * cases]["lemma"] == "finite_n_moments"

    def test_verify_json_byte_identical_on_rerun(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        run_verification_suite(4, 300, 1, str(first))
        run_verification_suite(4, 300, 1, str(second))
        assert (first / "verify.json").read_bytes() == (second / "verify.json").read_bytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            run_verification_suite(2, 3, seed=-1)


class TestCli:
    def test_simulate_and_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli_out")
        rc = main([
            "simulate", "--p", "5", "--n", "8", "--dist", "normal",
            "--reps", "20", "--master-seed", "3", "--output-dir", out,
        ])
        assert rc == 0
        assert "ks =" in capsys.readouterr().out

    def test_missing_required_flags_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["simulate"])
        assert e.value.code == 2

    def test_verify_subcommand(self, tmp_path, capsys):
        rc = main(["verify", "--max-dim", "2", "--cases", "5", "--seed", "1",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        assert "all identities within" in capsys.readouterr().out

    def test_verify_guard_nonzero_exit(self, tmp_path, capsys):
        rc = main(["verify", "--max-dim", "5", "--cases", "2",
                   "--output-dir", str(tmp_path)])
        assert rc == 1

    def test_verify_negative_seed_exit_one(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--max-dim", "2", "--cases", "2", "--seed", "-1",
                   "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")
        assert not (out / "verify.json").exists()

    def test_degenerate_exit_one(self, tmp_path, capsys):
        rc = main([
            "simulate", "--p", "4", "--n", "8", "--dist", "rademacher",
            "--diagonal-only", "--reps", "5", "--output-dir", str(tmp_path / "d"),
        ])
        assert rc == 1
        assert "degenerate" in capsys.readouterr().err

    def test_max_power_one_exit_one(self, tmp_path, capsys):
        rc = main(["simulate", "--p", "6", "--n", "1000", "--max-power", "1",
                   "--reps", "5", "--output-dir", str(tmp_path / "m")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["20", "40", "1e308"])
    def test_overflowing_spectrum_exit_one(self, tmp_path, capsys, alpha):
        # spikes of 1000^alpha: Psi (alpha 20), tr Sigma^4 (alpha 40) or
        # n^alpha itself (alpha 1e308) overflows
        out = tmp_path / "o"
        rc = main(["simulate", "--p", "6", "--n", "1000", "--beta", "0.5",
                   "--alpha", alpha, "--reps", "5", "--output-dir", str(out)])
        assert rc == 1
        assert "overflow" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("dist", ["gamma:1e-300:1", "bogus"])
    def test_bad_distribution_exit_one(self, tmp_path, capsys, dist):
        # a gamma shape whose standardized moments overflow, and an unknown law
        out = tmp_path / "g"
        rc = main(["simulate", "--p", "2", "--n", "3", "--dist", dist,
                   "--reps", "5", "--output-dir", str(out)])
        assert rc == 1
        assert f"error: bad distribution selector '{dist}'" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("case", ["output_dir_is_file", "output_dir_under_file",
                                      "config_is_directory"])
    def test_unusable_path_exit_one(self, tmp_path, capsys, case):
        # each raised an uncaught OSError (FileExistsError, NotADirectoryError,
        # IsADirectoryError) before any report was written
        afile = tmp_path / "afile"
        afile.write_text("")
        sim = ["simulate", "--p", "3", "--n", "5", "--reps", "3"]
        path, argv = {
            "output_dir_is_file": (afile, sim + ["--output-dir", str(afile)]),
            "output_dir_under_file": (afile / "x", ["verify", "--max-dim", "1", "--cases", "1",
                                                    "--output-dir", str(afile / "x")]),
            "config_is_directory": (tmp_path, sim + ["--config", str(tmp_path),
                                                     "--output-dir", str(tmp_path / "o")]),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not list(tmp_path.rglob("summary.json"))
        assert not list(tmp_path.rglob("verify.json"))

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("p=5\nn=8\nreps=100\nmaster_seed=3\n# comment\ndist=normal\n")
        out = str(tmp_path / "o1")
        rc = main(["simulate", "--config", str(cfg), "--reps", "50",
                   "--output-dir", out])
        assert rc == 0
        summary = json.loads((tmp_path / "o1" / "summary.json").read_text())
        assert summary["reps"] == 50  # flag wins over file
        assert summary["config"]["p"] == 5

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p=5\nn=8\nbogus=1\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_config_file_bad_value(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("p=five\nn=8\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_read_config_file_parses_booleans(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("p=5\nn=8\ncentered=true\ndiagonal_only=off\n")
        values = read_config_file(str(cfg))
        assert values["centered"] is True
        assert values["diagonal_only"] is False

    def test_desk_scale_preset_overridable(self, tmp_path, capsys):
        out = str(tmp_path / "desk")
        rc = main(["simulate", "--desk-scale", "--reps", "10",
                   "--master-seed", "1", "--output-dir", out])
        assert rc == 0
        summary = json.loads((tmp_path / "desk" / "summary.json").read_text())
        assert summary["config"]["p"] == 50
        assert summary["config"]["n"] == 500
        assert summary["reps"] == 10

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "covlss.cli", "simulate", "--p", "4", "--n", "6",
             "--reps", "10", "--output-dir", str(tmp_path / "sp")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_reference_panel_flags_resolve(self):
        # the first simulation panel's flag set parses to the expected config
        from covlss.cli import _build_parser, _resolve_simulate_config

        parser = _build_parser()
        args = parser.parse_args(
            "simulate --p 100 --n 1000 --alpha 0.2 --beta 0.1 "
            "--dist gamma:4:0.5 --reps 10000".split()
        )
        cfg = _resolve_simulate_config(args, parser)
        assert (cfg.p, cfg.n, cfg.alpha, cfg.beta) == (100, 1000, 0.2, 0.1)
        assert cfg.dist == "gamma:4:0.5"
        assert cfg.reps == 10000
        assert cfg.master_seed == 0  # documented default


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _all_finite(value):
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 6),
    n=st.integers(2, 8),
    alpha=st.one_of(st.floats(0.0, 3.0), st.sampled_from([20.0, 40.0, 400.0, 1e308])),
    beta=st.floats(0.0, 1.0),
    dist=st.sampled_from([
        "normal", "rademacher", "twopoint:0.2", "gamma:4:0.5", "gamma:0.01:1",
        "gamma:1e8:1", "gamma:1:1e300", "gamma:1e-300:1", "gamma:1e300:1",
    ]),
    reps=st.integers(1, 6),
    seed=st.integers(0, 2**63 - 1),
    centered=st.booleans(),
    max_power=st.integers(2, 4),
    diagonal_only=st.booleans(),
    grid_size=st.integers(2, 5),
)
def test_valid_configs_end_in_reports_or_a_diagnostic(
    p, n, alpha, beta, dist, reps, seed, centered, max_power, diagonal_only, grid_size
):
    # a config that passes validate writes finite reports or exits 1 with
    # "error:", never a traceback and never a partial summary.json
    cfg = ExperimentConfig(p=p, n=n, alpha=alpha, beta=beta, dist=dist, reps=reps,
                           master_seed=seed, centered=centered, max_power=max_power,
                           diagonal_only=diagonal_only, grid_size=grid_size)
    try:
        cfg.validate()
    except ConfigError:
        return
    argv = ["simulate", "--p", str(p), "--n", str(n), "--alpha", repr(alpha),
            "--beta", repr(beta), "--dist", dist, "--reps", str(reps),
            "--master-seed", str(seed), "--max-power", str(max_power),
            "--grid-size", str(grid_size), "--workers", "1"]
    argv += ["--centered"] * centered + ["--diagonal-only"] * diagonal_only
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv + ["--output-dir", str(out)])
        summary_path = out / "summary.json"
        if rc == 1:
            assert err.getvalue().startswith("error:"), err.getvalue()
            assert not summary_path.exists()
            return
        assert rc == 0
        summary = json.loads(summary_path.read_text(), parse_constant=_reject_constant)
        assert _all_finite(summary)
        for name in ["qq.csv"] + ["qq_centered.csv"] * centered:
            rows = (out / name).read_text().splitlines()[1:]
            assert len(rows) == grid_size
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
