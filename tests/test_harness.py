import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covlss.harness as harness
import covlss.lss as lss
from covlss.cli import _build_parser, _resolve_simulate_config, main
from covlss.enumeration import FINITE_N_COLUMNS, IDENTITY_COLUMNS, SymMatrix, verify_identities
from covlss import VERSION_STRING
from covlss.harness import (
    VERIFICATION_LAWS,
    VERIFY_THRESHOLD,
    ConfigError,
    ExperimentConfig,
    NonFiniteReportError,
    build_experiment_model,
    run_experiment,
    run_replications,
    run_verification_suite,
)
from covlss.inference import DegenerateCovarianceError, whiten
from covlss.innovations import parse_dist, sample_block
from covlss.lss import ReplicationInvariantError, _draw_x, run_replication
from covlss.moments import moment_set
from covlss.population import assemble_model, build_model, haar_orthogonal
from covlss.seeding import REPLICATION_STREAM, derive_seed


def tiny_cfg(tmp_path, **kw):
    base = dict(
        p=6, n=10, alpha=0.2, beta=0.4, dist="gamma:4:0.5", reps=40,
        master_seed=11, output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


_BLAS_SIZED = dict(centered=True, reps=16, grid_size=9)

# a ceiling that keeps each oversized run refused on any host, so no test
# allocates it
_CEILING = 8.0 * 2**30
# configs whose estimated peak exceeds the ceiling, the flags that set them
# and the start of the error that names the field of the largest part
_OVERSIZED_RUNS = [
    ({"p": 100_000, "n": 3}, ["--p", "100000", "--n", "3"], "p 100000 needs about"),
    ({"p": 200_000, "n": 100_000, "diagonal_only": True},
     ["--p", "200000", "--n", "100000", "--diagonal-only"],
     "p * n = 200000 * 100000 needs about"),
    ({"p": 2, "n": 10, "reps": 10**13}, ["--p", "2", "--n", "10", "--reps", str(10**13)],
     "reps 10000000000000 needs about"),
]


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_validates_fields(self):
        with pytest.raises(ConfigError, match="p must"):
            ExperimentConfig(p=0, n=10)
        with pytest.raises(ConfigError, match="n must"):
            ExperimentConfig(p=2, n=1)
        for beta in (-0.1, 1.5, 2.0):
            with pytest.raises(ConfigError, match="beta"):
                ExperimentConfig(p=2, n=10, beta=beta)
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="alpha"):
                ExperimentConfig(p=2, n=10, alpha=alpha)
        for max_power in (1, 5):  # a keyword, not a field
            with pytest.raises(ConfigError, match="max_power"):
                ExperimentConfig(p=2, n=10, max_power=max_power)
        assert not hasattr(ExperimentConfig(p=2, n=10, max_power=4), "max_power")
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig(p=2, n=10, workers=0)
        with pytest.raises(ConfigError, match="reps must"):
            ExperimentConfig(p=2, n=10, reps=0)
        with pytest.raises(ConfigError, match="grid_size must"):
            ExperimentConfig(p=2, n=10, grid_size=1)
        with pytest.raises(ValueError):
            ExperimentConfig(p=2, n=10, dist="cauchy")

    def test_validate_returns_the_law(self):
        law = ExperimentConfig(p=2, n=10, dist="twopoint:0.3").law
        assert law.selector == "twopoint:0.3"

    def test_config_is_frozen(self):
        # checked when made, so no field may change afterwards
        cfg = ExperimentConfig(p=2, n=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.p = 0
        assert cfg.p == 2

    @pytest.mark.parametrize("centered", [False, True])
    def test_refuses_a_qq_grid_beyond_physical_memory(self, centered):
        # refused on any host before a table is allocated: 10^15 points
        # would take about 96 PB
        with pytest.raises(ConfigError, match="^grid_size 1000000000000000 needs about"):
            ExperimentConfig(p=2, n=10, centered=centered, grid_size=10**15)

    def test_qq_bytes_per_point_bounds_a_measured_table(self):
        # the guard's per-point figure against qq_report's traced peak
        grid_size = 100_000
        peak = _traced_peak(lambda: harness.qq_report(np.linspace(0.0, 10.0, 1000), grid_size))
        assert 0.8 * harness._QQ_BYTES_PER_POINT < peak / grid_size <= harness._QQ_BYTES_PER_POINT

    @pytest.mark.parametrize("fields,flags,message", _OVERSIZED_RUNS, ids=["p", "p*n", "reps"])
    def test_refuses_a_run_beyond_physical_memory(self, monkeypatch, fields, flags, message):
        monkeypatch.setattr(harness, "_physical_memory", lambda: _CEILING)
        with pytest.raises(ConfigError) as refused:
            ExperimentConfig(**fields)
        assert str(refused.value).startswith(message)

    def test_model_bytes_per_p2_bounds_a_measured_build(self):
        # a rotated build, then the dense Sigma that the p <= n kernel caches
        p = 300
        r = np.random.default_rng(1).random(p)
        peak = _traced_peak(lambda: build_model(r, 1000, 0.5, 0.2, 7).sigma)
        assert 0.8 * harness._MODEL_BYTES_PER_P2 < peak / p**2 <= harness._MODEL_BYTES_PER_P2

    def test_draw_bytes_per_value_bounds_every_law(self):
        count = 10**6
        peaks = [_traced_peak(lambda: sample_block(parse_dist(law), 3, count))
                 for law in ("normal", "gamma:4:0.5", "rademacher", "twopoint:0.3")]
        assert 0.8 * harness._DRAW_BYTES_PER_VALUE < max(peaks) / count
        assert max(peaks) / count <= harness._DRAW_BYTES_PER_VALUE

    @pytest.mark.parametrize("centered", [False, True])
    def test_bytes_per_rep_bound_the_measured_statistics(self, centered):
        # run_experiment's arrays after the replications: the rows, then each
        # pair whitened into its Q-Q report
        reps = 200_000
        cfg = ExperimentConfig(p=5, n=20, centered=centered)
        ms = moment_set(build_experiment_model(cfg).traces, cfg.n, 0.0, centered=centered)
        rows = np.random.default_rng(0).random((reps, 2)) + [5.0, 6.0]

        def statistics():
            t, tc = rows.copy(), rows.copy() if centered else None
            qq = harness.qq_report(whiten(t[:, 0], t[:, 1], ms), cfg.grid_size)
            if centered:
                harness.qq_report(whiten(tc[:, 0], tc[:, 1], ms.centered_view()), cfg.grid_size)
            return qq

        per_rep = harness._BYTES_PER_REP + 16 * centered
        assert 0.8 * per_rep < _traced_peak(statistics) / reps <= per_rep

    def test_digest_tracks_statistical_fields_only(self):
        a = ExperimentConfig(p=3, n=10, output_dir="x")
        b = ExperimentConfig(p=3, n=10, output_dir="y", workers=4)
        c = ExperimentConfig(p=3, n=11, output_dir="x")
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_pinned(self):
        # a digest names a run's statistical inputs across versions, so it must not drift
        assert ExperimentConfig(p=3, n=10).digest() == (
            "a55e892eb900a50365ca38fe79f813a7badc44f4136d7f697508b41f58829506"
        )
        full_panel = ExperimentConfig(
            p=500, n=1000, alpha=0.2, beta=0.5, dist="gamma:4:0.5", reps=10000, master_seed=1
        )
        assert full_panel.digest() == (
            "9287840668bfaec4ee223265af9ae7a7aaf2985c100fd6235ae1ed35a390a32d"
        )

    @pytest.mark.parametrize("fields,refused", [
        (dict(p=np.int64(3)), None),  # once a run that failed writing summary.json
        (dict(workers=1.5), "workers must be of type int"),
        (dict(master_seed=1.5), "master_seed must be of type int"),
        (dict(n=10.0), "n must be of type int"),
        (dict(centered=np.True_), None),
        (dict(dist=None), "dist must be of type str"),  # once a raw AttributeError
        (dict(dist=3), "dist must be of type str"),
        (dict(output_dir=None), "output_dir must be of type str"),
        (dict(output_dir=3), "output_dir must be of type str"),
    ], ids=["p-int64", "workers-float", "master_seed-float", "n-float", "centered-numpy",
            "dist-none", "dist-int", "output_dir-none", "output_dir-int"])
    def test_wrong_type_refused_or_canonical(self, tmp_path, fields, refused):
        # each once passed the config gate and raised a raw TypeError later
        kwargs = dict(p=3, n=10, reps=5, grid_size=3, output_dir=str(tmp_path))
        if refused:
            with pytest.raises(ConfigError, match=f"^{refused}, got "):
                ExperimentConfig(**{**kwargs, **fields})
            return
        canonical = {key: value.item() for key, value in fields.items()}
        run_experiment(ExperimentConfig(**{**kwargs, **fields}))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_digest"] == ExperimentConfig(**{**kwargs, **canonical}).digest()

    def test_digest_of_canonical_values(self):
        # one run, one digest, whatever numeric type sets a field
        assert ExperimentConfig(p=3, n=10, alpha=1).digest() == (
            ExperimentConfig(p=3, n=10, alpha=1.0).digest()
        )
        assert ExperimentConfig(p=np.int64(3), n=10).digest() == (
            ExperimentConfig(p=3, n=10).digest()
        )
        # and whatever spelling selects the law
        spellings = {ExperimentConfig(p=3, n=10, dist=dist).digest()
                     for dist in ("gamma:4:0.5", "gamma:4.0:0.5", " gamma:4:0.5")}
        assert len(spellings) == 1

    def test_path_output_dir_stored_as_str(self, tmp_path):
        assert ExperimentConfig(p=3, n=10, output_dir=tmp_path).output_dir == str(tmp_path)

    def test_master_seed_within_64_bits(self):
        # seeding keeps the low 64 bits, so -1 would replay 2**64 - 1 under another digest
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="master_seed"):
                ExperimentConfig(p=2, n=10, master_seed=seed)
        ExperimentConfig(p=2, n=10, master_seed=2**64 - 1)


# a value unlike tiny_cfg's for each digested ExperimentConfig field
_CHANGED_VALUE = dict(
    p=7, n=11, alpha=0.3, beta=0.2, dist="normal", reps=41, master_seed=12,
    centered=True, diagonal_only=True, grid_size=9,
)


def _reports(cfg):
    run_experiment(cfg)
    out = Path(cfg.output_dir)
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"], summary["config_digest"]
    return summary, {path.name: path.read_bytes() for path in out.glob("qq*.csv")}


@pytest.mark.parametrize(
    "field",
    [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in harness._UNDIGESTED],
)
def test_every_digested_field_changes_a_report(tmp_path, field):
    # a field that the digest names but no report reflects is an option
    # that changes nothing
    base = _reports(tiny_cfg(tmp_path / "base"))
    changed = _reports(tiny_cfg(tmp_path / "changed", **{field: _CHANGED_VALUE[field]}))
    assert changed != base


def _perfbench_workloads():
    """perfbench/workloads.py, which is plain data, loaded without the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses looks up the module's names
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _perfbench_workloads()


@pytest.mark.parametrize("name", sorted(_WORKLOADS.WORKLOADS))
def test_benchmark_workload_config_is_accepted(tmp_path, name):
    # a keyword that a workload passes must keep being accepted until the
    # benchmark stops passing it
    w = _WORKLOADS.WORKLOADS[name]
    if w.kind == "simulate":
        ExperimentConfig(output_dir=str(tmp_path), **_WORKLOADS.experiment_kwargs(w, 1, w.reps))
    else:
        assert run_verification_suite(w.config["max_dim"], 1, 1).ok


def test_simulate_flags_are_the_config_fields():
    # one flag per ExperimentConfig field and nothing else, so that no
    # second way to set an input (a file, a preset) comes back
    sub = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    dests = {action.dest for action in sub.choices["simulate"]._actions} - {"help"}
    assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}


class TestRunExperiment:
    def test_single_replication(self, tmp_path):
        res = run_experiment(tiny_cfg(tmp_path, reps=1, grid_size=3))
        assert res.qq.reps == 1
        assert (tmp_path / "out" / "qq.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        # summary.json too: its config leaves out output_dir
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "a")))
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "b")))
        for name in ("qq.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
        for name in names + ["summary.json"]:
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "wN" / name
            ).read_bytes()

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
        assert "qq" not in summary  # the Q-Q table is in qq.csv only

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

    def test_law_parsed_once_per_entry_point(self, tmp_path, monkeypatch):
        # the config parses cfg.dist when it is made; run_experiment and the
        # run_replications it calls read cfg.law
        calls = []
        parse = harness.parse_dist
        monkeypatch.setattr(harness, "parse_dist", lambda s: calls.append(s) or parse(s))
        run_experiment(tiny_cfg(tmp_path, reps=3))
        assert calls == ["gamma:4:0.5"]

    def test_diagonal_only_skips_rotation(self, tmp_path):
        rotated = build_experiment_model(tiny_cfg(tmp_path))
        m = build_experiment_model(tiny_cfg(tmp_path, diagonal_only=True))
        assert m.factor is None and rotated.factor is not None
        assert np.array_equal(m.eigenvalues, rotated.eigenvalues)
        # a diagonal Sigma has tr(S∘S) = tr S^2, tr(S∘S^2) = tr S^3, tr(S^2∘S^2) = tr S^4
        assert (m.traces.trH11, m.traces.trH12, m.traces.trH22) == pytest.approx(
            (m.traces.tr2, m.traces.tr3, m.traces.tr4), rel=1e-14
        )

    def test_model_frozen_by_master_seed(self, tmp_path):
        m1 = build_experiment_model(tiny_cfg(tmp_path))
        m2 = build_experiment_model(tiny_cfg(tmp_path))
        assert np.array_equal(m1.eigenvalues, m2.eigenvalues)
        assert np.array_equal(m1.factor, m2.factor)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
    def test_replications_reuse_freed_arrays(self, child_env):
        # each replication frees its p x n arrays, and the next one must reuse
        # that memory, not fault it in again: in a fresh process 100
        # replications of the centered diagonal model at p=1000, n=300 fault
        # about 1,680 pages with the policy and 3,210 with a no-op in its place
        faults = _with_and_without_malloc_policy(child_env, (
            "cfg = harness.ExperimentConfig(p=1000, n=300, alpha=0.5, beta=0.1, "
            "diagonal_only=True, centered=True, reps=100)\n"
            "model = harness.build_experiment_model(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "harness.run_replications(model, cfg, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        ))
        assert faults["off"] - faults["on"] > 1000, faults

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
    def test_malloc_policy_lowers_peak_rss(self, child_env):
        # what the policy buys is peak RSS: replicating at p=500, n=1000 in a
        # fresh process raises the peak about 8 MB with it and 12-14 MB without
        # it.  The peak is VmHWM, which exec resets (a child's ru_maxrss would
        # carry over this process's larger peak), less the VmRSS just before
        # the replications, so the heap of importing and compiling the package
        # and of building the model is not counted
        rise_kib = _with_and_without_malloc_policy(child_env, (
            "def status(key):\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "                if line.startswith(key))\n"
            "cfg = harness.ExperimentConfig(p=500, n=1000, reps=20)\n"
            "model = harness.build_experiment_model(cfg)\n"
            "before = status('VmRSS:')\n"
            "harness.run_replications(model, cfg, 1)\n"
            "print(status('VmHWM:') - before)\n"
        ))
        assert rise_kib["off"] - rise_kib["on"] > 2048, rise_kib


def _with_and_without_malloc_policy(child_env, body: str) -> dict[str, int]:
    """The integer that ``body`` prints in a fresh interpreter, run once with
    harness's malloc policy ("on") and once with a no-op in its place ("off")."""
    code = (
        "import resource, sys\n"
        "import covlss.harness as harness\n"
        "if sys.argv[1] == 'off':\n"
        "    harness._retain_freed_arrays = lambda: None\n"
    ) + body
    printed = {}
    for policy in ("on", "off"):
        proc = subprocess.run([sys.executable, "-c", code, policy],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        printed[policy] = int(proc.stdout)
    return printed


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


def _with_workers(*cases, more=3):
    """Each case at one worker, under its plain id, then at ``more`` workers."""
    return [
        pytest.param(*case, workers, id="-".join(map(str, case)) + suffix)
        for workers, suffix in ((1, ""), (more, f"-w{more}"))
        for case in cases
    ]


# centered or not at each (pinned, workers) case; the centered ids are plain
# and the others end "-m2", the ids they kept from when max_power (default 2)
# was an axis here
_BLOCK_CASES = [
    pytest.param(*case.values, centered, id=case.id + ("" if centered else "-m2"))
    for case in _with_workers((True,), (False,), more=2)
    for centered in (True, False)
]


class TestPipeline:
    """The replication threads, the kernel slots and the BLAS pin of
    ``run_replications``."""

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
                    runs[count] = run_replications(model, cfg, 1)
                    assert _blas_counts() == [count] * len(ambient)
            finally:
                for (set_threads, _), count in zip(harness._openblas_threads(), ambient):
                    set_threads(count)
            assert all(map(np.array_equal, runs[1], runs[2]))
        assert len(seen) == 16 and all(counts == [1] * len(ambient) for counts in seen)

    @pytest.mark.parametrize("flags", [
        pytest.param("--p 300 --n 400", id="rotated-p300-n400"),
        pytest.param("--p 300 --n 100 --centered", id="rotated-centered-p300-n100"),
        pytest.param("--p 20000 --n 4 --diagonal-only", id="diagonal-p20000-n4"),
    ])
    def test_reports_independent_of_blas_thread_count(self, tmp_path, child_env, flags):
        # the model's Haar QR, rotation check and trace products run on one
        # BLAS thread too: run on two, each config's reports change bits
        reports = {}
        for threads in (1, 2):
            run_dir = tmp_path / f"t{threads}"
            run_dir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "covlss.cli", "simulate", *flags.split(),
                 "--alpha", "0.3", "--beta", "0.3", "--reps", "8", "--grid-size", "9",
                 "--master-seed", "5", "--output-dir", "out"],
                cwd=run_dir, capture_output=True, text=True,
                env=dict(child_env, OPENBLAS_NUM_THREADS=str(threads)),
            )
            assert proc.returncode == 0, proc.stderr
            reports[threads] = {
                path.name: path.read_bytes() for path in (run_dir / "out").iterdir()
            }
        assert {"qq.csv", "summary.json"} <= set(reports[1])
        assert reports[1] == reports[2]

    @pytest.mark.parametrize(
        "p,n,reps,fail_at,workers", _with_workers((40, 50, 12, 7), (400, 400, 6, 3))
    )
    def test_draw_error_propagates(self, tmp_path, monkeypatch, p, n, reps, fail_at, workers):
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
            run_replications(model, cfg, workers)
        assert excinfo.value is error
        _assert_no_replication_thread_alive()
        assert _blas_counts() == before

    @pytest.mark.parametrize(
        "p,n,reps,fail_at,workers", _with_workers((40, 50, 12, 9), (400, 400, 6, 2))
    )
    def test_kernel_error_propagates(self, tmp_path, monkeypatch, p, n, reps, fail_at, workers):
        # a NaN innovation makes replication fail_at's statistics NaN, which
        # its invariant check turns into ReplicationInvariantError
        cfg = tiny_cfg(tmp_path, p=p, n=n, diagonal_only=True, reps=reps)
        model = build_experiment_model(cfg)
        raised = []

        def poisoning(model, x, rep, *args):
            if rep == fail_at:
                x[0, 0] = math.nan
            try:
                return run_replication(model, x, rep, *args)
            except ReplicationInvariantError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(harness, "run_replication", poisoning)
        before = _blas_counts()
        with pytest.raises(ReplicationInvariantError, match=f"replication {fail_at}:") as excinfo:
            run_replications(model, cfg, workers)
        assert raised == [excinfo.value]
        _assert_no_replication_thread_alive()
        assert _blas_counts() == before

    @pytest.mark.parametrize("pinned,workers,centered", _BLOCK_CASES)
    def test_block_matches_replication_loop(
        self, tmp_path, monkeypatch, pinned, workers, centered
    ):
        if not pinned:  # as on a BLAS without a thread-count symbol: draw inline
            monkeypatch.setattr(harness, "_openblas_threads", lambda: [])
        elif not harness._openblas_threads():
            pytest.skip("no OpenBLAS control symbol")
        cfg = tiny_cfg(tmp_path, p=30, n=40, centered=centered, reps=60)
        model = build_experiment_model(cfg)
        dist = parse_dist(cfg.dist)
        names = []
        original = lss.sample_block

        def recording(*a):
            names.append(threading.current_thread().name)
            time.sleep(1e-3)  # longer than a thread start, so the caller gets draws too
            return original(*a)

        monkeypatch.setattr(lss, "sample_block", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL between the threads often
        try:
            t, tc = run_replications(model, cfg, workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(names) == cfg.reps
        caller = threading.current_thread().name
        if pinned:  # the caller and the helpers all draw
            helpers = set(names) - {caller}
            assert caller in names and helpers
            assert len(helpers) <= workers
            assert all(name.startswith("covlss-replicate") for name in helpers)
        else:
            assert set(names) == {caller}
        monkeypatch.setattr(lss, "sample_block", original)
        want = [
            run_replication(model, _draw_x(dist, cfg.p, cfg.n, cfg.master_seed, rep), rep,
                            centered)
            for rep in range(cfg.reps)
        ]
        assert t.shape == (cfg.reps, 2)
        assert t.tolist() == [stats for stats, _ in want]
        if centered:
            assert tc.tolist() == [list(pair) for _, pair in want]
        else:
            assert tc is None

    @pytest.mark.skipif(not harness._openblas_threads(), reason="no OpenBLAS control symbol")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_kernels_at_a_time(self, tmp_path, monkeypatch, workers):
        # each kernel call is held open for a millisecond, so the threads
        # pile up at the kernel slots: as many kernels run as there are slots
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
        t, _ = run_replications(model, cfg, workers)
        assert t.shape == (cfg.reps, 2) and np.all(np.isfinite(t))
        assert peak[0] == workers
        assert len(callers) <= workers + 1

    def test_threads_capped_by_reps(self, tmp_path, monkeypatch):
        # 64 workers and 3 replications start at most 3 helper threads; an
        # executor sized past that fails before it starts any, so no run of
        # this test starts 64
        names = set()
        original = lss.sample_block

        class CappedExecutor(harness.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                assert max_workers <= 3
                super().__init__(max_workers, *args, **kwargs)

        def recording(*a):
            names.add(threading.current_thread().name)
            return original(*a)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", CappedExecutor)
        monkeypatch.setattr(lss, "sample_block", recording)
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "w1"), reps=3, workers=1))
        names.clear()
        run_experiment(tiny_cfg(tmp_path, output_dir=str(tmp_path / "w64"), reps=3, workers=64))
        assert len(names - {threading.current_thread().name}) <= 3
        assert (tmp_path / "w1" / "qq.csv").read_bytes() == (
            tmp_path / "w64" / "qq.csv"
        ).read_bytes()

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

        with pytest.raises(EnumerationGuardError, match="capped at 4, got 5"):
            run_verification_suite(5, 10, seed=0)
        with pytest.raises(ConfigError, match="max_dim must"):
            run_verification_suite(0, 10, seed=0)

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
        groups = set()
        for i in range(cases):
            dim = int(rng.integers(1, 5))
            a, b = (rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(2))
            a, b = (SymMatrix((0.5 * (m + m.T))[None]) for m in (a, b))
            dist = VERIFICATION_LAWS[i % 3]
            groups.add((dim, dist.selector))
            (alone_lhs,), (alone_rhs,) = verify_identities(a, b, dist)
            rows = summary.cases[3 * i : 3 * i + 3]
            for got, lemma, lhs, rhs in zip(rows, IDENTITY_COLUMNS, alone_lhs, alone_rhs):
                assert (got["lemma"], got["dims"], got["dist"]) == (lemma, dim, dist.selector)
                assert got["lhs"] == lhs
                assert got["rhs"] == pytest.approx(rhs, rel=1e-14, abs=0.0)
                assert got["abs_err"] == abs(got["lhs"] - got["rhs"])
        assert len(groups) == 12
        assert summary.cases[3 * cases]["lemma"] == "finite_n_moments"

    def test_verify_json_byte_identical_on_rerun(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        run_verification_suite(4, 300, 1, str(first))
        run_verification_suite(4, 300, 1, str(second))
        assert (first / "verify.json").read_bytes() == (second / "verify.json").read_bytes()

    @pytest.mark.parametrize("args,refused", [
        ((2.5, 3, 1), "max_dim"),  # once ran and returned its rows
        ((2, 10.0, 1), "cases"),
        ((2, 3, 1.5), "seed"),
        ((np.int64(2), np.int64(3), np.int64(1)), None),
    ], ids=["max_dim-float", "cases-float", "seed-float", "int64"])
    def test_integer_arguments_refused_or_canonical(self, args, refused):
        if refused:
            with pytest.raises(ConfigError, match=f"^{refused} must be of type int, got "):
                run_verification_suite(*args)
            return
        assert run_verification_suite(*args).cases == run_verification_suite(2, 3, 1).cases

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            run_verification_suite(2, 3, seed=-1)
        with pytest.raises(ConfigError, match="cases must"):
            run_verification_suite(2, 0, seed=0)

    def test_draw_and_rows_pinned(self):
        # sha256 of the rows as the per-case report objects wrote them before
        # the suite worked on columns; "version" is not part of the rows
        summary = run_verification_suite(4, 300, 1)
        blob = json.dumps(summary.cases, sort_keys=True).encode()
        assert len(summary.cases) == 3 * 300 + 16
        assert hashlib.sha256(blob).hexdigest() == (
            "8602b2f5e078d7e3ec380a407ef98bd684e90629ecf673ce2b04c2b1c567c2e8"
        )

    def test_nan_check_fails_the_suite(self, monkeypatch):
        _patch_check(monkeypatch, "verify_identities", _last_lhs_nan)
        summary = run_verification_suite(2, 30, 1)
        nan_rows = [row for row in summary.cases if math.isnan(row["abs_err"])]
        assert len(nan_rows) == 6  # one per group at max_dim 2
        assert all(row["lemma"] == "fourth_moment" and math.isnan(row["lhs"]) for row in nan_rows)
        assert math.isnan(summary.max_abs_err["fourth_moment"])
        assert not summary.ok
        others = set(summary.max_abs_err) - {"fourth_moment"}
        assert all(summary.max_abs_err[name] <= 1e-12 for name in others)


def _stdlib_dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _verify_payload(summary) -> dict:
    """The value whose dump verify.json must be, rebuilt from the summary."""
    return {
        "version": VERSION_STRING,
        "threshold": VERIFY_THRESHOLD,
        "max_abs_err": summary.max_abs_err,
        "ok": summary.ok,
        "cases": summary.cases,
    }


def _with_value(out, lemma, side, case, v):
    """The identity checks' (lhs, rhs) with ``v`` at ``case`` of one side of
    the column of ``lemma``."""
    sides = [np.array(column) for column in out]
    sides[side][case, IDENTITY_COLUMNS.index(lemma)] = v
    return tuple(sides)


def _with_finite(out, column, v):
    """A finite-n group's (enumerated, formula) with ``v`` as every model's
    formula value of ``column``."""
    enumerated, formula = out
    formula = formula.copy()
    formula[:, FINITE_N_COLUMNS.index(column)] = v
    return enumerated, formula


def _last_lhs_nan(out):
    """NaN in the fourth-moment lhs of the last case of the group."""
    return _with_value(out, "fourth_moment", 0, -1, np.nan)


def _first_lhs_moved(out):
    """The quadratic-covariance lhs of the first case of the group, moved by
    a finite 1e-6, far above VERIFY_THRESHOLD."""
    return _with_value(out, "quadratic_covariance", 0, 0, out[0][0, 0] + 1e-6)


def _patch_check(monkeypatch, name, corrupt):
    check = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args: corrupt(check(*args)))


# a NaN or infinity in either side of each identity, or in a finite-n row:
# each lambda maps the value to the check it goes through and how.  Every
# place fails the suite, e_t2_centered too, which is reported but not compared
_NON_FINITE_PLACES = [
    lambda v: ("verify_identities", lambda out: _with_value(out, IDENTITY_COLUMNS[0], 0, 0, v)),
    lambda v: ("verify_identities", lambda out: _with_value(out, IDENTITY_COLUMNS[1], 1, -1, v)),
    lambda v: ("verify_identities", lambda out: _with_value(out, IDENTITY_COLUMNS[2], 0, -1, v)),
    lambda v: ("verify_finite_n_moments", lambda out: _with_finite(out, "var_t1", v)),
    lambda v: ("verify_finite_n_moments", lambda out: _with_finite(out, "e_t2_centered", v)),
]


class TestReportWriter:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("place", _NON_FINITE_PLACES)
    def test_non_finite_refused_like_stdlib(self, tmp_path, monkeypatch, bad, place):
        _patch_check(monkeypatch, *place(bad))
        summary = run_verification_suite(2, 30, 1)
        assert summary.ok is False
        assert not all(math.isfinite(err) for err in summary.max_abs_err.values())
        with pytest.raises(ValueError):
            _stdlib_dump(_verify_payload(summary))
        out = tmp_path / "v"
        with pytest.raises(NonFiniteReportError, match="is not finite"):
            run_verification_suite(2, 30, 1, str(out))
        assert not out.exists() or list(out.iterdir()) == []

    def test_non_finite_finite_n_row_named(self, tmp_path, monkeypatch):
        # the first finite-n row, p=1, n=2 under the first law, is named by
        # its dims and law
        _patch_check(monkeypatch, *_NON_FINITE_PLACES[3](float("nan")))
        with pytest.raises(NonFiniteReportError) as refused:
            run_verification_suite(2, 30, 1, str(tmp_path))
        assert str(refused.value) == "finite_n_moments of case [1, 2], rademacher is not finite"

    def test_refused_report_leaves_no_file(self, tmp_path, monkeypatch):
        run_verification_suite(2, 30, 1, str(tmp_path))
        kept = tmp_path / "verify.json"
        before = kept.read_bytes()
        with monkeypatch.context() as patched:
            _patch_check(patched, *_NON_FINITE_PLACES[1](float("nan")))
            with pytest.raises(NonFiniteReportError):
                run_verification_suite(2, 30, 1, str(tmp_path))
        assert kept.read_bytes() == before
        assert list(tmp_path.iterdir()) == [kept]

        # a write that fails part way, after more than a write buffer of text
        def chunks():
            yield "x" * (1 << 20)
            raise OSError("no space left")

        with pytest.raises(OSError, match="no space"):
            harness._write_text(kept, chunks())
        assert kept.read_bytes() == before
        assert list(tmp_path.iterdir()) == [kept]

        # a NaN in summary.json is refused before the file is opened
        cfg = tiny_cfg(tmp_path, output_dir=str(tmp_path / "sim"))
        run_experiment(cfg)
        summary = tmp_path / "sim" / "summary.json"
        before = summary.read_bytes()
        qq_report = harness.qq_report
        monkeypatch.setattr(
            harness, "qq_report",
            lambda *args: dataclasses.replace(qq_report(*args), ks=float("nan")),
        )
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert summary.read_bytes() == before
        assert not list(summary.parent.glob(".*"))

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_FSIZE"), reason="needs a file-size limit")
    def test_failed_qq_write_leaves_previous_csv(self, tmp_path, child_env):
        run_experiment(tiny_cfg(tmp_path, centered=True, output_dir=str(tmp_path)))
        kept = {path: path.read_bytes() for path in tmp_path.iterdir()}
        # another seed's run in a child whose files may not pass 4 KiB: the
        # write of qq.csv (about 12 KB) fails part way, as on a full disk
        cfg = dataclasses.asdict(tiny_cfg(tmp_path, centered=True, master_seed=12))
        code = (
            "import json, resource, signal, sys; "
            "from covlss.harness import ExperimentConfig, run_experiment; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.RLIM_INFINITY)); "
            "run_experiment(ExperimentConfig(**json.loads(sys.argv[1])))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(dict(cfg, output_dir=str(tmp_path)))],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode != 0 and "File too large" in proc.stderr, proc.stderr
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == kept

    def test_signed_zeros_and_equal_sides_written_apart(self, tmp_path, monkeypatch):
        # 0.0 against -0.0 compares equal but is written apart, either way
        # round; an equal nonzero pair shares one text
        def signed(out):
            lhs, rhs = (np.array(side) for side in out)
            lhs[0, 0], rhs[0, 0] = 0.0, -0.0
            lhs[-1, 2], rhs[-1, 2] = -0.0, 0.0
            rhs[0, 1] = lhs[0, 1]
            return lhs, rhs

        _patch_check(monkeypatch, "verify_identities", signed)
        summary = run_verification_suite(2, 30, 1, str(tmp_path))
        text = (tmp_path / "verify.json").read_text()
        assert text == _stdlib_dump(_verify_payload(summary)) + "\n"
        assert '"lhs": 0.0,\n      "rhs": -0.0\n' in text
        assert '"lhs": -0.0,\n      "rhs": 0.0\n' in text

    @pytest.mark.parametrize("run", ["verify", "simulate"])
    def test_reports_equal_stdlib_dump(self, tmp_path, monkeypatch, run):
        if run == "verify":
            for max_dim in (1, 2, 3, 4):
                for seed in (2, 20211):
                    out = tmp_path / f"{max_dim}-{seed}"
                    summary = run_verification_suite(max_dim, 40, seed, str(out))
                    text = (out / "verify.json").read_text()
                    assert text == _stdlib_dump(_verify_payload(summary)) + "\n"
            return
        dumped = []

        def recording(value):
            dumped.append(value)
            return dump(value)

        dump = harness._dump
        monkeypatch.setattr(harness, "_dump", recording)
        run_experiment(tiny_cfg(tmp_path, centered=True, output_dir=str(tmp_path)))
        (value,) = dumped
        assert (tmp_path / "summary.json").read_text() == _stdlib_dump(value) + "\n"


class TestCli:
    def test_simulate_and_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli_out")
        rc = main([
            "simulate", "--p", "5", "--n", "8", "--dist", "normal",
            "--reps", "20", "--master-seed", "3", "--output-dir", out,
        ])
        assert rc == 0
        assert "ks =" in capsys.readouterr().out
        # no spike, so 1000^400 scales no eigenvalue and cannot overflow one
        rc = main(["simulate", "--p", "4", "--n", "1000", "--alpha", "400", "--beta", "0",
                   "--reps", "3", "--output-dir", str(tmp_path / "spike_free")])
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

    def test_verify_nan_exits_one_without_report(self, tmp_path, monkeypatch, capsys):
        _patch_check(monkeypatch, "verify_identities", _last_lhs_nan)
        first = next(
            i for i, row in enumerate(run_verification_suite(2, 30, 1).cases)
            if math.isnan(row["abs_err"])
        )
        out = tmp_path / "v"
        rc = main(["verify", "--max-dim", "2", "--cases", "30", "--seed", "1",
                   "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: fourth_moment of case {first // 3} is not finite: lhs nan")
        assert "Traceback" not in err
        assert not (out / "verify.json").exists()
        assert not out.exists() or list(out.iterdir()) == []

    def test_verify_failure_exits_one_with_report(self, tmp_path, monkeypatch, capsys):
        # a finite error above the threshold fails the suite; unlike a NaN it
        # is still reported, with "ok": false
        _patch_check(monkeypatch, "verify_identities", _first_lhs_moved)
        rc = main(["verify", "--max-dim", "2", "--cases", "30", "--seed", "1",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "FAIL: some identity exceeded 1e-09\n"
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["ok"] is False
        assert payload["max_abs_err"]["quadratic_covariance"] == pytest.approx(1e-6, rel=1e-6)

    def test_verify_negative_seed_exit_one(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--max-dim", "2", "--cases", "2", "--seed", "-1",
                   "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_out_of_range_exit_one(self, tmp_path, capsys, seed):
        out = tmp_path / "s"
        rc = main(["simulate", "--p", "4", "--n", "6", "--reps", "5",
                   "--master-seed", str(seed), "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: master_seed must lie in")
        assert not (out / "summary.json").exists()

    def test_degenerate_exit_one(self, tmp_path, capsys):
        rc = main([
            "simulate", "--p", "4", "--n", "8", "--dist", "rademacher",
            "--diagonal-only", "--reps", "5", "--output-dir", str(tmp_path / "d"),
        ])
        assert rc == 1
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.45 GiB for an array with "
                                         "shape (1000, 1000000) and data type float64"],
                             ids=["bare", "numpy"])
    def test_memory_error_exit_one(self, tmp_path, capsys, monkeypatch, message):
        # a run below the physical-memory ceiling can still exceed the memory
        # that is free; nothing is allocated here, the run raises at once
        def out_of_memory(cfg):
            raise MemoryError(message)

        monkeypatch.setattr("covlss.cli.run_experiment", out_of_memory)
        out = tmp_path / "m"
        rc = main(["simulate", "--p", "4", "--n", "6", "--reps", "5", "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: memory ran out{': ' * bool(message)}{message}\n"
        assert not (out / "summary.json").exists()

    def test_workers_below_one_exit_one(self, tmp_path, capsys):
        out = tmp_path / "w"
        rc = main(["simulate", "--p", "4", "--n", "6", "--reps", "5", "--workers", "0",
                   "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: workers must be a positive integer")
        assert not (out / "summary.json").exists()

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

    @pytest.mark.parametrize("fields,flags,message", _OVERSIZED_RUNS, ids=["p", "p*n", "reps"])
    def test_run_beyond_physical_memory_exit_one(
        self, tmp_path, capsys, monkeypatch, fields, flags, message
    ):
        monkeypatch.setattr(harness, "_physical_memory", lambda: _CEILING)
        out = tmp_path / "m"
        rc = main(["simulate", *flags, "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_grid_beyond_physical_memory_exit_one(self, tmp_path, capsys):
        out = tmp_path / "g"
        rc = main(["simulate", "--p", "4", "--n", "3", "--reps", "3",
                   "--grid-size", str(10**15), "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: grid_size 1000000000000000 needs")
        assert not out.exists()

    @pytest.mark.parametrize("dist", ["gamma:1e-300:1", "twopoint:1e-300", "bogus"])
    def test_bad_distribution_exit_one(self, tmp_path, capsys, dist):
        # gamma and two-point laws whose standardized moments overflow, and an
        # unknown law: each refused at the config gate on one stderr line
        out = tmp_path / "g"
        rc = main(["simulate", "--p", "2", "--n", "3", "--dist", dist,
                   "--reps", "5", "--output-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad distribution selector '{dist}'")
        assert err.count("\n") == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("case", ["output_dir_is_file", "output_dir_under_file"])
    def test_unusable_path_exit_one(self, tmp_path, capsys, case):
        # each raised an uncaught OSError (FileExistsError, NotADirectoryError)
        # before any report was written
        afile = tmp_path / "afile"
        afile.write_text("")
        sim = ["simulate", "--p", "3", "--n", "5", "--reps", "3"]
        path, argv = {
            "output_dir_is_file": (afile, sim + ["--output-dir", str(afile)]),
            "output_dir_under_file": (afile / "x", ["verify", "--max-dim", "1", "--cases", "1",
                                                    "--output-dir", str(afile / "x")]),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not list(tmp_path.rglob("summary.json"))
        assert not list(tmp_path.rglob("verify.json"))

    def test_console_entry_point(self, tmp_path, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "covlss.cli", "simulate", "--p", "4", "--n", "6",
             "--reps", "10", "--output-dir", str(tmp_path / "sp")],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_reference_panel_flags_resolve(self):
        # the first simulation panel's flag set parses to the expected config
        args = _build_parser().parse_args(
            "simulate --p 100 --n 1000 --alpha 0.2 --beta 0.1 "
            "--dist gamma:4:0.5 --reps 10000".split()
        )
        cfg = _resolve_simulate_config(args)
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
    diagonal_only=st.booleans(),
    grid_size=st.integers(2, 5),
)
def test_valid_configs_end_in_reports_or_a_diagnostic(
    p, n, alpha, beta, dist, reps, seed, centered, diagonal_only, grid_size
):
    # a config that can be made writes finite reports or exits 1 with
    # "error:", never a traceback and never a partial summary.json
    try:
        ExperimentConfig(p=p, n=n, alpha=alpha, beta=beta, dist=dist, reps=reps,
                         master_seed=seed, centered=centered, diagonal_only=diagonal_only,
                         grid_size=grid_size)
    except ConfigError:
        return
    argv = ["simulate", "--p", str(p), "--n", str(n), "--alpha", repr(alpha),
            "--beta", repr(beta), "--dist", dist, "--reps", str(reps),
            "--master-seed", str(seed), "--grid-size", str(grid_size), "--workers", "1"]
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
