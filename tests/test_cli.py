import json

import numpy as np
import pytest

from tvo.cli import main


def run(argv):
    return main(argv)


def test_check_identity_posterior_matched_toy(capsys):
    assert run(["check-identity", "--model", "toy", "--seed", "3", "--match-posterior"]) == 0
    out = capsys.readouterr().out
    residual = float(out.split("residual=")[1].split()[0])
    assert residual < 1e-12


def test_check_identity_random_instances_pass_at_default_grid():
    assert run(["check-identity", "--model", "toy", "--seed", "4"]) == 0
    assert run(["check-identity", "--model", "gaussian", "--seed", "4"]) == 0
    assert run(["check-identity", "--model", "conjugate-gaussian", "--seed", "4"]) == 0


def test_check_identity_coarse_grid_report_only(capsys):
    code = run(["check-identity", "--model", "toy", "--seed", "5", "--grid", "2",
                "--report-only"])
    assert code == 0  # visible residual, no exit failure in report mode
    out = capsys.readouterr().out
    assert "residual=" in out


def test_check_identity_toy_enumerates_the_requested_observables(capsys):
    # --d-x reaches ToyBernoulli: each width draws its own tables, and a width
    # outside 1..8 is a configuration error, not a silent clamp
    residuals = []
    for d_x in ("3", "5"):
        assert run(["check-identity", "--model", "toy", "--seed", "4", "--d-x", d_x]) == 0
        residuals.append(capsys.readouterr().out.split("residual=")[1].split()[0])
    assert residuals[0] != residuals[1]
    assert run(["check-identity", "--model", "toy", "--seed", "4", "--d-x", "9"]) == 2
    assert "D_x must be in [1, 8]" in capsys.readouterr().err


def test_check_gradients_all_networks_pass(capsys):
    assert run(["check-gradients", "--networks", "8", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_unknown_flag_exits_with_config_error_code(capsys):
    assert run(["train", "--no-such-flag"]) == 2


def test_help_exits_zero(capsys):
    assert run(["train", "--help"]) == 0
    assert "--beta1" in capsys.readouterr().out


def test_missing_checkpoint_is_io_error(tmp_path):
    assert run(["eval", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
                "--m-latent", "2", "--checkpoint", str(tmp_path / "missing.tvom")]) == 3


def test_non_utf8_checkpoint_segment_name_is_io_error(tmp_path):
    ck = tmp_path / "bad.tvom"
    ck.write_bytes(b"TVOM" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
                   + b"\xff\xfe" + (0).to_bytes(8, "little"))
    assert run(["eval", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
                "--m-latent", "2", "--checkpoint", str(ck)]) == 3


def test_reparam_on_discrete_model_is_config_error(tmp_path):
    code = run(["diagnose-grad-std", "--estimator", "reparam", "--model", "toy",
                "--dataset", "synthetic-toy", "--d-x", "2", "--m-latent", "2",
                "--S", "4", "--reps", "2", "--out", str(tmp_path / "g.csv")])
    assert code == 2


def test_diagnose_minimal_run_emits_one_row(tmp_path):
    out = tmp_path / "g.csv"
    code = run(["diagnose-grad-std", "--estimator", "cov", "--model", "toy",
                "--dataset", "synthetic-toy", "--d-x", "2", "--m-latent", "2",
                "--S", "4", "--reps", "2", "--K", "1", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "estimator,S,K,beta1,iteration,avg_std"
    assert len(lines) == 2
    assert lines[1].startswith("cov,4,1,")


def test_diagnose_multiple_estimators_and_sizes(tmp_path):
    out = tmp_path / "grid.csv"
    code = run(["diagnose-grad-std", "--estimator", "reparam,cov", "--model",
                "conjugate-gaussian", "--dataset", "gaussian", "--S-list", "5,10",
                "--reps", "4", "--K", "1", "--seed", "3", "--out", str(out),
                "--format", "jsonl"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 estimators x 2 sizes
    records = [json.loads(line) for line in (tmp_path / "grid.jsonl").read_text().splitlines()]
    assert {r["estimator"] for r in records} == {"reparam", "cov"}
    assert {r["S"] for r in records} == {5, 10}


def test_diagnose_rows_leave_the_schedule_values_no_estimator_read_empty(tmp_path):
    out = tmp_path / "g.csv"
    common = [*TOY, "--S", "4", "--reps", "2", "--K", "3", "--seed", "3", "--out", str(out)]
    assert run(["diagnose-grad-std", "--estimator", "reinforce,reinforce-baseline,cov",
                *common]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[:4] for r in rows] == [["reinforce", "4", "", ""],
                                     ["reinforce-baseline", "4", "", ""],
                                     ["cov", "4", "3", "0.3"]]
    for objective, spacing, want in (("elbo", "log", ["", ""]), ("wake_sleep", "log", ["3", "0.3"]),
                                     ("tvo_upper", "equal", ["3", ""])):
        assert run(["diagnose-grad-std", "--estimator", "cov", "--objective", objective,
                    "--spacing", spacing, *common]) == 0
        assert out.read_text().splitlines()[1].split(",")[2:4] == want


def test_sweep_axis_no_schedule_reads_exits_two(tmp_path, capsys):
    small = [*TOY, "--S", "4", "--iters", "2", "--batch", "4", "--train-items", "16",
             "--test-items", "8", "--out", str(tmp_path / "sw")]
    assert run(["sweep", *small, "--objective", "elbo", "--K-list", "1,4",
                "--beta1-list", "0.1,0.5"]) == 2
    assert "--K-list, --beta1-list" in capsys.readouterr().err
    assert run(["sweep", *small, "--spacing", "equal", "--beta1-list", "0.1,0.5"]) == 2
    assert "--beta1-list" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()
    assert run(["sweep", *small, "--K-list", "1,4", "--beta1-list", "0.1,0.5"]) == 0
    table = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in table[1:]] == [["0", "", "1"], ["1", "0.1", "4"],
                                                           ["3", "0.5", "4"]]


def test_export_curve_posterior_matched_is_flat(tmp_path):
    out = tmp_path / "curve.csv"
    # checkpoint the posterior-matched proposal so the curve runs on it
    from tvo.models import save_checkpoint
    from tvo.trainer import RunConfig, build_dataset, build_model

    config = RunConfig(model="toy", dataset="synthetic-toy", d_x=2, m_latent=2,
                       seed=6, generator_seed=999)
    data = build_dataset(config)
    model = build_model(config, data)
    params = model.posterior_proposal(model.init_params(6))
    ck = tmp_path / "post.tvom"
    save_checkpoint(ck, params)
    code = run(["export-curve", "--model", "toy", "--dataset", "synthetic-toy",
                "--d-x", "2", "--m-latent", "2", "--seed", "6",
                "--checkpoint", str(ck), "--betas", "0,0.25,0.5,0.75,1",
                "--eval-items", "16", "--eval-samples", "64", "--out", str(out)])
    assert code == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    g = rows["g_estimate"]
    assert np.max(g) - np.min(g) < 1e-10


def test_export_curve_endpoints_match_eval_estimates(tmp_path, capsys):
    curve_path = tmp_path / "curve.csv"
    args = ["--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
            "--m-latent", "2", "--seed", "8", "--eval-items", "16",
            "--eval-samples", "64"]
    assert run(["export-curve", *args, "--betas", "0,1", "--out", str(curve_path)]) == 0
    capsys.readouterr()
    assert run(["eval", *args, "--K", "1"]) == 0
    out = capsys.readouterr().out
    metrics = dict(line.split() for line in out.strip().splitlines())
    rows = np.genfromtxt(curve_path, delimiter=",", names=True)
    assert float(metrics["elbo"]) == rows["g_estimate"][0]
    assert float(metrics["eubo"]) == rows["g_estimate"][1]


def test_trained_sbn_curve_nondecreasing_within_noise(tmp_path):
    train_out = tmp_path / "run"
    sbn_args = ["--model", "sbn", "--dataset", "synthetic-sbn", "--d-x", "16",
                "--d-z", "6", "--seed", "9", "--train-items", "128", "--test-items", "32"]
    assert run(["train", *sbn_args, "--S", "8", "--K", "2", "--beta1", "0.3",
                "--lr", "3e-3", "--iters", "200", "--batch", "8",
                "--out", str(train_out)]) == 0
    curve_path = tmp_path / "curve.csv"
    assert run(["export-curve", *sbn_args,
                "--checkpoint", str(train_out / "checkpoint.tvom"),
                "--grid", "9", "--eval-items", "32", "--eval-samples", "500",
                "--out", str(curve_path)]) == 0
    rows = np.genfromtxt(curve_path, delimiter=",", names=True)
    g, se = rows["g_estimate"], rows["std_error"]
    for i in range(len(g) - 1):
        assert g[i + 1] - g[i] >= -2.0 * np.hypot(se[i], se[i + 1])


def test_diagnose_crn_flag_switches_estimator_path(tmp_path):
    args = ["diagnose-grad-std", "--estimator", "cov", "--model", "toy",
            "--dataset", "synthetic-toy", "--d-x", "2", "--m-latent", "2",
            "--S", "4", "--reps", "3", "--K", "2", "--beta1", "0.3", "--seed", "3"]
    assert run(args + ["--crn", "on", "--out", str(tmp_path / "on.csv")]) == 0
    assert run(args + ["--crn", "off", "--out", str(tmp_path / "off.csv")]) == 0
    on = (tmp_path / "on.csv").read_text().splitlines()[1]
    off = (tmp_path / "off.csv").read_text().splitlines()[1]
    assert on != off  # reuse on/off really changes the sampling plan


def test_cli_seeded_runs_are_byte_identical(tmp_path):
    args = ["train", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
            "--m-latent", "2", "--S", "6", "--K", "2", "--beta1", "0.3",
            "--iters", "30", "--batch", "8", "--seed", "4", "--train-items", "32",
            "--test-items", "16", "--eval-interval", "10", "--eval-samples", "32",
            "--single-thread"]
    assert run(args + ["--out", str(tmp_path / "r1")]) == 0
    assert run(args + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "metrics.csv").read_bytes() == \
        (tmp_path / "r2" / "metrics.csv").read_bytes()


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nS=12\nbeta1=0.05\n")
    out = tmp_path / "g.csv"
    code = run(["diagnose-grad-std", "--estimator", "cov", "--model", "toy",
                "--dataset", "synthetic-toy", "--d-x", "2", "--m-latent", "2",
                "--S", "4", "--reps", "2", "--K", "2", "--seed", "3",
                "--config", str(cfg), "--out", str(out)])
    assert code == 0
    line = out.read_text().strip().splitlines()[1]
    assert line.startswith("cov,12,2,0.05")  # file values win over --S 4 (K 2 reads beta1)


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    assert run(["eval", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
                "--m-latent", "2", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key", ["labels", "test_labels"])
def test_config_file_label_keys_are_unknown(tmp_path, capsys, key):
    # a config.cfg written before the label flags were removed holds both lines
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"model=toy\n{key}=x\n")
    for command in ("train", "sweep", "eval", "diagnose-grad-std", "export-curve"):
        assert run([command, "--config", str(cfg)]) == 2
        assert f"{cfg}:2: unknown key '{key}'" in capsys.readouterr().err


def test_sweep_cli_single_cell(tmp_path):
    code = run(["sweep", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
                "--m-latent", "2", "--S", "4", "--K", "1", "--iters", "10",
                "--batch", "4", "--seed", "2", "--train-items", "16",
                "--test-items", "8", "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()


def test_sweep_cli_exits_one_when_a_cell_fails(tmp_path, capsys):
    code = run(["sweep", "--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2",
                "--m-latent", "2", "--S", "4", "--K", "2", "--iters", "10",
                "--beta1-list", "2.0,0.3",  # 2.0 is invalid for log spacing
                "--batch", "4", "--seed", "2", "--train-items", "16",
                "--test-items", "8", "--out", str(tmp_path / "sw")])
    assert code == 1
    table = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(table) == 3
    assert "error: DomainError:" in table[1] and ",ok," in table[2]
    assert "1 of 2 sweep cells failed" in capsys.readouterr().err


def test_sweep_cli_exits_one_when_cells_abort(tmp_path, capsys, monkeypatch):
    import tvo.trainer as trainer_mod
    from tvo import autodiff as ad

    class Exploding(trainer_mod.ToyBernoulli):
        def __init__(self):
            super().__init__(m=2, d_x=2)
            self.calls = 0

        def log_joint(self, view, x, z):
            out = super().log_joint(view, x, z)
            self.calls += 1
            return ad.add(out, np.nan) if self.calls > 6 else out

    monkeypatch.setattr(trainer_mod, "build_model", lambda cfg, dat: Exploding())
    args = ["--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2", "--m-latent", "2",
            "--S", "4", "--K", "2", "--iters", "10", "--batch", "4", "--seed", "2",
            "--train-items", "16", "--test-items", "8"]
    assert run(["train", *args]) == 1
    assert "run aborted" in capsys.readouterr().out
    code = run(["sweep", *args, "--beta1-list", "0.1,0.3", "--out", str(tmp_path / "sw")])
    assert code == 1
    table = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(table) == 3
    assert all(",aborted," in row for row in table[1:])
    assert "2 of 2 sweep cells failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::tvo.errors.DegenerateWeightsWarning")
def test_eval_of_a_checkpoint_reproduces_the_runs_own_evaluation(tmp_path, capsys):
    # train and eval each derive the evaluation seed and items; they must agree
    args = ["--model", "sbn", "--dataset", "synthetic-sbn", "--d-x", "16", "--d-z", "4",
            "--iters", "30", "--eval-items", "20", "--eval-samples", "50", "--single-thread"]
    out = tmp_path / "run"
    assert run(["train", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["eval", *args, "--checkpoint", str(out / "checkpoint.tvom")]) == 0
    metrics = {name: float(value) for name, value in
               (line.split() for line in capsys.readouterr().out.strip().splitlines())}
    last = np.genfromtxt(out / "metrics.csv", delimiter=",", names=True)[-1]
    assert metrics["iwae"] == last["test_log_evidence"]
    assert metrics["iwae"] - metrics["elbo"] == last["kl_gap"]


TOY = ["--model", "toy", "--dataset", "synthetic-toy", "--d-x", "2", "--m-latent", "2"]


def test_no_flags_parse_to_the_default_run_config():
    from tvo.cli import _run_config, build_parser
    from tvo.trainer import RunConfig

    for command in ("train", "sweep", "eval", "diagnose-grad-std", "export-curve"):
        assert _run_config(build_parser().parse_args([command])) == RunConfig()


def test_check_identity_takes_only_the_flags_it_reads(tmp_path, capsys):
    from tvo.cli import build_parser
    from tvo.trainer import RunConfig

    args = build_parser().parse_args(["check-identity"])
    read = {"model", "seed", "m_latent", "d_x", "grid", "report_only", "match_posterior"}
    assert set(vars(args)) == read | {"command", "config", "func", "parser"}
    for name in ("model", "seed", "m_latent", "d_x"):
        assert getattr(args, name) == getattr(RunConfig(), name)
    base = ["check-identity", "--model", "toy", "--seed", "3", "--grid", "200", "--report-only"]
    for extra in (["--format", "jsonl"], ["--out", str(tmp_path)], ["--iters", "5"], ["--S", "4"],
                  ["--single-thread"], ["--checkpoint", str(tmp_path / "x.tvom")]):
        assert run(base + extra) == 2
    cfg = tmp_path / "identity.cfg"
    cfg.write_text("model=gaussian\nseed=4\ngrid=500\n")
    assert run(["check-identity", "--config", str(cfg)]) == 0
    assert "model=gaussian grid=500" in capsys.readouterr().out
    cfg.write_text("S=4\n")
    assert run(["check-identity", "--config", str(cfg)]) == 2
    assert "unknown key 'S'" in capsys.readouterr().err


def test_desk_caps_apply_to_every_run_subcommand(tmp_path):
    runs = {
        "eval": ["eval", *TOY, "--eval-items", "4"],
        "export-curve": ["export-curve", *TOY, "--eval-items", "4", "--betas", "0,1",
                         "--out", str(tmp_path / "curve.csv")],
        "diagnose-grad-std": ["diagnose-grad-std", *TOY, "--S", "4", "--reps", "2",
                              "--out", str(tmp_path / "g.csv")],
    }
    for argv in runs.values():
        assert run(argv + ["--eval-samples", "6000"]) == 2
        assert run(argv + ["--eval-samples", "6000", "--allow-full-scale"]) == 0


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--eval-items", "0"),
    ("export-curve", "--eval-items", "0"),
    ("train", "--test-items", "0"),
    ("train", "--train-items", "0"),
    ("train", "--eval-interval", "-1"),
    ("train", "--grad-std-every", "-1"),
    ("train", "--limit", "-1"),
], ids=lambda v: v.strip("-"))
def test_empty_batches_and_negative_counts_are_config_errors(tmp_path, capsys, command, flag, value):
    argv = [command, *TOY, "--iters", "2", "--eval-samples", "4", flag, value]
    if command == "export-curve":
        argv += ["--betas", "0,1", "--out", str(tmp_path / "curve.csv")]
    assert run(argv) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_eval_items_beyond_the_test_split_are_config_errors(tmp_path, capsys):
    # a set --eval-items (flag or config file) must fit the test split; the
    # unset default takes at most its 200 items
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eval_items=9\n")
    small = [*TOY, "--test-items", "5", "--iters", "2", "--eval-samples", "4"]
    runs = {"train": ["train", *small], "sweep": ["sweep", *small], "eval": ["eval", *small],
            "export-curve": ["export-curve", *small, "--betas", "0,1",
                             "--out", str(tmp_path / "curve.csv")]}
    for argv in runs.values():
        for given in (["--eval-items", "200"], ["--config", str(cfg)]):
            assert run(argv + given) == 2
            err = capsys.readouterr().err
            assert "eval_items" in err and " 5 " in err and (" 200 " in err or " 9 " in err)
        assert run(argv + ["--eval-items", "5"]) == 0
        assert run(argv) == 0


def test_checkpoint_flag_only_where_it_is_read(tmp_path):
    for command in ("train", "sweep", "check-identity"):
        assert run([command, *TOY, "--checkpoint", str(tmp_path / "x.tvom")]) == 2
    diag = ["diagnose-grad-std", *TOY, "--S", "4", "--reps", "3", "--K", "1", "--seed", "3"]
    assert run(diag + ["--checkpoint", str(tmp_path / "missing.tvom"),
                       "--out", str(tmp_path / "none.csv")]) == 3
    assert run(["train", *TOY, "--S", "4", "--K", "1", "--iters", "60", "--batch", "8",
                "--lr", "0.05", "--seed", "3", "--train-items", "32", "--test-items", "8",
                "--out", str(tmp_path / "run")]) == 0
    assert run(diag + ["--out", str(tmp_path / "init.csv")]) == 0
    assert run(diag + ["--checkpoint", str(tmp_path / "run" / "checkpoint.tvom"),
                       "--out", str(tmp_path / "trained.csv")]) == 0
    at_init = (tmp_path / "init.csv").read_text().splitlines()[1]
    trained = (tmp_path / "trained.csv").read_text().splitlines()[1]
    assert at_init != trained
    assert run(diag + ["--checkpoint", str(tmp_path / "run" / "checkpoint.tvom"),
                       "--pretrain-iters", "5", "--out", str(tmp_path / "both.csv")]) == 2


def test_config_cfg_reruns_the_run(tmp_path):
    first, second = tmp_path / "A", tmp_path / "B"
    assert run(["train", *TOY, "--S", "6", "--K", "3", "--beta1", "0.2", "--lr", "0.01",
                "--iters", "30", "--batch", "8", "--seed", "7", "--train-items", "32",
                "--test-items", "16", "--eval-interval", "10", "--eval-samples", "32",
                "--single-thread", "--out", str(first)]) == 0
    written = {p.name: p.read_bytes() for p in first.iterdir()}
    assert "out=" not in written["config.cfg"].decode()
    assert run(["train", "--config", str(first / "config.cfg"), "--out", str(second)]) == 0
    assert {p.name: p.read_bytes() for p in first.iterdir()} == written
    assert (second / "metrics.csv").read_bytes() == written["metrics.csv"]
    assert (second / "config.cfg").read_bytes() == written["config.cfg"]


def test_config_file_values_are_checked_like_flags(tmp_path, capsys):
    from tvo.cli import _apply_config_file, build_parser

    cfg = tmp_path / "run.cfg"
    for bad in ("S=ten", "crn=banana", "format=xml", "single-thread=maybe"):
        cfg.write_text(f"# one bad line\n{bad}\n")
        assert run(["eval", *TOY, "--config", str(cfg)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err
    for text, want in (("crn=True", True), ("crn=off", False), ("crn=ON", True)):
        cfg.write_text(text + "\n")
        args = _apply_config_file(build_parser().parse_args(["train", "--config", str(cfg)]))
        assert args.crn is want
    assert run(["train", "--crn", "banana"]) == 2


def _runs_of_every_table(out, *extra):
    """Wake-sleep train, a 2-cell sweep, eval, export-curve and
    diagnose-grad-std into `out`, then a rerun from the train's config.cfg."""
    small = [*TOY, "--S", "4", "--K", "2", "--iters", "4", "--batch", "4",
             "--eval-interval", "2", "--train-items", "16", "--test-items", "8",
             "--eval-samples", "8", "--single-thread", *extra]
    assert run(["train", *small, "--objective", "wake_sleep", "--out", str(out / "ws")]) == 0
    assert run(["sweep", *small, "--beta1-list", "0.2,0.4", "--out", str(out / "sw")]) == 0
    assert run(["eval", *small, "--out", str(out / "ev")]) == 0
    assert run(["export-curve", *small, "--grid", "3", "--out", str(out / "curve" / "c.csv")]) == 0
    assert run(["diagnose-grad-std", *small, "--reps", "2", "--out", str(out / "g" / "g.csv")]) == 0
    assert run(["train", "--config", str(out / "ws" / "config.cfg"),
                "--out", str(out / "rerun")]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
            if p.suffix in (".csv", ".jsonl")}


def test_jsonl_mirrors_every_csv_and_csv_alone_writes_none(tmp_path, capsys):
    import csv

    from tvo.util import format_cell

    mirrored = _runs_of_every_table(tmp_path / "jsonl", "--format", "jsonl")
    plain = _runs_of_every_table(tmp_path / "csv")
    tables = {"ws/metrics.csv", "ws/metrics_sleep.csv", "sw/sweep.csv",
              "sw/cell000/metrics.csv", "sw/cell001/metrics.csv", "ev/eval.csv",
              "curve/c.csv", "g/g.csv", "rerun/metrics.csv", "rerun/metrics_sleep.csv"}
    assert set(plain) == tables
    assert set(mirrored) == tables | {name[:-3] + "jsonl" for name in tables}
    for name in tables:
        assert mirrored[name] == plain[name]  # the format never changes a CSV
        header, *rows = csv.reader(mirrored[name].decode().splitlines())
        records = [json.loads(line) for line in mirrored[name[:-3] + "jsonl"].splitlines()]
        assert [list(r) for r in records] == [header] * len(rows)
        assert [[format_cell(v) for v in r.values()] for r in records] == rows


@pytest.mark.parametrize("command,flag,value", [
    ("sweep", "--beta1-list", "0.2,x"),
    ("sweep", "--K-list", "2,x"),
    ("sweep", "--S-list", "5,x"),
    ("diagnose-grad-std", "--S-list", "5,,6"),
    ("export-curve", "--betas", "0.5,x"),
    ("export-curve", "--grid", "0"),
], ids=lambda v: v.strip("-"))
def test_malformed_lists_and_an_empty_grid_are_config_errors(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n")
    for given in ([flag, value], ["--config", str(cfg)]):
        assert run([command, *TOY, *given, "--out", str(tmp_path / "never.csv")]) == 2
        assert flag[2:] in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--model", "sbn", "--dataset", "synthetic-sbn", "--d-z", "0"],
    ["--model", "gaussian-vae", "--dataset", "synthetic-sbn", "--d-z", "0"],
    ["--model", "sbn", "--dataset", "synthetic-sbn", "--d-x", "0"],
    ["--model", "conjugate-gaussian", "--dataset", "synthetic-toy"],
    ["--lr", "-1"],
    ["--lr", "0"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv))
def test_bad_sizes_pairings_and_rates_are_config_errors(capsys, argv):
    assert run(["train", "--iters", "2", *argv]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_export_curve_betas_must_increase(tmp_path, capsys):
    for betas in ("1,0,0.5,0.5", "0,0.5,0.5,1", "0.5,0.2"):
        assert run(["export-curve", *TOY, "--betas", betas, "--out", str(tmp_path / "c.csv")]) == 2
        assert "strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_eval_warns_on_a_degenerate_posterior_column(capsys):
    from tvo.errors import DegenerateWeightsWarning

    with pytest.warns(DegenerateWeightsWarning, match="effective sample size below 2"):
        assert run(["eval", *TOY, "--eval-samples", "2"]) == 0
