"""End-to-end CLI behaviour: pipeline smoke, exit codes, determinism."""

import json
import os
import shutil

import pytest

from bearlab.cli import main


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    payload = {
        "out_dir": str(root / "out"),
        "dataset": {"kind": "synthetic", "catalog_size": 20, "users": 50,
                    "seq_length": 11, "seed": 4, "prefix_groups": 3,
                    "genres": 2, "title_length": [3, 5]},
        "model": {"embed_dim": 6, "hidden_dim": 6},
        "hyper": {"lam": 1.0, "xi": 1.0, "beam_width": 3},
        "decode": {"beam_width": 3},
        "objective": "sft",
        "epochs": 1, "batch_size": 16, "learning_rate": 0.4,
        "k_list": [5], "seeds": [0],
        "methods": [{"name": "sft", "objective": "sft"},
                    {"name": "bear", "objective": "bear"}],
    }
    path = root / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path), str(root / "out")


def test_full_pipeline_smoke(config_file, capsys):
    config, out = config_file
    for command in ("gen-data", "prepare", "train", "evaluate"):
        assert main([command, "--config", config]) == 0, command
    assert os.path.exists(os.path.join(out, "runs", "sft-seed0", "report.json"))
    assert os.path.exists(os.path.join(out, "runs", "sft-seed0", "report.csv"))
    report = json.loads(open(os.path.join(out, "runs", "sft-seed0",
                                          "report.json")).read())
    assert report["method"] == "sft"
    assert "5" in report["ndcg"]


def test_train_twice_same_seed_identical_checkpoint(config_file, tmp_path):
    config, out = config_file
    ckpt = os.path.join(out, "runs", "sft-seed7", "checkpoint")
    blobs = []
    for _ in range(2):
        assert main(["train", "--config", config, "--seed", "7"]) == 0
        blobs.append({
            name: open(os.path.join(ckpt, name), "rb").read()
            for name in ("params.bin", "model.json", "optimizer.bin",
                         "training_state.json")
        })
    assert blobs[0] == blobs[1]


def test_diagnose_writes_trace_with_bounded_survivors(config_file):
    config, out = config_file
    instances = json.loads(open(os.path.join(out, "dataset",
                                             "instances.json")).read())
    test_users = [i["user_id"] for i in instances["instances"]
                  if i["split"] == "test"]
    user = test_users[0]
    assert main(["diagnose", "--config", config, "--user", str(user)]) == 0
    trace = json.loads(open(os.path.join(out, "traces",
                                         f"user{user}.json")).read())
    assert trace["beam_width"] == 3
    for step in trace["steps"]:
        assert len(step["survivors"]) <= 3
        assert "bth_prefix_log_score" in step


def test_compare_command(config_file):
    config, out = config_file
    assert main(["compare", "--config", config]) == 0
    rows = open(os.path.join(out, "compare", "comparison.csv")).read().splitlines()
    assert rows[0] == "method,seed,K,ndcg,hr,pr,prop,epoch_time_s"
    methods = {line.split(",")[0] for line in rows[1:]}
    assert methods == {"sft", "bear"}


def test_unknown_subcommand_and_flags_exit_1(config_file, capsys):
    config, _ = config_file
    assert main(["frobnicate", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert main(["train", "--config", config, "--bogus"]) == 1


def test_missing_config_exits_1(capsys):
    assert main(["train", "--config", "/nonexistent.json"]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_invalid_config_value_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": {"catalog_size": 2}}), encoding="utf-8")
    assert main(["gen-data", "--config", str(path)]) == 1
    assert "catalog_size" in capsys.readouterr().err


def test_evaluate_without_checkpoint_exits_1(tmp_path, capsys):
    payload = {
        "out_dir": str(tmp_path / "o"),
        "dataset": {"catalog_size": 15, "users": 30, "seq_length": 11, "seed": 1,
                    "title_length": [3, 4]},
        "epochs": 1, "seeds": [0],
    }
    config = tmp_path / "c.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["gen-data", "--config", str(config)]) == 0
    assert main(["prepare", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config)]) == 1
    assert "train first" in capsys.readouterr().err


def test_truncated_checkpoint_exits_2(config_file, tmp_path, capsys):
    config, out = config_file
    assert main(["train", "--config", config]) == 0
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    blob = copy / "runs" / "sft-seed0" / "checkpoint" / "params.bin"
    blob.write_bytes(blob.read_bytes()[:1000])
    capsys.readouterr()
    assert main(["evaluate", "--config", config, "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert "failure: parameter blob" in err
    assert "Traceback" not in err
