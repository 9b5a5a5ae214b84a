"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, load_model, main
from repro.data.dataset import QAOADataset
from repro.exceptions import ModelError


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(
            ["generate", "--out", "x.json"]
        )
        assert args.num_graphs == 150
        assert args.command == "generate"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_serve_and_predict_registered(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).command == "serve"
        assert parser.parse_args(["predict"]).command == "predict"

    def test_serve_max_inflight_reaches_the_server(self, monkeypatch):
        from repro.serving.http import ServingHTTPServer

        seen = {}

        def serve_briefly(server):
            seen["gate"] = server.admission.max_inflight
            server.start_background()
            url = f"http://127.0.0.1:{server.port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                seen["healthz"] = json.load(response)["config"]["max_inflight"]
            server.close()

        monkeypatch.setattr(ServingHTTPServer, "serve_forever", serve_briefly)
        assert main(["serve", "--port", "0", "--max-inflight", "3"]) == 0
        assert seen == {"gate": 3, "healthz": 3}


class TestEndToEnd:
    def test_generate_train_evaluate_roundtrip(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"

        code = main(
            [
                "generate",
                "--num-graphs", "16",
                "--min-nodes", "4",
                "--max-nodes", "7",
                "--iters", "15",
                "--seed", "1",
                "--out", str(dataset_path),
            ]
        )
        assert code == 0
        assert dataset_path.exists()
        dataset = QAOADataset.load(dataset_path)
        assert len(dataset) == 16

        code = main(
            [
                "train",
                "--dataset", str(dataset_path),
                "--arch", "gcn",
                "--epochs", "3",
                "--seed", "1",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.arch == "gcn"
        assert not model.training

        code = main(
            [
                "evaluate",
                "--dataset", str(dataset_path),
                "--model", str(model_path),
                "--test-size", "4",
                "--eval-iters", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gcn" in out
        assert "Improvement" in out

    def test_saved_model_predictions_stable(self, tmp_path):
        dataset_path = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"
        main(
            [
                "generate", "--num-graphs", "10", "--min-nodes", "4",
                "--max-nodes", "6", "--iters", "10", "--seed", "2",
                "--out", str(dataset_path),
            ]
        )
        main(
            [
                "train", "--dataset", str(dataset_path), "--arch", "gin",
                "--epochs", "2", "--seed", "2", "--out", str(model_path),
            ]
        )
        model_a = load_model(model_path)
        model_b = load_model(model_path)
        dataset = QAOADataset.load(dataset_path)
        graph = dataset[0].graph
        np.testing.assert_allclose(
            model_a.predict([graph]), model_b.predict([graph])
        )

    def test_predict_with_model(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"
        main(
            [
                "generate", "--num-graphs", "8", "--min-nodes", "4",
                "--max-nodes", "6", "--iters", "8", "--seed", "5",
                "--out", str(dataset_path),
            ]
        )
        main(
            [
                "train", "--dataset", str(dataset_path), "--arch", "gin",
                "--epochs", "2", "--seed", "5", "--out", str(model_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "predict", "--model", str(model_path),
                "--edges", "0-1,1-2,2-3,3-0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "model"
        assert len(payload["gammas"]) == 1

    def test_predict_without_model_uses_fallback(self, capsys):
        code = main(["predict", "--edges", "0-1,1-2,2-0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] in ("fixed_angle", "analytic", "random")

    def test_evaluate_rejects_unversioned_checkpoint(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.json"
        model_path = tmp_path / "old-model.json"
        main(
            [
                "generate", "--num-graphs", "8", "--min-nodes", "4",
                "--max-nodes", "6", "--iters", "8", "--seed", "6",
                "--out", str(dataset_path),
            ]
        )
        # A pre-versioning checkpoint: valid JSON, no format_version.
        model_path.write_text(json.dumps({"arch": "gin", "p": 1}))
        with pytest.raises(ModelError, match="format_version"):
            main(
                [
                    "evaluate",
                    "--dataset", str(dataset_path),
                    "--model", str(model_path),
                    "--test-size", "2",
                    "--eval-iters", "2",
                ]
            )

    def test_reproduce_small(self, capsys):
        code = main(
            [
                "reproduce",
                "--num-graphs", "16",
                "--test-size", "4",
                "--epochs", "3",
                "--label-iters", "10",
                "--eval-iters", "3",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Improvement" in out


class TestTrainingFlags:
    def test_train_performance_flags_registered(self):
        base = ["train", "--dataset", "ds.json", "--out", "model.json"]
        args = build_parser().parse_args(
            base + ["--profile", "--no-batch-cache"]
        )
        assert args.profile and args.no_batch_cache
        defaults = build_parser().parse_args(base)
        assert not defaults.profile
        assert not defaults.no_batch_cache

    def test_train_profile_prints_report(self, tmp_path, capsys):
        dataset_path = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"
        main(
            [
                "generate", "--num-graphs", "10", "--min-nodes", "4",
                "--max-nodes", "6", "--iters", "8", "--seed", "7",
                "--out", str(dataset_path),
            ]
        )
        code = main(
            [
                "train", "--dataset", str(dataset_path), "--arch", "gin",
                "--epochs", "2", "--seed", "7", "--profile",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "training profile" in out
        assert "forward" in out
        assert "backward" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["train", "--dataset", "ds.json", "--out", "m.json",
             "--engine", "eager"],
            ["train", "--dataset", "ds.json", "--out", "m.json",
             "--backend", "numpy"],
            ["train", "--dataset", "ds.json", "--out", "m.json",
             "--fast-kernels"],
            ["serve", "--max-wait-ms", "2"],
            ["serve", "--workers", "2"],
            ["serve", "--inference-threads", "4"],
            ["serve", "--shed-deadline-ms", "1000"],
            ["serve", "--shed-factor", "2"],
            ["serve", "--l1-cache-size", "2048"],
            ["serve", "--cache-snapshot", "cache.json"],
            ["evaluate", "--model", "m.json", "--dataset", "ds.json",
             "--batched"],
            ["evaluate", "--model", "m.json", "--dataset", "ds.json",
             "--max-bucket", "8"],
        ],
    )
    def test_removed_command_and_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


def test_commands_do_not_import_scipy():
    """scipy serves two reference paths only; no command pays for it."""
    code = (
        "import sys\n"
        "import repro.cli, repro.data.generation, repro.pipeline.training\n"
        "import repro.serving.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
