import dataclasses
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from poem.actions import Action
from poem.cli import main
from poem.config import build_runtime, load_task_config
from poem.encoder import Embedding
from poem.engine import TrainConfig
from poem.errors import ConfigError
from poem.memory import EpisodicMemory, StateRecord

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "descending_small.json"
SYNTH_CONFIG = ROOT / "demos" / "configs" / "synthetic_small.json"
OFFLINE_CONFIG = ROOT / "demos" / "configs" / "sentiment_offline.json"
REMOTE_CONFIG = ROOT / "demos" / "configs" / "sentiment_remote.json"


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestConfigLoading:
    def test_bundled_configs_validate(self):
        for path in (SYNTH_CONFIG, OFFLINE_CONFIG, REMOTE_CONFIG):
            cfg = load_task_config(path)
            assert cfg.train.m == 4

    def test_synthetic_config_inherits_scenario_train_block(self):
        cfg = load_task_config(SYNTH_CONFIG)
        assert cfg.synthetic
        assert cfg.train.iterations == 120
        assert cfg.train.k == 10

    def test_offline_runtime_builds(self):
        runtime = build_runtime(load_task_config(OFFLINE_CONFIG))
        assert len(runtime.d_train) == 8
        assert len(runtime.ic.examples) == 12
        assert runtime.capacity == 8

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_task_config(tmp_path / "nope.json")

    def test_missing_dataset_named(self, tmp_path):
        doc = json.loads(OFFLINE_CONFIG.read_text())
        doc["datasets"]["train"] = "missing.jsonl"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="missing.jsonl"):
            load_task_config(bad)

    def test_unknown_placeholder_rejected_offline(self, tmp_path):
        doc = json.loads(REMOTE_CONFIG.read_text())
        doc["datasets"] = {
            "train": str(ROOT / "demos" / "data" / "sentiment_train.jsonl"),
            "ic": str(ROOT / "demos" / "data" / "sentiment_ic.jsonl"),
        }
        doc["templates"]["example"] = "Review: {bogus}. Sentiment: {label}"
        # unroutable endpoints: validation must fail before any network use
        doc["encoder"] = {"backend": "remote", "url": "http://127.0.0.1:1/"}
        doc["lm"] = {"backend": "remote", "url": "http://127.0.0.1:1/"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="bogus"):
            load_task_config(bad)

    @staticmethod
    def _offline_doc(**changes):
        """sentiment_offline.json with absolute dataset paths, so it can move."""
        doc = json.loads(OFFLINE_CONFIG.read_text())
        doc["datasets"] = {
            split: str((OFFLINE_CONFIG.parent / rel).resolve())
            for split, rel in doc["datasets"].items()
        }
        doc.update(changes)
        return doc

    @pytest.mark.parametrize("mode", ["synthetic", "dataset"])
    def test_scenario_read_once(self, tmp_path, mode):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(SCENARIO.read_bytes())
        if mode == "synthetic":
            doc = json.loads(SYNTH_CONFIG.read_text())
            doc["synthetic"]["scenario"] = scenario.name
        else:
            doc = self._offline_doc(lm={"backend": "synthetic", "scenario": scenario.name})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        cfg = load_task_config(path)
        scenario.unlink()
        runtime = build_runtime(cfg)
        assert runtime.scorer is not None

    def test_lm_scenario_m_checked_at_build(self, tmp_path):
        doc = self._offline_doc()
        doc["lm"]["scenario"] = str(SCENARIO)
        doc["train"]["m"] = 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        cfg = load_task_config(path)  # ordering without scoring still accepts it
        assert build_runtime(cfg, need_scoring=False).scorer is None
        with pytest.raises(ConfigError, match=r"lm scenario m=4 != train\.m=3"):
            build_runtime(cfg)
        result = run("eval", "--config", path)
        assert result.exit_code == 2
        assert "lm scenario m=4 != train.m=3" in result.output

    def test_every_train_field_settable(self, tmp_path):
        values = {"iterations": 3, "minibatch_size": 5, "epsilon_initial": 0.5,
                  "epsilon_final": 0.25, "m": 3, "k": 2, "seed": 5,
                  "exploration_mode": "exhaustive", "in_flight": 2}
        assert set(values) == {f.name for f in dataclasses.fields(TrainConfig)}
        doc = _edited(_offline_config(), {"train": values})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert dataclasses.asdict(load_task_config(path).train) == values

    def test_train_m_must_match_scenario(self, tmp_path):
        doc = {"synthetic": {"scenario": str(SCENARIO)}, "train": {"m": 3}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="m"):
            load_task_config(bad)


def _edited(doc, changes):
    """doc with the value at each dotted key path in changes replaced."""
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
    return doc


def _offline_config():
    doc = TestConfigLoading._offline_doc()
    doc["lm"]["scenario"] = str(SCENARIO)
    return doc


MISTYPED = [
    ("scenario", {"sizes.train": "x"}),
    ("scenario", {"cluster_spread": "abc"}),
    ("scenario", {"landscape.noise_sigma": "abc"}),
    ("scenario", {"landscape.position_weights": "4321"}),
    ("scenario", {"train": "abc"}),
    ("scenario", {"sizes.train": 0}),
    ("scenario", {"labels": 0}),
    ("scenario", {"m": 9, "train.m": 9}),
    ("scenario", {"train.iterations": True}),
    ("scenario", {"train.seed": -1}),
    ("scenario", {"landscape.noise_sigma": -1}),
    ("scenario", {"landscape.noise_sigma": math.nan}),
    ("scenario", {"cluster_spread": math.inf}),
    ("scenario", {"landscape.position_weights": [1, math.nan, 1, 1]}),
    ("scenario", {"landscape.seed": True}),
    ("scenario", {"landscape.position_weights": [1, 2, 3]}),
    ("scenario", {"landscape.position_weights": None}),
    ("scenario", {"landscape.seed": 2**63}),
    ("scenario", {"seed": -1}),
    ("scenario", {"m": 10**9}),
    ("config", {"train.k": "3"}),
    ("config", {"train.epsilon_final": "0.1"}),
    ("config", {"train.seed": "x"}),
    ("config", {"encoder.seed": "abc"}),
    ("config", {"encoder.seed": 2**63}),
    ("config", {"capacity": True}),
    ("config", {"eval": {"baselines": 5}}),
    ("config", {"encoder.url": 5}),
    ("config", {"lm.url": 5}),
    ("config", {"reward.lambda1": True}),
    ("config", {"reward.lambda1": "2"}),
    ("config", {"reward.lambda1": math.inf}),
    ("config", {"reward.normalize_exact_match": "no"}),
]


@pytest.mark.parametrize("kind,changes", MISTYPED,
                         ids=[kind + ":" + ",".join(f"{key}={json.dumps(value)}" for key, value
                                                    in changes.items()) for kind, changes in MISTYPED])
def test_mistyped_value_is_a_validation_error(tmp_path, kind, changes):
    path = tmp_path / f"{kind}.json"
    if kind == "scenario":
        path.write_text(json.dumps(_edited(json.loads(SCENARIO.read_text()), changes)))
        result = run("simulate", "--scenario", path)
    else:
        path.write_text(json.dumps(_edited(_offline_config(), changes)))
        result = run("train", "--config", path, "--out", tmp_path / "memory.json")
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stderr.startswith("error:")
    assert str(path) in result.stderr
    assert "Traceback" not in result.output


class TestTrainCommand:
    def test_train_writes_snapshot_and_report(self, tmp_path):
        out = tmp_path / "memory.json"
        result = run("train", "--config", SYNTH_CONFIG, "--out", out, "--json")
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["iterations"] == 120
        assert report["states_stored"] == 16
        assert out.exists()

    def test_train_byte_reproducible(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            result = run("train", "--config", SYNTH_CONFIG, "--out", out, "--json")
            assert result.exit_code == 0, result.output
            outputs.append((result.output, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_missing_config_exits_2(self, tmp_path):
        result = run("train", "--config", tmp_path / "nope.json")
        assert result.exit_code == 2
        assert "nope.json" in result.output

    def test_seed_override_changes_report_seed(self, tmp_path):
        out = tmp_path / "m.json"
        result = run("train", "--config", SYNTH_CONFIG, "--out", out, "--seed", 123, "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["seed"] == 123

    def test_snapshot_every(self, tmp_path):
        out = tmp_path / "m.json"
        result = run(
            "train", "--config", OFFLINE_CONFIG, "--out", out, "--snapshot-every", 10
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "m.iter0010.json").exists()
        assert (tmp_path / "m.iter0020.json").exists()


class TestOrderCommand:
    @pytest.fixture()
    def trained_memory(self, tmp_path):
        out = tmp_path / "memory.json"
        result = run("train", "--config", OFFLINE_CONFIG, "--out", out)
        assert result.exit_code == 0, result.output
        return out

    def test_order_single_query(self, trained_memory):
        result = run(
            "order", "--config", OFFLINE_CONFIG, "--memory", trained_memory,
            "--query", "a charming and tender film", "--json",
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert len(doc["queries"]) == 1
        entry = doc["queries"][0]
        assert len(entry["indices"]) == 4
        assert entry["prompt"].endswith("Sentiment: ")
        parts = entry["action"].split("-")
        assert sorted(parts) == sorted(str(i) for i in range(1, 5))

    def test_novel_far_query_still_valid(self, trained_memory):
        result = run(
            "order", "--config", OFFLINE_CONFIG, "--memory", trained_memory,
            "--query", "zebras photosynthesize quarterly spreadsheets", "--json",
        )
        assert result.exit_code == 0, result.output

    def test_order_from_file(self, trained_memory, tmp_path):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            '{"fields": {"sentence": "lovely and warm"}}\n'
            '{"fields": {"sentence": "dull and loud"}}\n'
        )
        result = run(
            "order", "--config", OFFLINE_CONFIG, "--memory", trained_memory,
            "--file", queries, "--json",
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["queries"]) == 2

    def test_no_queries_exits_2(self, trained_memory):
        result = run("order", "--config", OFFLINE_CONFIG, "--memory", trained_memory)
        assert result.exit_code == 2
        assert "no queries" in result.output

    def test_json_round_trips(self, trained_memory):
        args = ("order", "--config", OFFLINE_CONFIG, "--memory", trained_memory,
                "--query", "a charming and tender film", "--json")
        first, second = run(*args), run(*args)
        assert first.output == second.output
        json.loads(first.output)

    def test_training_state_query_recovers_brute_force_optimum(self, tmp_path):
        # exhaustively trained memory: ordering a training state must pick
        # exactly what the brute-force oracle picks
        from poem import action_key, brute_force_best, select_examples, task_from_scenario

        memory_path = tmp_path / "exhaustive.json"
        result = run("simulate", "--scenario", SCENARIO, "--exploration", "exhaustive",
                     "--out", memory_path)
        assert result.exit_code == 0, result.output
        task = task_from_scenario(SCENARIO)
        query = task.train[0]
        t_s = select_examples(query.embedding, task.ic, 4)
        expected = action_key(brute_force_best(task.landscape, query.embedding, t_s))
        ordered = run(
            "order", "--config", SYNTH_CONFIG, "--memory", memory_path,
            "--query", query.fields["text"], "--json",
        )
        assert ordered.exit_code == 0, ordered.output
        assert json.loads(ordered.output)["queries"][0]["action"] == expected


class TestEvalCommand:
    def test_eval_emits_table(self):
        result = run("eval", "--config", SYNTH_CONFIG, "--seeds", 1)
        assert result.exit_code == 0, result.output
        for name in ("poem", "descending", "ascending", "random", "zero_shot"):
            assert name in result.output

    def test_eval_json_multi_seed(self):
        result = run("eval", "--config", SYNTH_CONFIG, "--seeds", 2, "--json")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["seeds"] == [7, 8]
        assert len(doc["per_seed"]) == 2
        rows = {r["baseline"]: r for r in doc["rows"]}
        assert rows["poem"]["seeds"] == 2

    def test_eval_csv(self):
        result = run("eval", "--config", SYNTH_CONFIG, "--seeds", 1, "--csv")
        assert result.exit_code == 0, result.output
        header = result.output.splitlines()[0]
        assert header.startswith("baseline,mean_reward,reward_std,optimal_match")

    def test_eval_with_fixed_memory(self, tmp_path):
        out = tmp_path / "memory.json"
        assert run("train", "--config", SYNTH_CONFIG, "--out", out).exit_code == 0
        result = run("eval", "--config", SYNTH_CONFIG, "--memory", out, "--seeds", 2, "--json")
        assert result.exit_code == 0, result.output

    def test_eval_out_file(self, tmp_path):
        report = tmp_path / "report.json"
        result = run("eval", "--config", SYNTH_CONFIG, "--seeds", 1, "--out", report)
        assert result.exit_code == 0, result.output
        json.loads(report.read_text())

    def test_bad_seeds_exits_2(self):
        result = run("eval", "--config", SYNTH_CONFIG, "--seeds", 0)
        assert result.exit_code == 2

    def test_negative_seed_exits_2(self, tmp_path):
        memory = tmp_path / "memory.json"
        assert run("train", "--config", SYNTH_CONFIG, "--out", memory).exit_code == 0
        for args in (["eval", "--config", SYNTH_CONFIG, "--memory", memory],
                     ["train", "--config", SYNTH_CONFIG, "--out", memory],
                     ["simulate", "--scenario", SCENARIO]):
            result = run(*args, "--seed", -1)
            assert result.exit_code == 2, (args, result.output, result.exception)


class TestInspectAndSimulate:
    def test_inspect_memory(self, tmp_path):
        out = tmp_path / "memory.json"
        assert run("train", "--config", OFFLINE_CONFIG, "--out", out).exit_code == 0
        result = run("inspect-memory", "--memory", out, "--json")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["m"] == 4
        assert doc["states"] == 8
        assert 0.0 <= doc["per_state_fill"] <= 1.0

    def test_inspect_large_m_snapshot(self, tmp_path):
        memory = EpisodicMemory(capacity=2, m=9)
        memory.write(StateRecord.from_text("q", Embedding([1.0, 0.0])),
                     Action(tuple(range(1, 10))), 0.5)
        path = tmp_path / "m9.json"
        memory.snapshot(path)
        result = run("inspect-memory", "--memory", path, "--json")
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["per_state_fill"] == 1 / math.factorial(9)

    def test_inspect_rejects_bad_snapshot(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 9}')
        result = run("inspect-memory", "--memory", bad)
        assert result.exit_code == 1

    def test_simulate_end_to_end(self, tmp_path):
        out = tmp_path / "memory.json"
        result = run("simulate", "--scenario", SCENARIO, "--out", out, "--json")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["report"]["final_fill_ratio"] > 0.5
        rows = {r["baseline"]: r for r in doc["eval"]["rows"]}
        assert rows["poem"]["mean_reward"] >= rows["ascending"]["mean_reward"]
        assert out.exists()

    def test_custom_weights_match_their_preference(self, tmp_path):
        bundled = ROOT / "scenarios" / "ascending_small.json"
        doc = json.loads(bundled.read_text())
        doc["landscape"] = {"position_weights": [1, 2, 3, 4], "noise_sigma": 0.0, "seed": 11}
        custom = tmp_path / bundled.name
        custom.write_text(json.dumps(doc))
        outputs = [run("simulate", "--scenario", path, "--json") for path in (bundled, custom)]
        assert [r.exit_code for r in outputs] == [0, 0], [r.output for r in outputs]
        assert outputs[0].stdout_bytes == outputs[1].stdout_bytes

    def test_simulate_exhaustive_override(self):
        result = run(
            "simulate", "--scenario", SCENARIO, "--exploration", "exhaustive", "--json"
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["report"]["final_fill_ratio"] == 1.0


# A malformed endpoint URL is a validation error (exit 2) that names the field, found
# before any request; a well-formed one that nothing answers is left to the first request.
@pytest.mark.parametrize("url", ["not a url", "5", "ftp://x/", "http://[bad", "http://", "//host/"])
@pytest.mark.parametrize("section", ["encoder", "lm"])
def test_malformed_endpoint_url_is_a_validation_error(tmp_path, section, url):
    doc = _offline_config()
    doc[section] = {"backend": "remote", "url": url}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=rf"{section}\.url must be an http\(s\) URL"):
        load_task_config(path)
    result = run("train", "--config", path, "--out", tmp_path / "memory.json")
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stderr.startswith(f"error: {path}: {section}.url")


@pytest.mark.parametrize("url", ["http://127.0.0.1:1/", "https://embed.example:8443/v1/embed",
                                 "HTTP://[::1]:8080/"])
def test_well_formed_endpoint_urls_validate(tmp_path, url):
    doc = _offline_config()
    doc["encoder"] = {"backend": "remote", "url": url}
    doc["lm"] = {"backend": "remote", "url": url}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = load_task_config(path)
    assert config.encoder_spec["url"] == config.lm_spec["url"] == url
