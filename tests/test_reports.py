"""The report tables, pinned byte for byte.

Text tables rank rows by mean reward (ties keep row order); CSV keeps row
order, writes floats with repr and leaves a missing metric empty.
"""

import json

import pytest

from poem.engine import AggregateReport, AggregateRow, EvalReport, EvalRow, RunReport


def eval_report():
    return EvalReport(
        metric_name="optimal_match",
        seed=4,
        rows=[
            EvalRow("poem", 1.25, 0.75, 8),
            EvalRow("ascending", 1.25, 0.5, 8),
            EvalRow("descending", 1.5, 1.0, 8),
            EvalRow("random", 0.1, 0.125, 8),
            EvalRow("zero_shot", 0.0, None, 8),
        ],
    )


def aggregate_report():
    return AggregateReport(
        metric_name="accuracy",
        seeds=[1, 2],
        per_seed=[eval_report()],
        rows=[
            AggregateRow("poem", 1.25, 0.5, 0.75, 0.25, 2),
            AggregateRow("descending", 1.5, 0.1, 1.0, 0.0, 2),
            AggregateRow("zero_shot", 0.0, 0.0, None, None, 2),
        ],
    )


class TestEvalReportTable:
    def test_text(self):
        assert eval_report().to_text() == (
            "baseline      mean_reward  optimal_match      n\n"
            "descending       1.500000         1.0000      8\n"
            "poem             1.250000         0.7500      8\n"
            "ascending        1.250000         0.5000      8\n"
            "random           0.100000         0.1250      8\n"
            "zero_shot        0.000000              -      8"
        )

    def test_csv(self):
        assert eval_report().to_csv() == (
            "baseline,mean_reward,optimal_match,n\n"
            "poem,1.25,0.75,8\n"
            "ascending,1.25,0.5,8\n"
            "descending,1.5,1.0,8\n"
            "random,0.1,0.125,8\n"
            "zero_shot,0.0,,8\n"
        )

    def test_json(self):
        doc = json.loads(eval_report().to_json())
        assert doc["metric"] == "optimal_match" and doc["seed"] == 4
        assert doc["rows"][4] == {
            "baseline": "zero_shot", "mean_reward": 0.0, "metric": None, "n": 8,
        }
        assert [r["baseline"] for r in doc["rows"]] == [
            "poem", "ascending", "descending", "random", "zero_shot",
        ]

    def test_row_lookup(self):
        report = eval_report()
        assert report.row("random").metric == 0.125
        with pytest.raises(KeyError):
            report.row("bogus")


class TestAggregateReportTable:
    def test_text(self):
        assert aggregate_report().to_text() == (
            "baseline      mean_reward        +/-       accuracy        +/-  seeds\n"
            "descending       1.500000   0.100000         1.0000     0.0000      2\n"
            "poem             1.250000   0.500000         0.7500     0.2500      2\n"
            "zero_shot        0.000000   0.000000              -          -      2"
        )

    def test_csv(self):
        assert aggregate_report().to_csv() == (
            "baseline,mean_reward,reward_std,accuracy,metric_std,seeds\n"
            "poem,1.25,0.5,0.75,0.25,2\n"
            "descending,1.5,0.1,1.0,0.0,2\n"
            "zero_shot,0.0,0.0,,,2\n"
        )

    def test_json(self):
        doc = json.loads(aggregate_report().to_json())
        assert doc["metric"] == "accuracy" and doc["seeds"] == [1, 2]
        assert doc["rows"][2] == {
            "baseline": "zero_shot", "mean_reward": 0.0, "reward_std": 0.0,
            "metric": None, "metric_std": None, "seeds": 2,
        }
        assert doc["per_seed"] == [eval_report().to_dict()]

    def test_ranking_and_row_lookup(self):
        report = aggregate_report()
        assert report.ranking() == ["descending", "poem", "zero_shot"]
        assert report.row("poem").metric_std == 0.25
        with pytest.raises(KeyError):
            report.row("bogus")


class TestRunReport:
    BODY = (
        '  "exploration_mode": "epsilon_greedy",\n'
        '  "fill_ratio_per_iteration": [\n    0.25,\n    0.5\n  ],\n'
        '  "final_fill_ratio": 0.5,\n'
        '  "iterations": 2,\n'
        '  "mean_reward_per_iteration": [\n    1.5,\n    2.0\n  ],\n'
    )
    TAIL = '  "seed": 7,\n  "states_stored": 3,\n'

    @staticmethod
    def report(note=None):
        return RunReport(seed=7, iterations=2, exploration_mode="epsilon_greedy",
                         mean_reward_per_iteration=[1.5, 2.0],
                         fill_ratio_per_iteration=[0.25, 0.5], final_fill_ratio=0.5,
                         states_stored=3, writes=6, wall_clock_seconds=0.125, note=note)

    @pytest.mark.parametrize("note", [None, ""])
    def test_json_without_note_or_timing(self, note):
        assert self.report(note).to_json() == "{\n" + self.BODY + self.TAIL + '  "writes": 6\n}'

    def test_json_with_note(self):
        assert self.report("sweep").to_json() == (
            "{\n" + self.BODY + '  "note": "sweep",\n' + self.TAIL + '  "writes": 6\n}'
        )

    def test_json_with_timing(self):
        assert self.report("sweep").to_json(include_timing=True) == (
            "{\n" + self.BODY + '  "note": "sweep",\n' + self.TAIL
            + '  "wall_clock_seconds": 0.125,\n  "writes": 6\n}'
        )
        assert "note" not in self.report().to_dict(include_timing=True)
