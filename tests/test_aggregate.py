from __future__ import annotations

import pytest

from geoagent.evaluation import GroupReport, TaskScore, aggregate, overall, render_table


def score(task_id="t1", regime="AutoPlanning", modality="Spectrum",
          model_tag="m", acc=1, eff=1.0, tao=1.0, tio=1.0, tem=1.0, pa=1.0,
          errors=None):
    return TaskScore(task_id=task_id, regime=regime, modality=modality,
                     model_tag=model_tag, acc=acc, eff=eff, tao=tao, tio=tio,
                     tem=tem, param_acc=pa, error_counts=errors or {},
                     stop_reason="final_answer")


class TestAggregate:
    def test_two_tasks_half_accuracy(self):
        reports = aggregate([score(acc=1), score(task_id="t2", acc=0)])
        assert reports[0].means["accuracy"] == 50.0

    def test_single_task_equals_its_report(self):
        s = score(acc=1, eff=1.5, tao=0.5, tio=0.25, tem=0.25, pa=0.0)
        group = overall([s])
        assert group.task_count == 1
        assert group.means["efficiency"] == 1.5
        assert group.means["tools_any_order"] == 0.5
        assert group.means["tools_in_order"] == 0.25
        assert group.means["tool_exact_match"] == 0.25
        assert group.means["parameter_accuracy"] == 0.0
        assert group.means["accuracy"] == 100.0

    def test_grouping_splits_regimes(self):
        scores = [score(regime="AutoPlanning", acc=1),
                  score(task_id="t2", regime="InstructionFollowing", acc=0)]
        reports = aggregate(scores)
        assert [r.group for r in reports] == [
            {"regime": "AutoPlanning", "modality": "Spectrum"},
            {"regime": "InstructionFollowing", "modality": "Spectrum"}]
        assert reports[0].means["accuracy"] == 100.0
        assert reports[1].means["accuracy"] == 0.0

    def test_error_counts_merged(self):
        scores = [score(errors={"SystemError": 1}),
                  score(task_id="t2", errors={"SystemError": 2,
                                              "ToolHallucination": 1})]
        group = overall(scores)
        assert group.error_counts == {"ToolHallucination": 1, "SystemError": 3}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_table_renders_all_columns(self):
        text = render_table(aggregate([score()]))
        for col in ("tools_any_order", "efficiency", "accuracy"):
            assert col in text
        assert "AutoPlanning" in text and "Spectrum" in text
