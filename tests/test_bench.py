from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from geoagent.agent import Action, Trajectory
from geoagent.bench import (
    AnnotationError,
    GroundTruth,
    SchemaError,
    TaskSpec,
    annotate_from_plan,
    canonical_json,
    generate_fixture_suite,
    load_plan,
    load_record,
    load_suite,
    load_task,
    replay_factory,
    run_benchmark,
    run_task,
    save_task,
)
from geoagent.evaluation import accuracy
from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import ToolContext, ToolRegistry, build_registry, ok_result
from geoagent.workspace import Workspace

from conftest import write_raster


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    tasks = generate_fixture_suite(root)
    ws = Workspace(root)
    registry = build_registry(ToolContext(
        workspace=ws,
        perception=MockExpertBackend(
            json.loads((root / "mock_manifest.json").read_text()), ws)))
    return root, tasks, registry, ws


@pytest.fixture
def simple_ctx(tmp_path):
    ws = Workspace(tmp_path)
    write_raster(tmp_path / "a.tif", [[2.0, 4.0]])
    registry = build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend([], ws)))
    return ws, registry


class TestSchemas:
    def test_task_round_trip(self, suite, tmp_path):
        root, tasks, registry, ws = suite
        for task in tasks:
            doc = task.as_json()
            again = TaskSpec.from_json(json.loads(json.dumps(doc)))
            assert again.as_json() == doc

    def test_task_serialization_stable(self, suite, tmp_path):
        root, tasks, _, _ = suite
        task = tasks[0]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_task(task, p1)
        save_task(load_task(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trajectory_round_trip(self):
        trajectory = Trajectory(
            task_id="t", model_tag="m", regime="AutoPlanning",
            actions=[Action("mean", {"data": [1, 2]},
                            ok_result(value=1.5, text="1.5"))],
            answer_text="1.5", answer_value=1.5, stop_reason="final_answer",
            started_at=1.0, finished_at=2.0)
        doc = trajectory.as_json()
        assert doc["steps"] == [{"tool": "mean", "input": {"data": [1, 2]},
                                 "output": {"status": "ok", "text": "1.5",
                                            "value": 1.5}}]
        again = Trajectory.from_json(json.loads(json.dumps(doc)))
        assert again == trajectory
        assert again.as_json() == doc

    @pytest.mark.parametrize("damage", [
        lambda doc: doc.update(final="oops"),
        lambda doc: doc["steps"][0].update(output={"status": "error"}),
        lambda doc: doc["steps"][0].update(output={"status": "weird", "text": ""}),
        lambda doc: doc["steps"][0]["output"].update(error_class="SystemError"),
        lambda doc: doc["steps"][0]["output"].update(status="error",
                                                     error_class="Flaky"),
    ], ids=["final-not-object", "error-without-class", "unknown-status",
            "ok-with-class", "unknown-class"])
    def test_malformed_trajectory_rejected(self, suite, tmp_path, capsys, damage):
        root, tasks, _, _ = suite
        doc = Trajectory(task_id=tasks[0].id, actions=[
            Action("mean", {"data": [1]}, ok_result(value=1.0))]).as_json()
        damage(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_record(path)
        from geoagent.cli import main

        assert main(["eval", "--pred", str(path),
                     "--gt", str(root / "tasks" / f"{tasks[0].id}.json")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize("kind, damage, field", [
        ("task", lambda d: d.update(id=["a"]), "task 'id'"),
        ("task", lambda d: d.update(modality=None), "task 'modality'"),
        ("task", lambda d: d["ground_truth"]["answer"].update(text=None),
         "ground truth answer 'text'"),
        ("task", lambda d: d.update(answer_rule=[["kind", "numeric"]]),
         "task 'answer_rule'"),
        ("task", lambda d: d.update(answer_rule="numeric"), "task 'answer_rule'"),
        ("task", lambda d: d["ground_truth"]["steps"][0].update(input=[["a", 1]]),
         "ground truth step 0 'input'"),
        ("task", lambda d: d["ground_truth"]["steps"][0].update(input="x"),
         "ground truth step 0 'input'"),
        ("task", lambda d: d["ground_truth"]["steps"][0].update(output="x"),
         "ground truth step 0 'output'"),
        ("trajectory", lambda d: d.update(task_id=["a"]), "trajectory 'task_id'"),
        ("trajectory", lambda d: d["final"].update(stop_reason=None),
         "trajectory final 'stop_reason'"),
        ("trajectory", lambda d: d["steps"][0].update(input=[["data", [1]]]),
         "trajectory step 0 'input'"),
        ("trajectory", lambda d: d["steps"][0].update(input="x"),
         "trajectory step 0 'input'"),
        ("trajectory", lambda d: d["steps"][0].update(output="x"),
         "trajectory step 0 'output'"),
        ("trajectory", lambda d: d["steps"][0]["output"].update(files="a.tif"),
         "tool result 'files'"),
    ], ids=["task-id-list", "modality-null", "answer-text-null", "rule-pairs",
            "rule-string", "gt-input-pairs", "gt-input-string", "gt-output-string",
            "task-id-list-trajectory", "stop-reason-null", "input-pairs", "input-string",
            "output-string", "files-string"])
    def test_fields_are_type_checked_not_coerced(self, suite, tmp_path, kind, damage,
                                                 field):
        _, tasks, _, _ = suite
        if kind == "task":
            doc, load = tasks[0].as_json(), load_task
        else:
            doc, load = Trajectory(task_id="t", actions=[
                Action("mean", {"data": [1]}, ok_result(value=1.0))]).as_json(), load_record
        doc = json.loads(json.dumps(doc))
        damage(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"{field} must be"):
            load(path)

    @pytest.mark.parametrize("doc", [
        {"stepz": []},
        [1],
        {"steps": {"tool": "mean", "input": {}}},
        {"steps": [{"tool": "mean"}]},
        {"steps": [{"tool": "mean", "input": [["data", [1]]]}]},
        {"steps": [], "answer": 5},
        {"steps": [], "answer_path": 3},
        {"steps": [], "answer": {"text": 5}},
    ], ids=["missing-steps", "not-an-object", "steps-not-a-list",
            "step-without-input", "input-not-an-object", "answer-not-an-object",
            "answer-path-not-a-list", "answer-text-not-a-string"])
    def test_malformed_plan_rejected(self, tmp_path, doc):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_plan(path)

    def test_bad_modality_rejected(self):
        gt = GroundTruth(steps=(), answer_text="x", answer_value=None)
        with pytest.raises(SchemaError):
            TaskSpec(id="t", modality="Sound", query_ap="a", query_if="b",
                     data_dir="d", answer_rule={}, ground_truth=gt)

    def test_missing_data_dir_rejected(self, suite, tmp_path):
        root, tasks, registry, _ = suite
        path = tmp_path / "task.json"
        save_task(tasks[0], path)
        with pytest.raises(SchemaError, match="data folder"):
            load_task(path, workspace_root=tmp_path)

    def test_unknown_gt_tool_rejected(self, suite, tmp_path):
        root, tasks, registry, _ = suite
        doc = tasks[0].as_json()
        doc["ground_truth"]["steps"][0]["tool"] = "not_a_tool"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="unknown tools"):
            load_task(path, registry=registry)

    def test_unknown_answer_rule_rejected(self, suite, tmp_path):
        root, tasks, registry, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {"kind": "regex"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="unknown answer rule 'regex'"):
            load_task(path)

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("tol", ["0.01", -0.01, None, True, [0.01], math.nan,
                                     math.inf, 10**400],
                             ids=["string", "negative", "null", "bool", "list", "nan",
                                  "inf", "past-float"])
    def test_bad_tolerance_rejected(self, suite, tmp_path, key, tol):
        root, tasks, registry, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {"kind": "numeric", key: tol}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"answer rule {key} must be a finite "
                                              "number >= 0"):
            load_task(path)

    @pytest.mark.parametrize("tol", [0, 0.0, 5, 1e-2])
    def test_tolerance_accepted(self, suite, tmp_path, tol):
        root, tasks, registry, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {"kind": "numeric", "rel_tol": tol, "abs_tol": tol}
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        assert load_task(path).answer_rule["rel_tol"] == tol

    @pytest.mark.parametrize("kind,expected,what", [
        ("numeric", "5", "a finite number"), ("numeric", None, "a finite number"),
        ("numeric", True, "a finite number"), ("numeric", math.inf, "a finite number"),
        ("numeric", 10**400, "a finite number"), ("numeric", [5], "a finite number"),
        ("string_set", "a, b", "a list"), ("string_set", None, "a list"),
    ], ids=["numeric-string", "numeric-null", "numeric-bool", "numeric-inf",
            "numeric-past-float", "numeric-list", "string_set-string", "string_set-null"])
    def test_bad_expected_answer_rejected_at_load(self, suite, tmp_path, kind, expected,
                                                  what):
        root, tasks, registry, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {"kind": kind}
        doc["ground_truth"]["answer"]["value"] = expected
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"the expected answer of a {kind} rule "
                                              f"must be {what}"):
            load_task(path)

    def test_answer_rule_without_kind_is_numeric(self, suite, tmp_path):
        root, tasks, registry, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {}
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        task = load_task(path)
        assert accuracy(None, 1.0, 1.0, task.answer_rule) == 1
        assert accuracy("2", None, 1.0, task.answer_rule) == 0


class TestAnnotate:
    def test_simple_plan(self, simple_ctx):
        ws, registry = simple_ctx
        gt = annotate_from_plan(
            [("calc_batch_image_mean", {"image_paths": ["a.tif"]}),
             ("mean", {"data": [3.0]})],
            registry, ws)
        assert [s.tool for s in gt.steps] == ["calc_batch_image_mean", "mean"]
        assert gt.answer_value == 3.0
        assert gt.steps[0].output["status"] == "ok"

    def test_unknown_tool_aborts_at_index(self, simple_ctx):
        ws, registry = simple_ctx
        with pytest.raises(AnnotationError, match="step 0"):
            annotate_from_plan([("bogus_tool", {})], registry, ws)

    def test_failing_middle_step(self, simple_ctx):
        ws, registry = simple_ctx
        with pytest.raises(AnnotationError, match="step 1"):
            annotate_from_plan(
                [("mean", {"data": [1.0]}), ("division", {"a": 1, "b": 0})],
                registry, ws)

    def test_reannotation_byte_identical(self, simple_ctx):
        ws, registry = simple_ctx
        plan = [("calc_batch_image_mean", {"image_paths": ["a.tif"]})]
        a = canonical_json(annotate_from_plan(plan, registry, ws).as_json())
        b = canonical_json(annotate_from_plan(plan, registry, ws).as_json())
        assert a == b

    def test_workspace_masked_in_outputs(self, simple_ctx):
        ws, registry = simple_ctx
        gt = annotate_from_plan(
            [("calculate_tif_difference",
              {"image_a_path": "a.tif", "image_b_path": "a.tif",
               "output_path": "q/diff.tif"})],
            registry, ws)
        assert str(ws.root) not in json.dumps(gt.as_json())
        assert "$WS" in gt.steps[0].output["text"]

    def test_refuses_a_workspace_not_the_registrys(self, simple_ctx, tmp_path_factory):
        _, registry = simple_ctx
        other = Workspace(tmp_path_factory.mktemp("other"))
        with pytest.raises(ValueError, match="is not the registry's workspace"):
            annotate_from_plan([("mean", {"data": [3.0]})], registry, other)


class TestFixtureSuite:
    def test_twelve_tasks_four_per_modality(self, suite):
        _, tasks, _, _ = suite
        assert len(tasks) == 12
        by_modality = {}
        for t in tasks:
            by_modality.setdefault(t.modality, []).append(t.id)
        assert {k: len(v) for k, v in by_modality.items()} == {
            "Spectrum": 4, "Products": 4, "RGB": 4}

    def test_every_task_loads_and_validates(self, suite):
        root, tasks, registry, _ = suite
        loaded = load_suite(root / "tasks", workspace_root=root, registry=registry)
        assert [t.id for t in loaded] == sorted(t.id for t in tasks)

    def test_ground_truth_has_no_duplicate_tools(self, suite):
        _, tasks, _, _ = suite
        for task in tasks:
            names = [s.tool for s in task.ground_truth.steps]
            assert len(names) == len(set(names)), task.id

    def test_toolkit_coverage(self, suite):
        _, tasks, _, _ = suite
        used = {s.tool for t in tasks for s in t.ground_truth.steps}
        # at least one tool from every kit family
        assert used & {"calculate_batch_ndvi", "compute_tvdi"}  # index
        assert used & {"lst_multi_channel", "ATI", "band_ratio"}  # inversion
        assert used & {"MSCN", "SM3Det", "InstructSAM", "ChangeOS"}  # perception
        assert used & {"mann_kendall_test", "detect_change_points",
                       "analyze_hotspot_direction"}  # analysis
        assert used & {"calc_batch_image_mean", "radiometric_correction_sr",
                       "apply_cloud_mask"}  # statistics

    def test_regeneration_is_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a = generate_fixture_suite(a_dir)
        b = generate_fixture_suite(b_dir)
        for ta, tb in zip(a, b):
            assert ta.as_json() == tb.as_json()
        for pa in sorted((a_dir / "tasks").glob("*.json")):
            pb = b_dir / "tasks" / pa.name
            assert pa.read_bytes() == pb.read_bytes()


class TestRunner:
    def test_replay_scores_perfect(self, suite):
        root, tasks, registry, ws = suite
        result = run_benchmark(tasks, registry, ws)
        assert not result.failures
        for s in result.scores:
            assert (s.acc, s.eff, s.tao, s.tio, s.tem, s.param_acc) == \
                (1, 1.0, 1.0, 1.0, 1.0, 1.0), s.task_id

    def test_both_regimes(self, suite):
        root, tasks, registry, ws = suite
        for regime in ("AutoPlanning", "InstructionFollowing"):
            result = run_benchmark(tasks, registry, ws, regime=regime)
            assert all(s.acc == 1 for s in result.scores)
            assert all(s.regime == regime for s in result.scores)

    def test_parallelism_invariant(self, suite):
        root, tasks, registry, ws = suite
        serial = run_benchmark(tasks, registry, ws, parallelism=1)
        parallel = run_benchmark(tasks, registry, ws, parallelism=4)
        assert [s.as_json() for s in serial.scores] == \
            [s.as_json() for s in parallel.scores]
        assert serial.report_json() == parallel.report_json()

    def test_adversarial_extra_tool_in_front(self, suite):
        root, tasks, registry, ws = suite
        from geoagent.agent import replay_policy

        def adversarial(task, regime):
            gt = task.ground_truth
            steps = [("kelvin_to_celsius", {"kelvin": 300.0})] + gt.step_pairs()
            return replay_policy(steps, answer_text=gt.answer_text,
                                 answer_value=gt.answer_value)

        result = run_benchmark(tasks, registry, ws, policy_factory=adversarial)
        for s in result.scores:
            if "kelvin_to_celsius" in [t.tool for t in
                                       _task_by_id(tasks, s.task_id).ground_truth.steps]:
                continue  # the planted tool occurs legitimately in this task
            assert s.tem == 0.0, s.task_id
            assert s.tao == 1.0, s.task_id

    def test_record_replay_reproduces_record(self, suite, tmp_path):
        # replaying a recorded trajectory through the scripted backend
        # reproduces identical actions and final answer
        root, tasks, registry, ws = suite
        from geoagent.agent import replay_policy

        task = _task_by_id(tasks, "s3_sr_cloud_ratio")
        out = tmp_path / "first"
        run_benchmark([task], registry, ws, out_dir=out)
        first = load_record(out / "trajectories" / f"{task.id}.json")

        def again(task, regime):
            return replay_policy(first.step_pairs(), answer_text=first.answer_text,
                                 answer_value=first.answer_value)

        second, _ = run_task(task, registry, ws, again, "AutoPlanning")

        assert second.actions == first.actions
        assert second.steps == first.steps
        assert str(ws.root) not in json.dumps(second.steps)
        assert second.answer_text == first.answer_text
        assert second.answer_value == first.answer_value
        assert second.stop_reason == first.stop_reason

    def test_artifacts_written(self, suite, tmp_path):
        root, tasks, registry, ws = suite
        out = tmp_path / "artifacts"
        run_benchmark(tasks, registry, ws, out_dir=out)
        assert (out / "report.json").is_file()
        assert (out / "report.txt").is_file()
        assert len(list((out / "trajectories").glob("*.json"))) == 12
        report = json.loads((out / "report.json").read_text())
        assert report["overall"]["means"]["accuracy"] == 100.0

    def test_run_task_refuses_a_workspace_not_the_registrys(self, suite, tmp_path):
        # its paths would resolve in one root and be masked against the other
        _, tasks, registry, _ = suite
        task = _task_by_id(tasks, "s1_ndvi_mean")
        with pytest.raises(ValueError, match="is not the registry's workspace"):
            run_task(task, registry, Workspace(tmp_path), replay_factory, "AutoPlanning")

    def test_run_benchmark_refuses_a_workspace_not_the_registrys(self, suite, tmp_path):
        _, tasks, registry, _ = suite
        with pytest.raises(ValueError, match="is not the registry's workspace"):
            run_benchmark(tasks, registry, Workspace(tmp_path), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


def _task_by_id(tasks, task_id):
    return next(t for t in tasks if t.id == task_id)


class TestCli:
    def test_tools_command(self, tmp_path, capsys):
        from geoagent.cli import main

        assert main(["tools", "--workspace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tools registered" in out
        assert "lst_multi_channel" in out

    @pytest.mark.parametrize("command", ["tools", "run", "bench", "annotate"])
    def test_missing_mock_manifest_exits_1(self, tmp_path, capsys, command):
        from geoagent.cli import main

        needed = {"run": ["--task", "t.json"], "bench": ["--tasks-dir", "tasks"],
                  "annotate": ["--plan", "p.json"]}
        assert main([command, "--workspace", str(tmp_path), "--mock-manifest",
                     str(tmp_path / "missing.json"), *needed.get(command, [])]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    def test_fixtures_then_bench(self, tmp_path, capsys):
        from geoagent.cli import main

        root = tmp_path / "suite"
        assert main(["fixtures", "--out", str(root)]) == 0
        assert main(["bench", "--tasks-dir", str(root / "tasks"),
                     "--workspace", str(root), "--regime", "both",
                     "--parallelism", "2"]) == 0
        out = capsys.readouterr().out
        assert "100.00" in out

    def test_run_and_eval_round_trip(self, tmp_path, capsys):
        from geoagent.cli import main

        root = tmp_path / "suite"
        main(["fixtures", "--out", str(root)])
        traj = tmp_path / "traj.json"
        assert main(["run", "--task", str(root / "tasks" / "s2_lst_median_c.json"),
                     "--workspace", str(root), "--regime", "if",
                     "--out", str(traj)]) == 0
        capsys.readouterr()
        assert main(["eval", "--pred", str(traj),
                     "--gt", str(root / "tasks" / "s2_lst_median_c.json")]) == 0
        out = capsys.readouterr().out
        score = json.loads(out)
        assert score["accuracy"] == 1
        assert score["parameter_accuracy"] == 1.0

    def test_eval_prints_the_bench_report_entry(self, tmp_path, capsys, monkeypatch):
        from geoagent.cli import REGIME_FLAGS, main

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("WORKSPACE_ROOT", raising=False)
        monkeypatch.delenv("GEOAGENT_CONFIG", raising=False)
        root = tmp_path / "suite"
        assert main(["fixtures", "--out", str(root)]) == 0
        assert main(["bench", "--tasks-dir", str(root / "tasks"), "--workspace",
                     str(root), "--regime", "both", "--out-dir", "out"]) == 0
        capsys.readouterr()
        task_count = len(list((root / "tasks").glob("*.json")))
        for regime in REGIME_FLAGS.values():
            out = tmp_path / "out" / regime.lower()
            entries = json.loads((out / "report.json").read_text())["tasks"]
            assert len(entries) == task_count
            for entry in entries:
                for workspace in ([], ["--workspace", str(root)]):
                    assert main(["eval", "--pred",
                                 str(out / "trajectories" / f"{entry['task_id']}.json"),
                                 "--gt", str(root / "tasks" / f"{entry['task_id']}.json"),
                                 *workspace]) == 0
                    assert capsys.readouterr().out == canonical_json(entry)

    def test_annotate_command(self, tmp_path, capsys):
        from geoagent.cli import main

        write_raster(tmp_path / "x.tif", [[1.0, 5.0]])
        plan = {"steps": [{"tool": "calc_batch_image_mean",
                           "input": {"image_paths": ["x.tif"]}}]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert main(["annotate", "--plan", str(plan_path),
                     "--workspace", str(tmp_path)]) == 0
        gt = json.loads(capsys.readouterr().out)
        assert gt["answer"]["value"] == [3.0]

    @pytest.mark.parametrize("plan", [{"stepz": []}, [1]],
                             ids=["missing-steps", "not-an-object"])
    def test_malformed_plan_exit_code(self, suite, tmp_path, capsys, plan):
        from geoagent.cli import main

        root, tasks, _, _ = suite
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        for argv in (["annotate", "--plan", str(plan_path)],
                     ["run", "--task", str(root / "tasks" / f"{tasks[0].id}.json"),
                      "--policy", f"script:{plan_path}"]):
            assert main(argv + ["--workspace", str(root)]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    def test_error_exit_code(self, tmp_path, capsys):
        from geoagent.cli import main

        assert main(["bench", "--tasks-dir", str(tmp_path / "void"),
                     "--workspace", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"]

    def test_parallelism_below_one_rejected(self, suite, capsys):
        from geoagent.cli import main

        root, _, _, _ = suite
        assert main(["bench", "--tasks-dir", str(root / "tasks"),
                     "--workspace", str(root), "--parallelism", "0"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_run_refuses_unknown_answer_rule_before_any_step(self, suite, tmp_path,
                                                                 capsys, monkeypatch):
        from geoagent.cli import main

        root, tasks, _, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {"kind": "regex"}
        path = tmp_path / "regex.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(ToolRegistry, "call_tool",
                            lambda self, name, args: calls.append(name))
        assert main(["run", "--task", str(path), "--workspace", str(root),
                     "--out", str(tmp_path / "t.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "SchemaError", "message": "unknown answer rule 'regex'"}
        assert calls == [] and not (tmp_path / "t.json").exists()

    def test_run_refuses_string_tolerance_before_any_step(self, suite, tmp_path,
                                                          capsys, monkeypatch):
        from geoagent.cli import main

        root, tasks, _, _ = suite
        doc = tasks[0].as_json()
        doc["answer_rule"] = {"kind": "numeric", "rel_tol": "0.01"}
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(ToolRegistry, "call_tool",
                            lambda self, name, args: calls.append(name))
        assert main(["run", "--task", str(path), "--workspace", str(root),
                     "--out", str(tmp_path / "t.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "SchemaError", "message":
                       "answer rule rel_tol must be a finite number >= 0, got '0.01'"}
        assert calls == [] and not (tmp_path / "t.json").exists()

    def test_no_tools_run(self, tmp_path, capsys):
        from geoagent.cli import main

        root = tmp_path / "suite"
        main(["fixtures", "--out", str(root)])
        plan = {"steps": [], "answer": {"text": "7", "value": 7.0}}
        # scripted policies need at least one decision; emulate the ablation
        # with an answer-only plan
        plan_path = tmp_path / "answer_only.json"
        plan_path.write_text(json.dumps(plan))
        rc = main(["run", "--task", str(root / "tasks" / "r3_count.json"),
                   "--workspace", str(root), "--no-tools",
                   "--policy", f"script:{plan_path}",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 0
        record = json.loads((tmp_path / "t.json").read_text())
        assert record["steps"] == []
        assert record["final"]["stop_reason"] == "final_answer"
