from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoagent import finite_json
from geoagent.agent import (
    FinalAnswerDecision,
    Goal,
    LLMPolicy,
    PolicyError,
    PolicyUnreachable,
    ScriptedPolicy,
    ToolCallDecision,
    render_memory,
    replay_policy,
    run_episode,
)
from geoagent.agent.policies import TRUNCATION_MARKER, MalformedModelOutput
from geoagent.agent.types import Action
from geoagent.kits.perception import MockExpertBackend
from geoagent.tools import (ToolContext, ToolRegistry, ToolSpec,
                            build_registry, ok_result)
from geoagent.workspace import Workspace

from conftest import http_reply, server_url, write_raster


@pytest.fixture
def registry(tmp_path):
    ws = Workspace(tmp_path)
    write_raster(tmp_path / "b31.tif", [[300.0]])
    write_raster(tmp_path / "b32.tif", [[298.0]])
    return build_registry(ToolContext(
        workspace=ws, perception=MockExpertBackend([], ws)))


GOAL = Goal(query="mean LST please", regime="AutoPlanning", data_dir="data")


class TestScriptedEpisodes:
    def test_replay_fidelity(self, registry):
        policy = replay_policy(
            [("lst_multi_channel", {"band31_path": "b31.tif",
                                    "band32_path": "b32.tif",
                                    "output_path": "q/lst.tif"}),
             ("get_filelist", {"directory": "q"}),
             ("kelvin_to_celsius", {"kelvin": 307.97})],
            answer_text="34.82", answer_value=34.82)
        traj = run_episode(GOAL, policy, registry)
        assert traj.stop_reason == "final_answer"
        assert [a.tool for a in traj.actions] == ["lst_multi_channel", "get_filelist",
                                                  "kelvin_to_celsius"]
        assert traj.answer_value == 34.82
        assert all(not a.output.is_error for a in traj.actions)

    def test_never_answers_hits_max_steps(self, registry):
        policy = ScriptedPolicy([ToolCallDecision("kelvin_to_celsius",
                                                  {"kelvin": 300.0})])
        traj = run_episode(GOAL, policy, registry, max_steps=5)
        assert traj.stop_reason == "max_steps"
        assert len(traj.actions) == 5

    def test_step_ceiling_below_one_rejected(self, registry):
        with pytest.raises(ValueError, match="at least 1"):
            run_episode(GOAL, replay_policy([], answer_text="x"), registry,
                        max_steps=0)

    def test_unknown_tool_then_recovery(self, registry):
        policy = replay_policy(
            [("hallucinated_tool", {"x": 1}),
             ("kelvin_to_celsius", {"kelvin": 273.15})],
            answer_value=0.0)
        traj = run_episode(GOAL, policy, registry)
        assert traj.stop_reason == "final_answer"
        assert traj.actions[0].output.is_error
        assert traj.actions[0].output.error_class == "ToolHallucination"
        assert not traj.actions[1].output.is_error

    def test_errors_never_terminate(self, registry):
        policy = replay_policy(
            [("division", {"a": 1, "b": 0})] * 3, answer_text="done")
        traj = run_episode(GOAL, policy, registry)
        assert traj.stop_reason == "final_answer"
        assert len(traj.actions) == 3

    def test_memory_append_only_prefix(self, registry):
        seen: list[tuple[str, ...]] = []

        class SpyPolicy:
            def __init__(self):
                self.inner = replay_policy(
                    [("kelvin_to_celsius", {"kelvin": 280.0})] * 3,
                    answer_text="done")

            def next(self, goal, actions):
                seen.append(tuple(a.tool for a in actions))
                return self.inner.next(goal, actions)

        run_episode(GOAL, SpyPolicy(), registry)
        for earlier, later in zip(seen, seen[1:]):
            assert later[: len(earlier)] == earlier

    def test_replay_determinism(self, registry):
        steps = [("kelvin_to_celsius", {"kelvin": 280.0}),
                 ("celsius_to_kelvin", {"celsius": 6.85})]
        t1 = run_episode(GOAL, replay_policy(steps, answer_text="x"), registry)
        t2 = run_episode(GOAL, replay_policy(steps, answer_text="x"), registry)
        assert [a.tool for a in t1.actions] == [a.tool for a in t2.actions]
        assert [a.input for a in t1.actions] == [a.input for a in t2.actions]
        assert [a.output.to_json() for a in t1.actions] == \
            [a.output.to_json() for a in t2.actions]
        assert t1.answer_text == t2.answer_text


class TestRenderMemory:
    def test_empty_memory(self):
        msgs = render_memory(GOAL, [])
        assert [m["role"] for m in msgs] == ["system", "user"]
        assert "mean LST please" in msgs[1]["content"]

    def test_two_steps_message_count(self):
        actions = [Action(tool="t", input={"i": i}, output=ok_result(value=i))
                   for i in range(2)]
        msgs = render_memory(GOAL, actions)
        assert len(msgs) == 2 + 2 * 2
        assert [m["role"] for m in msgs] == ["system", "user", "assistant",
                                             "tool", "assistant", "tool"]

    def test_truncation_marker(self):
        huge = "x" * (1 << 20)
        actions = [Action(tool="t", input={}, output=ok_result(text=huge))]
        msgs = render_memory(GOAL, actions, observation_budget=1024)
        tool_msg = msgs[-1]["content"]
        assert TRUNCATION_MARKER.split("{")[0].rstrip(".") in tool_msg or \
            "truncated" in tool_msg
        assert len(tool_msg.encode()) < 1200


class FakeTransport:
    """Capture requests; return queued replies."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests: list[dict] = []

    def __call__(self, url, body, headers, timeout):
        self.requests.append({"url": url, "body": json.loads(body.decode()),
                              "payload": body, "headers": headers})
        if not self.replies:
            raise finite_json.ReplyError("no reply queued")
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def tool_call_reply(name, args):
    return {"choices": [{"message": {
        "content": None,
        "tool_calls": [{"id": "1", "type": "function",
                        "function": {"name": name,
                                     "arguments": json.dumps(args)}}]}}]}


def text_reply(text):
    return {"choices": [{"message": {"content": text}}]}


class TestLLMPolicy:
    def test_request_contains_every_tool_once(self, registry):
        transport = FakeTransport([text_reply("42")])
        policy = LLMPolicy("http://llm.test/v1", "test-model", registry=registry,
                           transport=transport)
        decision = policy.next(GOAL, [])
        assert isinstance(decision, FinalAnswerDecision)
        body = transport.requests[0]["body"]
        names = [t["function"]["name"] for t in body["tools"]]
        assert len(names) == len(set(names)) == len(registry)
        assert body["model"] == "test-model"

    def test_tool_call_mapped(self, registry):
        transport = FakeTransport([
            tool_call_reply("kelvin_to_celsius", {"kelvin": 300})])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=transport)
        decision = policy.next(GOAL, [])
        assert isinstance(decision, ToolCallDecision)
        assert decision.name == "kelvin_to_celsius"
        assert decision.args == {"kelvin": 300}

    def test_no_tool_mode_omits_schemas_and_rejects_calls(self, registry):
        transport = FakeTransport([
            tool_call_reply("mean", {"data": [1]}),   # rejected in no-tool mode
            text_reply("37"),                          # reprompt answer
        ])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           no_tool_mode=True, transport=transport)
        decision = policy.next(GOAL, [])
        assert isinstance(decision, FinalAnswerDecision)
        assert decision.value == 37.0
        first = transport.requests[0]["body"]
        assert "tools" not in first
        # the reprompt carried the parse failure back to the model
        assert "could not be used" in transport.requests[1]["body"]["messages"][-1]["content"]

    def test_malformed_twice_fails_policy(self, registry):
        transport = FakeTransport([text_reply(""), text_reply("")])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=transport)
        traj = run_episode(GOAL, policy, registry)
        assert traj.stop_reason == "policy_failure"

    def test_unreachable_endpoint_fails_policy(self, registry):
        transport = FakeTransport([finite_json.ReplyError("down")] * 3)
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           retries=2, transport=transport)
        with pytest.raises(PolicyUnreachable):
            policy.next(GOAL, [])

    def test_episode_with_llm_loop(self, registry):
        transport = FakeTransport([
            tool_call_reply("kelvin_to_celsius", {"kelvin": 307.97}),
            text_reply("34.82"),
        ])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=transport)
        traj = run_episode(GOAL, policy, registry, model_tag="fake-llm")
        assert traj.stop_reason == "final_answer"
        assert [a.tool for a in traj.actions] == ["kelvin_to_celsius"]
        assert traj.answer_value == 34.82
        # second request replayed the observation back to the model
        msgs = transport.requests[1]["body"]["messages"]
        assert msgs[-1]["role"] == "tool"
        assert "34.82" in msgs[-1]["content"]


def oracle_payload(model, messages, registry=None, no_tool_mode=False) -> bytes:
    """The request body as `json.dumps` of the whole body dict, with the tool
    schemas built afresh: the reference the cached encoding must equal."""
    body = {"model": model, "messages": messages}
    schemas = [] if registry is None or no_tool_mode else [
        {"type": "function",
         "function": {"name": spec.name, "description": spec.description,
                      "parameters": spec.input_schema()}}
        for spec in registry.list_specs()]
    if schemas:
        body["tools"] = schemas
        body["tool_choice"] = "auto"
    return json.dumps(body).encode("utf-8")


ACTIONS = [Action(tool="mean", input={"data": [1, 2]},
                  output=ok_result(value=1.5, text="moyenne 1.5 °C"))]


class TestRequestBytes:
    """The tools array is encoded once per registry and spliced into each
    request; the bytes on the wire equal `json.dumps` of the whole body."""

    @pytest.mark.parametrize("model, query, options", [
        ("m", "mean LST please", {}),
        ("m", "mean LST please", {"no_tool_mode": True}),
        ("m", "mean LST please", {"api_key": "secret"}),
        ("m", "mean LST please", {"registry": None}),
        ("m", "mean LST please", {"registry": ToolRegistry([], Workspace("."))}),
        ("modèle-東京", "Température moyenne à Zürich ☀?", {}),
    ], ids=["tools", "no_tool_mode", "api_key", "no_registry", "empty_registry",
            "non_ascii"])
    def test_payload_equals_oracle(self, registry, model, query, options):
        options = {"registry": registry, **options}
        goal = Goal(query=query, regime="AutoPlanning", data_dir="data")
        transport = FakeTransport([text_reply("42")])
        policy = LLMPolicy("http://llm.test/v1", model, transport=transport, **options)
        policy.next(goal, ACTIONS)
        (request,) = transport.requests
        assert request["payload"] == oracle_payload(
            model, render_memory(goal, ACTIONS), options["registry"],
            options.get("no_tool_mode", False))
        if "api_key" in options:
            assert request["headers"]["Authorization"] == "Bearer secret"

    def test_reprompt_payload_equals_oracle(self, registry):
        transport = FakeTransport([text_reply(""), text_reply("42")])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=transport)
        policy.next(GOAL, ACTIONS)
        first, second = transport.requests
        messages = render_memory(GOAL, ACTIONS)
        assert first["payload"] == oracle_payload("m", messages, registry)
        feedback = second["body"]["messages"][-1]
        assert "could not be used" in feedback["content"]
        assert second["payload"] == oracle_payload("m", messages + [feedback], registry)

    def test_schemas_built_once_per_registry(self, registry, monkeypatch):
        built = []
        input_schema = ToolSpec.input_schema
        monkeypatch.setattr(ToolSpec, "input_schema",
                            lambda spec: built.append(spec.name) or input_schema(spec))
        for _ in range(3):  # a new policy per episode, as the bench runner makes
            LLMPolicy("http://llm.test/v1", "m", registry=registry,
                      transport=FakeTransport([text_reply("1")])).next(GOAL, [])
        assert sorted(built) == sorted(spec.name for spec in registry.list_specs())

    def test_threads_sharing_a_registry_send_identical_bodies(self, registry):
        threads, requests = 4, 5
        start = threading.Barrier(threads)  # all threads meet the empty cache
        payloads, lock = [], threading.Lock()

        def client():
            start.wait(timeout=30)
            for _ in range(requests):
                transport = FakeTransport([text_reply("1")])
                LLMPolicy("http://llm.test/v1", "m", registry=registry,
                          transport=transport).next(GOAL, ACTIONS)
                with lock:
                    payloads.append(transport.requests[0]["payload"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(payloads) == threads * requests
        assert set(payloads) == {oracle_payload("m", render_memory(GOAL, ACTIONS), registry)}


def call_reply(call):
    return {"choices": [{"message": {"tool_calls": [call]}}]}


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["choices", "message", "tool_calls", "function", "name",
                         "arguments", "content"]) | st.text(max_size=8),
        inner, max_size=4),
    max_leaves=12)


class TestHostileReplies:
    """Every decoded reply maps to a decision or to a PolicyError."""

    @pytest.mark.parametrize("reply", [
        None,
        [],
        {"choices": "x"},
        {"choices": [{"message": "x"}]},
        {"choices": [{"message": {"tool_calls": 5}}]},
        {"choices": [{"message": {"tool_calls": {"function": {}}}}]},
        call_reply("mean"),
        call_reply({"function": [1]}),
        call_reply({"function": {"name": 5, "arguments": "{}"}}),
        call_reply({"function": {"name": ["mean"], "arguments": "{}"}}),
        call_reply({"function": {"name": "mean", "arguments": "[" * 100_000}}),
        call_reply({"function": {"name": "mean", "arguments": "1" * 5000}}),
        call_reply({"function": {"name": "mean", "arguments": {"data": [1]}}}),
        call_reply({"function": {"name": "mean", "arguments": "[1]"}}),
    ], ids=["none", "list", "choices_str", "message_str", "tool_calls_int",
            "tool_calls_dict", "call_str", "function_list", "name_int", "name_list",
            "deep_arguments", "long_integer_arguments", "arguments_object",
            "arguments_list"])
    def test_malformed(self, registry, reply):
        transport = FakeTransport([reply, reply])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=transport)
        with pytest.raises(MalformedModelOutput):
            policy.next(GOAL, [])
        assert len(transport.requests) == 2  # one reprompt

    @pytest.mark.parametrize("arguments", [
        '{"kelvin": NaN}', '{"kelvin": Infinity}', '{"kelvin": -Infinity}',
        '{"kelvin": 1e999}', '{"kelvin": [300, {"k": -1e999}]}',
    ], ids=["nan", "infinity", "minus_infinity", "overflow", "nested_overflow"])
    def test_non_finite_arguments_are_reprompted(self, registry, arguments):
        transport = FakeTransport([
            call_reply({"function": {"name": "kelvin_to_celsius", "arguments": arguments}}),
            tool_call_reply("kelvin_to_celsius", {"kelvin": 300})])
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=transport)
        assert policy.next(GOAL, []) == ToolCallDecision("kelvin_to_celsius", {"kelvin": 300})
        assert "non-finite" in transport.requests[1]["body"]["messages"][-1]["content"]

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_answer_keeps_text_only(self, registry, text):
        policy = LLMPolicy("http://llm.test/v1", "m", registry=registry,
                           transport=FakeTransport([text_reply(text)]))
        assert policy.next(GOAL, []) == FinalAnswerDecision(text=text, value=None)

    @pytest.mark.parametrize("body", [
        "[" * 100_000, "1" * 5000, "{",
        '{"choices": [{"message": {"content": "1", "score": NaN}}]}',
        '{"choices": [{"message": {"content": "1", "score": -Infinity}}]}',
        '{"choices": [{"message": {"content": "1", "score": 1e999}}]}',
    ], ids=["deep_nesting", "long_integer", "truncated", "nan", "infinity", "overflow"])
    def test_undecodable_reply_is_unreachable(self, registry, raw_server, body):
        raw_server.reply = http_reply(body.encode())
        policy = LLMPolicy(server_url(raw_server) + "/v1", "m", registry=registry,
                           retries=1, timeout=5)
        with pytest.raises(PolicyUnreachable):
            policy.next(GOAL, [])

    @settings(max_examples=200, deadline=None)
    @given(reply=JSON | st.builds(lambda m: {"choices": [{"message": m}]}, JSON))
    def test_any_reply_is_decision_or_policy_error(self, reply):
        policy = LLMPolicy("http://llm.test/v1", "m", transport=FakeTransport([reply, reply]))
        try:
            decision = policy.next(GOAL, [])
        except PolicyError:
            return
        if isinstance(decision, ToolCallDecision):
            assert isinstance(decision.name, str) and isinstance(decision.args, dict)
            json.dumps(decision.args, allow_nan=False)
        else:
            assert isinstance(decision, FinalAnswerDecision)
            json.dumps(decision.value, allow_nan=False)
