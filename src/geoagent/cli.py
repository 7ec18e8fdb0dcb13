"""Command-line entry point.

Subcommands: `serve` (tool server), `tools` (list the registry), `run` (one
task), `bench` (a task suite), `eval` (score a stored trajectory), `annotate`
(plan file -> ground truth), `fixtures` (generate the mini-benchmark).
Operational failures exit 1 with a JSON error object on stderr.

`serve` and `tools` load the tool layer alone: the benchmark runner, the
evaluation and the fixture modules are imported by the commands that run them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from .agent import AUTO_PLANNING, INSTRUCTION_FOLLOWING, LLMPolicy, replay_policy
from .agent.engine import MAX_STEPS
from .agent.policies import LLM_TIMEOUT_S, OBSERVATION_BUDGET
from .errors import GeoAgentError, of_type
from .kits.perception import MOCK_MANIFEST, HttpExpertBackend, MockExpertBackend
from .tools import ToolContext, ToolRegistry, build_registry
from .tools.mcp import DEFAULT_HOST, DEFAULT_PORT, serve_stdio, serve_tcp
from .workspace import Workspace

REGIME_FLAGS = {"ap": AUTO_PLANNING, "if": INSTRUCTION_FOLLOWING}

CONFIG_KEYS = ("workspace", "expert_endpoint", "mock_manifest",
               "llm_endpoint", "llm_model")


def resolve_settings(args) -> None:
    """Fill unset options from env, then from the optional config file.

    Precedence: explicit flag > environment variable > config file > default.
    """
    config = {}
    config_path = getattr(args, "config", None) or os.environ.get("GEOAGENT_CONFIG")
    if config_path:
        config = of_type(json.loads(Path(config_path).read_text()), dict, "config")
        unknown = sorted(set(config) - set(CONFIG_KEYS))
        if unknown:
            raise GeoAgentError(f"unknown config keys {unknown}")
        for key, value in config.items():
            of_type(value, (str, type(None)), f"config {key}")
    env = {
        "workspace": os.environ.get("WORKSPACE_ROOT"),
        "expert_endpoint": os.environ.get("EXPERT_ENDPOINT"),
        "llm_endpoint": os.environ.get("LLM_ENDPOINT"),
        "llm_model": os.environ.get("LLM_MODEL"),
    }
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is None:
            setattr(args, key, env.get(key) or config.get(key))
    if getattr(args, "workspace", None) is None:
        args.workspace = "."


def make_context(workspace_root: str, expert_endpoint: str | None = None,
                 mock_manifest: str | None = None) -> ToolContext:
    ws = Workspace(workspace_root)
    if expert_endpoint:
        backend = HttpExpertBackend(expert_endpoint)
    elif mock_manifest:
        backend = MockExpertBackend(json.loads(Path(mock_manifest).read_text()), ws)
    else:  # the default manifest is optional
        default = ws.root / MOCK_MANIFEST
        backend = MockExpertBackend(
            json.loads(default.read_text()) if default.is_file() else [], ws)
    return ToolContext(workspace=ws, perception=backend)


def load_suite(tasks_dir: str | Path, workspace_root: str | Path | None = None,
               registry: ToolRegistry | None = None) -> list:
    """The tasks of a suite directory: `bench.load_suite`, imported on first call."""
    from .bench import load_suite

    return load_suite(tasks_dir, workspace_root, registry)


def _registry(args) -> ToolRegistry:
    return build_registry(make_context(args.workspace, args.expert_endpoint,
                                       args.mock_manifest))


def _policy_factory(args, registry):
    from .bench import load_plan, replay_factory

    kind = args.policy
    if kind == "replay":
        return replay_factory
    if kind == "llm":
        endpoint = args.llm_endpoint
        model = args.llm_model or "default"
        if not endpoint:
            raise GeoAgentError("llm policy needs --llm-endpoint, LLM_ENDPOINT, "
                                "or a config file entry")
        key = os.environ.get("LLM_API_KEY", "")

        def factory(task, regime):
            return LLMPolicy(endpoint, model, api_key=key, registry=registry,
                             no_tool_mode=args.no_tools, timeout=args.tool_timeout,
                             observation_budget=args.observation_budget)

        return factory
    if kind.startswith("script:"):
        steps, plan_doc = load_plan(kind.split(":", 1)[1])
        answer = plan_doc.get("answer", {})

        def factory(task, regime):
            return replay_policy(steps, answer_text=answer.get("text"),
                                 answer_value=answer.get("value"))

        return factory
    raise GeoAgentError(f"unknown policy {kind!r}")


def cmd_serve(args) -> int:
    registry = _registry(args)
    if args.transport == "stdio":
        serve_stdio(registry)
        return 0
    server = serve_tcp(registry, args.host, args.port)
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as Ctrl-C does
        host, port = server.server_address
        print(json.dumps({"listening": f"{host}:{port}", "tools": len(registry)}),
              flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_tools(args) -> int:
    specs = _registry(args).list_specs()
    print(f"{len(specs)} tools registered")
    for spec in specs:
        print(f"  {spec.name}")
    return 0


def cmd_run(args) -> int:
    from .bench import canonical_json, load_task, run_task, save_record

    registry = _registry(args)
    task = load_task(args.task, workspace_root=registry.workspace.root,
                     registry=registry)
    factory = _policy_factory(args, registry)
    trajectory, score = run_task(task, registry, registry.workspace, factory,
                                 REGIME_FLAGS[args.regime], args.max_steps,
                                 model_tag=args.model_tag)
    if args.out:
        save_record(trajectory, args.out)
    else:
        print(canonical_json(trajectory.as_json()), end="")
    print(json.dumps({"task": task.id, "stop_reason": trajectory.stop_reason,
                      "answer": trajectory.answer_text,
                      "accuracy": score.acc}, sort_keys=True), file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    from .bench import run_benchmark

    registry = _registry(args)
    tasks = load_suite(args.tasks_dir, workspace_root=registry.workspace.root,
                       registry=registry)
    factory = _policy_factory(args, registry)
    regimes = [REGIME_FLAGS[args.regime]] if args.regime != "both" \
        else list(REGIME_FLAGS.values())
    all_scores = []
    for regime in regimes:
        out_dir = Path(args.out_dir) / regime.lower() if args.out_dir else None
        result = run_benchmark(tasks, registry, registry.workspace, regime=regime,
                               policy_factory=factory,
                               parallelism=args.parallelism,
                               max_steps=args.max_steps,
                               model_tag=args.model_tag, out_dir=out_dir)
        all_scores.extend(result.scores)
        if result.failures:
            print(json.dumps({"failures": result.failures}), file=sys.stderr)
        print(result.table())
    if not all_scores:
        raise GeoAgentError("no task completed")
    return 0


def cmd_eval(args) -> int:
    from .bench import canonical_json, load_record, load_task
    from .evaluation import score_trajectory

    trajectory = load_record(args.pred)
    task = load_task(args.gt)
    score = score_trajectory(task, trajectory,
                             Workspace(args.workspace) if args.workspace else None)
    print(canonical_json(score.as_json()), end="")
    return 0


def cmd_annotate(args) -> int:
    from .bench import annotate_from_plan, canonical_json, load_plan

    registry = _registry(args)
    plan, plan_doc = load_plan(args.plan)
    gt = annotate_from_plan(plan, registry, registry.workspace,
                            answer_path=plan_doc.get("answer_path"),
                            answer_text=plan_doc.get("answer_text"))
    text = canonical_json(gt.as_json())
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_fixtures(args) -> int:
    from .bench.fixtures import SUITE_SEED, generate_fixture_suite

    tasks = generate_fixture_suite(args.out,
                                   seed=SUITE_SEED if args.seed is None else args.seed)
    print(json.dumps({"generated": len(tasks),
                      "tasks_dir": str(Path(args.out) / "tasks"),
                      "workspace": str(Path(args.out).resolve())}, sort_keys=True))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workspace", default=None,
                   help="workspace root (env WORKSPACE_ROOT, default .)")
    p.add_argument("--config", default=None,
                   help="JSON config file (env GEOAGENT_CONFIG); flags and "
                        "env variables take precedence")
    p.add_argument("--expert-endpoint", default=None,
                   help="HTTP base URL of the expert-model service; "
                        "defaults to the mock backend (env EXPERT_ENDPOINT)")
    p.add_argument("--mock-manifest", default=None,
                   help="mock perception manifest "
                        f"(default: <workspace>/{MOCK_MANIFEST})")


def _add_policy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", default="replay",
                   help="replay | llm | script:<plan.json>")
    p.add_argument("--no-tools", action="store_true",
                   help="ablation: hide tool schemas from the model")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS)
    p.add_argument("--tool-timeout", type=float, default=LLM_TIMEOUT_S,
                   help="seconds allowed per LLM request; native tool kernels "
                        "run in-process and are not interruptible")
    p.add_argument("--observation-budget", type=int, default=OBSERVATION_BUDGET,
                   help="transcript bytes kept per tool result")
    p.add_argument("--model-tag", default=None)
    p.add_argument("--llm-endpoint", default=None, help="env LLM_ENDPOINT")
    p.add_argument("--llm-model", default=None, help="env LLM_MODEL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoagent",
        description="Geoscience tool server, episode runner, and evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="serve the tool registry over JSON-RPC")
    _add_common(p)
    p.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    p.add_argument("--host", default=DEFAULT_HOST)
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("tools", help="list registered tools")
    _add_common(p)
    p.set_defaults(fn=cmd_tools)

    p = sub.add_parser("run", help="run one task")
    _add_common(p)
    _add_policy(p)
    p.add_argument("--task", required=True)
    p.add_argument("--regime", choices=("ap", "if"), default="ap")
    p.add_argument("--out", default=None, help="trajectory output file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="run a task suite and report metrics")
    _add_common(p)
    _add_policy(p)
    p.add_argument("--tasks-dir", required=True)
    p.add_argument("--regime", choices=("ap", "if", "both"), default="ap")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="score a stored trajectory")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--workspace", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("annotate", help="execute a plan into ground truth")
    _add_common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("fixtures", help="generate the synthetic mini-benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="suite seed (default: the fixture suite's)")
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_settings(args)
        if getattr(args, "model_tag", None) is None:
            args.model_tag = getattr(args, "llm_model", None) or "replay"
        return args.fn(args)
    except (GeoAgentError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
