"""Benchmark for the geoagent package: seeded workloads, an output gate,
end-to-end metrics and a traced per-layer run. Entry point: run.py."""
