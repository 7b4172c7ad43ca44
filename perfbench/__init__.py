"""The sictomo benchmark: CLI-pipeline workloads timed end to end, and a
traced run that times each layer. See README.md; run perfbench/run.py."""
