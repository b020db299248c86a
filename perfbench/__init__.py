"""Benchmark harness for the bentgroups CLI (see ``perfbench/run.py``)."""
