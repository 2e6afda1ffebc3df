"""Benchmark harness for the marc package; see README.md."""
