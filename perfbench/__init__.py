"""Benchmark of the engine as users run it: see README.md in this directory."""
