"""Benchmark harness for toposlsc: `python3 perfbench/run.py --help`."""
