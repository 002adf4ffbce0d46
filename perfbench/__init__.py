"""The repository benchmark; run it as ``python3 perfbench/run.py``."""
