"""Test setup for the benchmark's own tests: import the benchmark modules and
fishervi from this checkout's src/.

    python3 -m pytest fitbench -q
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
