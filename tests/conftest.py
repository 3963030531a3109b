"""Tier-1 writes no bytecode: neither the tests' own imports of ruled4 nor
the interpreters they start leave a __pycache__ under src/, so a later
from-source measurement in the same tree compiles ruled4 as a fresh
checkout does."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
