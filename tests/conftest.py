"""Let the command-line subprocesses the tests start import prflags from this
checkout's src/, as the tests themselves do, without an installed package."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
