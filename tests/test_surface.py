"""Every public function has a caller in the pipeline.

A function in ``dinet.__all__`` stays public only while the command line,
a demo, the acceptance gate or the benchmark names it; the unit tests do
not count.  Classes are exempt: results and errors are part of the
contract.  The callers' files are only read, never imported.
"""

import inspect
import re
from pathlib import Path

import dinet

ROOT = Path(__file__).resolve().parents[1]


def caller_files() -> list[Path]:
    demos = sorted((ROOT / "demos").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert demos and bench
    return [ROOT / "src" / "dinet" / "cli.py", *demos, ROOT / "tests" / "test_acceptance.py", *bench]


def test_every_public_function_is_named_by_a_pipeline_caller():
    words = set()
    for path in caller_files():
        words.update(re.findall(r"\w+", path.read_text()))
    functions = [name for name in dinet.__all__ if not inspect.isclass(getattr(dinet, name))]
    assert functions
    assert [name for name in functions if name not in words] == []
