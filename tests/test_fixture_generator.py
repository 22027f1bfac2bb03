"""The committed pipeline fixtures are what scripts/make_pipeline_fixture.py
generates: both directories, file for file and byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def files(directory: Path) -> dict[str, bytes]:
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_the_generator_writes_the_committed_fixtures(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "scripts" / "make_pipeline_fixture.py"
    subprocess.run(
        [sys.executable, "-B", str(script), "--fixtures-dir", str(tmp_path)],
        env=env,
        check=True,
        capture_output=True,
    )
    for name in ("pipeline", "expert_pipeline"):
        assert files(tmp_path / name) == files(FIXTURES / name), name
