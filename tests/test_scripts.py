"""The scripts under scripts/ run end to end on small inputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str) -> None:
    raise ValueError(f"not strict JSON: {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_search_evidence(tmp_path):
    proc = run_script(
        "search_evidence.py", "--groups", "Z4", "S3", "--budget", "200", "--seeds", "0",
        "-o", "evidence.json", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["evidence.json"]
    summary = strict_json((tmp_path / "evidence.json").read_text(encoding="utf-8"))
    assert summary["budget"] == 200
    assert list(summary["groups"]) == ["Z4", "S3"]
    assert summary["groups"]["Z4"]["any_certified"] is True
    assert summary["groups"]["S3"]["any_certified"] is False
    assert [run["seed"] for run in summary["groups"]["S3"]["runs"]] == [0]
