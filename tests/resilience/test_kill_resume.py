"""Checkpoint/resume determinism, including the SIGKILL acceptance test."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign
from repro.resilience import CheckpointMismatch

CFG = CampaignConfig(cycles=120, seed=2007)
SRC = Path(__file__).resolve().parent.parent.parent / "src"


def golden_json():
    return run_campaign("dual_ehb", CFG).to_json()


class TestCheckpointDeterminism:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = golden_json()
        ck = run_campaign("dual_ehb", CFG, checkpoint=str(tmp_path / "ck"))
        assert ck.to_json() == plain

    def test_resume_from_completed_store_is_byte_identical(self, tmp_path):
        ck = str(tmp_path / "ck")
        first = run_campaign("dual_ehb", CFG, checkpoint=ck)
        resumed = run_campaign("dual_ehb", CFG, checkpoint=ck)
        assert resumed.to_json() == first.to_json() == golden_json()

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        ck = str(tmp_path / "ck")

        class Abort(Exception):
            pass

        def bail_early(done, total):
            if done >= total // 3:
                raise Abort

        with pytest.raises(Abort):
            run_campaign("dual_ehb", CFG, lanes=4, checkpoint=ck,
                         progress=bail_early)
        chunks = list(Path(ck).glob("chunk-*.json"))
        assert chunks, "the interrupted run must have persisted chunks"
        resumed = run_campaign("dual_ehb", CFG, lanes=4, checkpoint=ck)
        assert resumed.to_json() == run_campaign("dual_ehb", CFG, lanes=4).to_json()

    def test_resume_announces_head_start(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_campaign("dual_ehb", CFG, lanes=8, checkpoint=ck)
        calls = []
        run_campaign("dual_ehb", CFG, lanes=8, checkpoint=ck,
                     progress=lambda done, total: calls.append((done, total)))
        assert len(calls) == 1 and calls[0][0] == calls[0][1]

    def test_mismatched_config_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_campaign("dual_ehb", CampaignConfig(cycles=60, seed=3), checkpoint=ck)
        with pytest.raises(CheckpointMismatch, match="cycles"):
            run_campaign("dual_ehb", CFG, checkpoint=ck)

    def test_mismatched_lanes_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        cfg = CampaignConfig(cycles=60, seed=3)
        run_campaign("dual_ehb", cfg, lanes=4, checkpoint=ck)
        with pytest.raises(CheckpointMismatch, match="lanes"):
            run_campaign("dual_ehb", cfg, lanes=8, checkpoint=ck)


@pytest.mark.slow
class TestKillAndResume:
    """The acceptance scenario: SIGKILL a sharded campaign, resume it."""

    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path):
        ck = tmp_path / "ck"
        report = tmp_path / "campaign.json"
        argv = [
            sys.executable, "-m", "repro", "inject",
            "--netlist", "dual_ehb", "--cycles", "120", "--jobs", "2",
            "--checkpoint", str(ck), "--report", str(report),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for some—but not all—chunks, then kill without grace.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it; still fine
                if len(list(ck.glob("chunk-*.json"))) >= 2:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign produced no chunks to kill over")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        resume = subprocess.run(
            [
                sys.executable, "-m", "repro", "inject",
                "--netlist", "dual_ehb", "--cycles", "120", "--jobs", "2",
                "--resume", str(ck), "--report", str(report),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert report.read_text() == golden_json()
        # The store was reused, not rebuilt from scratch.
        manifest = json.loads((ck / "manifest.json").read_text())
        assert manifest["target"] == "dual_ehb"


def _children(pid):
    """Live child pids of ``pid``, read from /proc (zombies count as gone)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.append(int(entry.name))
    return children


def _alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigkilled_inject_leaves_no_shard_workers():
    argv = [
        sys.executable, "-m", "repro", "inject",
        "--netlist", "dual_ehb", "--jobs", "2", "--cycles", "20000",
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            workers = _children(proc.pid)
            if len(workers) >= 2:
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
    assert len(workers) >= 2, "the campaign never started its shard workers"

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(_alive(w) for w in workers):
        time.sleep(0.05)
    survivors = [w for w in workers if _alive(w)]
    for pid in survivors:  # do not leak them into the rest of the run
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"shard workers {survivors} outlived the supervisor"
