"""The ``repro build`` verb and what each verb writes to the build cache."""

import json

from repro.cli import main


class TestBuild:
    def test_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["build", "dual_ehb", "--cache", cache]) == 0
        assert "built" in capsys.readouterr().out
        assert main(["build", "dual_ehb", "--cache", cache]) == 0
        assert "cached" in capsys.readouterr().out

    def test_default_builds_every_target(self, tmp_path, capsys):
        from repro.faults.targets import TARGETS

        cache = str(tmp_path / "cache")
        assert main(["build", "--cache", cache]) == 0
        out = capsys.readouterr().out
        for name in TARGETS:
            assert name in out
        assert main(["build", "--cache", cache, "--stats"]) == 0
        assert f"entries:    {len(TARGETS)}" in capsys.readouterr().out

    def test_stats_alone_builds_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["build", "--cache", cache, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    0" in out
        assert "built" not in out

    def test_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["build", "join", "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["build", "--cache", cache, "--clear", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 artifact(s)" in out
        assert "entries:    0" in out

    def test_unknown_target(self, tmp_path, capsys):
        import pytest

        with pytest.raises(SystemExit, match="unknown build target"):
            main(["build", "bogus", "--cache", str(tmp_path)])


def _artifacts(root):
    """(generated modules, JSON payloads) stored under a cache dir."""
    return (len(list(root.glob("*/module.py"))),
            len(list(root.glob("*/data.json"))))


class TestInjectCache:
    """``repro inject`` writes one module per target, and only for lanes."""

    ARGS = ["inject", "--netlist", "join", "--fault", "stuck0,stuck1,flip",
            "--cycles", "80"]

    def test_lanes_report_matches_scalar(self, tmp_path, capsys):
        scalar = tmp_path / "scalar.json"
        lanes = tmp_path / "lanes.json"
        cache = tmp_path / "cache"
        main(self.ARGS + ["--report", str(scalar)])
        assert not cache.exists()
        main(self.ARGS + ["--lanes", "16", "--cache", str(cache),
                          "--report", str(lanes)])
        assert scalar.read_text() == lanes.read_text()
        assert _artifacts(cache) == (1, 0)

    def test_scalar_run_writes_no_module(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(self.ARGS + ["--cache", str(cache)])
        assert _artifacts(cache) == (0, 0)


class TestProfileCache:
    ARGS = ["profile", "--design", "dual_ehb", "--cycles", "50"]

    def test_compiled_backend_writes_one_module(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self.ARGS + ["--backend", "compiled",
                                 "--cache", str(cache)]) == 0
        assert _artifacts(cache) == (1, 0)

    def test_scalar_backend_writes_nothing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self.ARGS + ["--cache", str(cache)]) == 0
        assert _artifacts(cache) == (0, 0)

    def test_no_cache_flag_is_gone(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--backend", "compiled", "--no-cache"])
        assert exc.value.code == 2


class TestFuzzCache:
    """``--no-cache`` skips the Kripke cache."""

    ARGS = ["fuzz", "--seed", "3", "--specs", "2", "--max-blocks", "8",
            "--cycles", "16", "--lanes", "4"]

    def test_cache_dir_holds_modules_and_kripke_tables(self, tmp_path,
                                                      capsys):
        cache = tmp_path / "cache"
        assert main(self.ARGS + ["--cache", str(cache)]) == 0
        modules, payloads = _artifacts(cache)
        assert modules == 2 and payloads >= 1

    def test_no_cache_stores_no_kripke_tables(self, tmp_path, capsys):
        import os
        from pathlib import Path

        default = Path(os.environ["REPRO_CACHE_DIR"])
        cache = tmp_path / "cache"
        assert main(self.ARGS + ["--cache", str(cache), "--no-cache"]) == 0
        assert _artifacts(cache)[1] == 0
        assert _artifacts(default)[1] == 0

    def test_no_cache_still_builds_modules_in_cache_dir(self, tmp_path,
                                                        capsys):
        cache = tmp_path / "cache"
        assert main(self.ARGS + ["--cache", str(cache), "--no-cache"]) == 0
        assert _artifacts(cache) == (2, 0)


class TestLintCache:
    def test_cached_run_matches_uncached(self, tmp_path, capsys):
        target = "rtl:join"
        assert main(["lint", target, "--no-cache"]) == 0
        plain = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        assert main(["lint", target, "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["lint", target, "--cache", cache]) == 0
        warm = capsys.readouterr().out
        assert plain == cold == warm

    def test_cached_json_findings_identical(self, tmp_path, capsys):
        target = "rtl:join"
        cache = str(tmp_path / "cache")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["lint", target, "--no-cache", "--json", str(a)]) == 0
        assert main(["lint", target, "--cache", cache,
                     "--json", str(b)]) == 0
        assert json.loads(a.read_text()) == json.loads(b.read_text())
