import json
from pathlib import Path

from conftest import run_python

TOOL = str(Path(__file__).resolve().parents[1] / "tools" / "identity.py")


def test_smoke_dumps_on_one_and_two_workers_are_identical(tmp_path):
    # the smoke grids are under 64 points, so each is one chunk and starts
    # no pool on 2 workers, and even their progress lines agree (a grid of
    # several chunks prints one progress line per chunk)
    dumps = [tmp_path / "w1.json", tmp_path / "w2.json"]
    for workers, out in zip((1, 2), dumps):
        proc = run_python(TOOL, "dump", "--cases", "smoke", "--workers", str(workers),
                          "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    proc = run_python(TOOL, "diff", *map(str, dumps))
    assert proc.returncode == 0, proc.stdout
    cases = json.loads(dumps[0].read_text())["cases"]
    assert proc.stdout.splitlines()[-1] == f"all {len(cases)} cases identical"
    # a CLI run, a refusal and a report are among them
    assert cases["cli sweep list.json"]["stderr"] == (
        "error: list.json: expected a JSON object, got list\n"
    )
    assert cases["cli point"]["code"] == 0 and cases["cli point"]["files"] == {}
    # progress lines are kept apart from the rest of stderr
    grid_case = "cli figure fig4a --grid 5x5 --format csv"
    grid = cases[grid_case]
    assert grid["progress"] == "fig4a: 25/25 points\n"
    assert grid["stderr"].splitlines()[-1] == "fig4a: wrote 25 rows to fig4a.csv"
    assert "points" not in grid["stderr"]
    row = cases["stress 0"]["rows"][0]
    assert row.pop("stable") is True and all(cell.startswith(("0x", "-0x")) for cell in row.values())

    # one changed cell, or one more progress line, is reported by its case
    # and key, with exit status 1
    dumped = json.loads(dumps[1].read_text())
    dumped["cases"][grid_case]["progress"] = "fig4a: 8/25 points\n" + grid["progress"]
    dumps[1].write_text(json.dumps(dumped))
    proc = run_python(TOOL, "diff", *map(str, dumps))
    assert proc.returncode == 1
    assert f"differs: {grid_case}\n  record.progress:\n" in proc.stdout
    assert "record.stderr" not in proc.stdout
    dumped = json.loads(dumps[0].read_text())
    dumped["cases"]["stress 0"]["rows"][0]["nu_min"] = (0.5).hex()
    dumps[1].write_text(json.dumps(dumped))
    proc = run_python(TOOL, "diff", *map(str, dumps))
    assert proc.returncode == 1
    assert "differs: stress 0\n  record.rows[0].nu_min:\n" in proc.stdout
    assert proc.stdout.splitlines()[-1] == f"1 of {len(cases)} cases differ"
