"""Byte-identical CLI output on the shipped scenarios.

Each case runs cli.main in process and compares the exit code, stdout,
stderr and (for plan, sweep and simulate) the CSV with files under
tests/golden/.
Any change to a planned number, a warning or a verify line shows up here
as a diff.  After an intended output change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff before committing it.
"""

from pathlib import Path

import pytest

from thzplanner import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("reference_k10", "single_user", "strict_infeasible_k10")

# values span infeasible, rate-constrained and unconstrained plans
SWEEPS = {
    "f_m": "5.0e8,2.0e9,2.0e10,1.0e11",
    "epsilon": "0.005,0.02,0.05,0.1",
    "theta_th": "0.9999,0.99999,0.9999999,0.999999999",
    "f_l": "5.0e8,1.4e9,2.0e9",
}

SIMULATE = ["--jobs", "20000", "--seed", "3"]


def _cases():
    """(case name, argv without the output flag, writes a CSV)."""
    out = []
    for name in SCENARIOS:
        path = str(ROOT / "scenarios" / f"{name}.yaml")
        out.append((f"plan_{name}", ["plan", path], True))
        out.append((f"plan_beta_one_{name}", ["plan", path, "--beta-one"], True))
        out.append((f"verify_{name}", ["verify", path], False))
        for mode in ("isolated", "shared-edge"):
            sim = ["simulate", path, "--mode", mode] + SIMULATE
            tag = mode.replace("-", "_")
            out.append((f"simulate_{tag}_{name}", sim, True))
            out.append((f"simulate_beta_one_{tag}_{name}", sim + ["--beta-one"], True))
    ref = str(ROOT / "scenarios" / "reference_k10.yaml")
    for axis, values in SWEEPS.items():
        out.append(
            (f"sweep_{axis}_reference_k10",
             ["sweep", ref, "--axis", axis, "--values", values], True)
        )
    return out


CASES = _cases()


def _run(argv, writes_csv, csv_path, capture):
    """Exit code plus captured streams as one text, and the CSV bytes."""
    if writes_csv:
        argv = argv + ["-o", str(csv_path)]
    rc = cli.main(argv)
    stdout, stderr = capture()
    log = f"exit: {rc}\n--- stdout\n{stdout}--- stderr\n{stderr}"
    # simulate writes no CSV when the plan is infeasible
    return log, csv_path.read_bytes() if csv_path.exists() else None


@pytest.mark.parametrize("name,argv,writes_csv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, writes_csv, tmp_path, capsys):
    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err

    log, csv_bytes = _run(argv, writes_csv, tmp_path / "out.csv", capture)
    assert log == (GOLDEN / f"{name}.log").read_text(encoding="utf-8")
    golden_csv = GOLDEN / f"{name}.csv"
    assert csv_bytes == (golden_csv.read_bytes() if golden_csv.exists() else None)


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, writes_csv in CASES:
            out, err = io.StringIO(), io.StringIO()

            def capture():
                return out.getvalue(), err.getvalue()

            csv_path = Path(tmp) / f"{name}.csv"
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                log, csv_bytes = _run(argv, writes_csv, csv_path, capture)
            (GOLDEN / f"{name}.log").write_text(log, encoding="utf-8")
            if csv_bytes is not None:
                (GOLDEN / f"{name}.csv").write_bytes(csv_bytes)


if __name__ == "__main__":
    _regenerate()
