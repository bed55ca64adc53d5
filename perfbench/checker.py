"""Output checks computed apart from the program.

Everything here uses NumPy and the standard library only: the bins, the
exact errors, the derived parameters and the bounds are recomputed from the
world arrays with the benchmark's own formulas and compared with what
``lpcal`` wrote.  ``self_test`` pins the two error formulas against the
brute-force oracles in ``tests/oracles.py``.

Run ``python3 perfbench/checker.py`` from the repository root to run the
self-test alone.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

# Coordinates within SNAP below a grid point bin as if on it.  This is part
# of the binning rule, not a tolerance: the report's errors are defined with
# it, so the checker must bin the same way to reproduce them.
SNAP = 1e-9
AGREE = 1e-9  # largest difference allowed between a recomputed value and the report
SLACK = 1e-12  # float slack on the paper's bounds


def bin_rows(table: np.ndarray, lam: int) -> np.ndarray:
    """Vectorised floor rounding: row x -> integer numerators over ``lam``."""
    return np.minimum(np.floor(table * lam + SNAP), lam).astype(np.int64)


def bin_errors(mass: np.ndarray, cond: np.ndarray, table: np.ndarray, lam: int) -> np.ndarray:
    """(realized bins, k) absolute mass-weighted gaps, binned by ``table``'s own rows."""
    _, inverse = np.unique(bin_rows(table, lam), axis=0, return_inverse=True)
    signed = np.zeros((int(inverse.max()) + 1, table.shape[1]))
    np.add.at(signed, inverse.reshape(-1), mass[:, None] * (table - cond))
    return np.abs(signed)


def lp_norm(errors: np.ndarray, p: float) -> float:
    flat = errors.ravel()
    if math.isinf(p):
        return float(flat.max(initial=0.0))
    return float(np.sum(flat**p) ** (1.0 / p))


def sq_error(mass: np.ndarray, cond: np.ndarray, table: np.ndarray) -> float:
    """E ||q(x) - e_y||^2 as the sum over (x, y) of mass * P(y|x) * ||q(x) - e_y||^2."""
    norm2 = np.sum(table * table, axis=1)
    per_label = norm2[:, None] - 2.0 * table + 1.0  # ||q - e_j||^2 for every j
    return float(mass @ np.sum(cond * per_label, axis=1))


def parse_p(raw: str) -> float:
    return math.inf if raw == "inf" else float(Fraction(raw))


def derive(p: float, eps: float) -> tuple[float, int, int]:
    """beta, lam and t_max from (p, eps), as the paper defines them.

    The ceilings forgive 1e-9 of float noise above an exact integer, so that
    for example 1/0.03125 gives 32.
    """
    beta = eps if math.isinf(p) else eps ** (p / (p - 1.0)) / 2.0 ** (1.0 / (p - 1.0))
    lam = math.ceil(1.0 / beta - 1e-9)
    t_max = math.ceil((9.0 + 36.0 / lam * math.log2(36.0 / beta)) / beta**2 - 1e-9)
    return beta, lam, t_max


def _key(q: float) -> str:
    return "pinf" if math.isinf(q) else f"p{q:g}"


def check_config(report_text: str, trace_text: str, arrays: dict) -> list[str]:
    """Every check on one config's outputs; returns the failures, empty if none."""
    rep = json.loads(report_text)
    bad: list[str] = []

    def near(what: str, got: float, want: float, tol: float = AGREE) -> None:
        if not abs(got - want) <= tol:
            bad.append(f"{what}: report {want!r}, recomputed {got!r}")

    if rep.get("status") != "ok":
        return [f"status {rep.get('status')!r}"]
    p = parse_p(rep["params"]["p"])
    eps = float(rep["params"]["eps"])
    beta, lam, t_max = derive(p, eps)
    near("beta", beta, rep["params"]["beta"], SLACK * max(1.0, beta))
    if rep["params"]["lambda"] != lam:
        bad.append(f"lambda: report {rep['params']['lambda']}, derived {lam}")
    if rep["params"]["t_max"] != t_max:
        bad.append(f"t_max: report {rep['params']['t_max']}, derived {t_max}")

    mass, cond, f, h = (arrays[name] for name in ("mass", "conditional", "f", "h"))
    if not np.all(np.isfinite(h)) or np.any(h < 0.0):
        bad.append("h has a negative or non-finite entry")
    if np.any(np.abs(h.sum(axis=1) - 1.0) > AGREE):
        bad.append("a row of h does not sum to 1")

    errs = {"f": bin_errors(mass, cond, f, lam), "h": bin_errors(mass, cond, h, lam)}
    for side, e in errs.items():
        for q in sorted({1.0, 2.0, math.inf, p}):
            near(f"Err_{_key(q)}({side})", lp_norm(e, q), rep["errors"][side][_key(q)])
        near(f"run_p Err({side})", lp_norm(e, p), rep["errors"]["run_p"][side])
    near("max_bin_class_h", lp_norm(errs["h"], math.inf), rep["errors"]["max_bin_class_h"])
    sq_f, sq_h = sq_error(mass, cond, f), sq_error(mass, cond, h)
    near("sq_error f", sq_f, rep["sq_error"]["f"])
    near("sq_error h", sq_h, rep["sq_error"]["h"])
    near("sq_error diff", sq_h - sq_f, rep["sq_error"]["diff"])

    iterations = rep["iterations"]
    if not iterations <= t_max:
        bad.append(f"{iterations} iterations above t_max {t_max}")
    rows = trace_text.count("\n") - 1
    if rows != iterations:
        bad.append(f"trace.csv has {rows} rows for {iterations} iterations")

    # The paper's guarantees hold given the accuracy events, so only then.
    if rep["events"].get("all_held"):
        err_h = lp_norm(errs["h"], p)
        if not err_h <= eps + SLACK:
            bad.append(f"events held but Err_p(h) = {err_h!r} > eps = {eps}")
        budget = 4.0 / lam * (1.0 + math.log2(36.0 / beta))
        if not sq_h - sq_f <= budget + SLACK:
            bad.append(f"events held but squared error rose {sq_h - sq_f!r} > {budget!r}")
    return bad


def check_reference(ref_dir: Path, cells: list[str]) -> dict[str, list[str]]:
    """Failures per cell of the reference outputs written under ``ref_dir``."""
    out = {}
    for cell in cells:
        d = ref_dir / cell
        with np.load(d / "arrays.npz", allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        out[cell] = check_config(
            (d / "report.json").read_text(encoding="utf-8"),
            (d / "trace.csv").read_text(encoding="utf-8"),
            arrays,
        )
    return out


def compare_call(
    call_dir: Path, ref_dir: Path, cells: list[str], first_call: Path | None
) -> list[str]:
    """Byte differences of one timed call's outputs from the reference run.

    A sweep's ``summary.csv`` has no reference run; it must match the
    ``first_call``'s instead.
    """
    bad = []
    for cell in cells:
        for name in ("report.json", "trace.csv"):
            rel = Path(cell) / name
            got, want = call_dir / rel, ref_dir / rel
            if not got.is_file():
                bad.append(f"{rel} missing")
            elif got.read_bytes() != want.read_bytes():
                bad.append(f"{rel} differs from the reference run")
    if first_call is not None:
        got, want = call_dir / "summary.csv", first_call / "summary.csv"
        if not got.is_file() or got.read_bytes() != want.read_bytes():
            bad.append("summary.csv missing or different from the first call's")
    return bad


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def self_test(root: Path) -> list[str]:
    """The checker's Err_p and squared error against the literal oracles.

    Small random worlds, plus rows placed exactly on grid points (where only
    SNAP decides the bin), at several (lam, k, p).
    """
    sys.path.insert(0, str(root / "src"))
    oracles = _load_oracles(root)
    from lpcal.world import World

    rng = np.random.default_rng(2509)
    bad = []
    for n, k, lam in ((9, 2, 3), (12, 3, 3), (12, 3, 5), (10, 4, 6)):
        mass = rng.dirichlet(np.ones(n))
        cond = rng.dirichlet(np.ones(k), size=n)
        table = rng.dirichlet(np.ones(k), size=n)
        table[0] = 1.0 / k
        table[1] = 0.0
        table[1, 0] = 1.0
        table[2] = 0.0
        table[2, :2] = 2.0 / lam, 1.0 / lam
        table[2, -1] = 1.0 - table[2, 0] - table[2, 1]  # 0.39999999999999997 at lam=5
        world = World(mass, cond)
        errors = bin_errors(world.mass, world.conditional, table, lam)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            got = lp_norm(errors, p)
            want = oracles.lp_error_literal(world, table, lam, p)
            if not abs(got - want) <= SLACK:
                bad.append(f"Err_{p} at (n={n}, k={k}, lam={lam}): {got!r} != oracle {want!r}")
        got = sq_error(world.mass, world.conditional, table)
        want = oracles.sq_error_by_expectation(world, table)
        if not abs(got - want) <= SLACK:
            bad.append(f"squared error at (n={n}, k={k}): {got!r} != oracle {want!r}")
    return bad


if __name__ == "__main__":
    failures = self_test(Path.cwd())
    for line in failures:
        print(line, file=sys.stderr)
    print("checker self-test:", "FAILED" if failures else "ok")
    raise SystemExit(1 if failures else 0)
