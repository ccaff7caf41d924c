"""Source mutants against the test suite: a minimal mutation harness.

Each mutant is one exact string replacement in one module under src/. For
each, the script copies src/, tests/ and pyproject.toml to a temporary
directory, applies the replacement there, runs ``pytest -x -q`` in the copy
and prints whether the suite killed the mutant, with the first test that
failed. A replacement whose text does not occur exactly once in its module
is reported as stale, and the script then exits 1.

Run it from anywhere, with the standard library and the suite's own
requirements (pytest, hypothesis, numpy) installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py floor      # the mutants whose name contains "floor"

Each killed mutant takes a few seconds and a survivor one full suite run.
pytest does not collect this file: its name does not start with test_.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module under src/qremote, text, replacement)
MUTANTS = (
    ("record drops consumed", "locc.py",
     "LocalOpEvent(step.party, step.label, factors, step.message)",
     "LocalOpEvent(step.party, step.label, factors)"),
    ("record drops send_to", "locc.py",
     "MeasureStep(step.party, target, step.message, step.send_to)",
     "MeasureStep(step.party, target, step.message)"),
    ("inbox delivery dropped", "locc.py",
     "for party in {step.party, step.send_to} - {None}:",
     "for party in {step.party}:"),
    ("transcript_lines prints the wrong payload", "locc.py",
     "to={s.send_to.value},payload={k}",
     "to={s.send_to.value},payload={s.target}"),
    ("_weights without its imaginary part", "locc.py",
     " + np.einsum(im, axes, im, axes, [0, axis])",
     ""),
    ("sqrt dropped from the renormalization", "locc.py",
     "np.where(kept_mask, np.sqrt(p), np.inf)",
     "np.where(kept_mask, p, np.inf)"),
    ("dead rows not zeroed", "locc.py",
     "np.where(kept_mask, np.sqrt(p), np.inf)",
     "np.sqrt(p)"),
    ("probability floor removed", "locc.py",
     "kept_mask = p > qcore.PROB_FLOOR",
     "kept_mask = p >= 0"),
    ("coupling basis not conjugated", "locc.py",
     "y = basis.conj().T @ rows",
     "y = basis.T @ rows"),
    ("ownership check skipped", "locc.py",
     "        if owners[t] is not party:\n",
     "        if False:\n"),
    ("table broadcast on the wrong outcome axis", "locc.py",
     "np.expand_dims(ops, others)",
     "np.expand_dims(ops, tuple(range(kept.ndim - 1)))"),
    ("reached set taken over all payloads", "locc.py",
     "reached = kept.any(axis=others)",
     "reached = np.ones(kept.shape[axis], dtype=bool)"),
    ("identity fill dropped: unreached payloads apply their entries", "locc.py",
     "np.tile(np.eye(d, dtype=complex), (len(reached), 1, 1))",
     "table[:len(reached)].copy()"),
    ("closing gate passes a NaN norm", "locc.py",
     "bad = np.flatnonzero(~(np.abs(norms - 1.0) <= qcore.NORM_TOL))",
     "bad = np.flatnonzero(np.abs(norms - 1.0) > qcore.NORM_TOL)"),
    ("pruning total passes a NaN", "locc.py",
     "if not lost <= qcore.NORM_TOL:",
     "if lost > qcore.NORM_TOL:"),
    ("certificate lookup always passes", "qcore.py",
     "return unitarity_defect(table) if certified is None else certified",
     "return np.zeros(table.shape[:-2]) if certified is None else certified"),
    ("gather certifies an uncertified stack", "qcore.py",
     "return taken if certified is None else _certify(taken, certified[index])",
     "return _certify(taken, np.zeros(len(taken)))"),
    ("fourier_matrix certified without its check", "qcore.py",
     "return checked_unitary(f.conj().T if inverse else f)",
     "return _certify(f.conj().T if inverse else f, 0.0)"),
    ("checked_unitary certifies on a failed check", "qcore.py",
     "    if not (defects <= NORM_TOL).all():   # nan fails too\n        return None\n",
     ""),
    ("from_monomial certifies a non-permutation", "qcore.py",
     " and (np.sort(cols, axis=-1) == np.arange(d)).all():",
     ":"),
    ("bqst builds U diag(e^{i 1e-5}, 1, ..)", "entcost.py",
     'LocalStep(BOB, "U", u, (2,))',
     'LocalStep(BOB, "U", u * np.exp(1e-5j * (np.arange(dim) == 0)), (2,))'),
)

SKIP = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def run_mutant(module: str, old: str, new: str) -> tuple[str, str, float]:
    """(verdict, first failing test, seconds) for one replacement."""
    with tempfile.TemporaryDirectory(prefix="qremote-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=SKIP)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "qremote" / module
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", f"the text occurs {text.count(old)} times in {module}", 0.0
        target.write_text(text.replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit {proc.returncode}", seconds


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    verdicts = []
    for name, module, old, new in chosen:
        verdict, test, seconds = run_mutant(module, old, new)
        verdicts.append(verdict)
        print(f"{verdict:8}  {seconds:5.1f} s  {name}  {test}".rstrip(), flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('stale')} stale")
    return 1 if "stale" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
