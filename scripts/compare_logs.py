"""Field-by-field comparison of the engine logs and CLI output files of two revisions.

    python scripts/compare_logs.py --parent REV --change REV [--random-batches B]

Exports ``src/rydqnd`` of both revisions with ``git archive`` (as
`ab_inprocess.export` does) and runs, for each side in a subprocess of its
own:

* every case of ``tests/test_engine_golden.py`` (noiseless and noisy);
* B seeded random noiseless batches of four trajectories: n_max 1..10, Fock,
  Born and complex amplitude initial states (with and without vacuum weight),
  fixed, uniform-random and adaptive-greedy schedules, ejection on and off,
  0, 2 or 3 trace points; a third keep the default candidates 1..n_max, a third
  take Fock candidates of a random subset of 0..N (so a candidate may hold a
  photon number the state does not, and the state one no candidate holds), and
  a third those and a mixture candidate under a non-uniform prior.  A batch
  whose candidates all rule out a record is the one document ``error``;
* B seeded random noisy batches of two trajectories: N 1..6, n_true 0..N,
  the same schedules (a short greedy grid), ejection on and off, 0 or 2
  trace points, with and without a measurement window;
* every case of ``tests/test_simulate_golden.py``, ``tests/test_infer_golden.py``
  and ``tests/test_oracle_golden.py``, writing the files ``rydqnd simulate``,
  ``rydqnd infer`` and ``rydqnd oracle-check`` write.

Both sides run the cases of this checkout.  Each document (a log, a line of
``trajectories.jsonl``, ``summary.json``, a trace CSV, ``posterior.json``) is
flattened into fields named by their key path without list indices
(``posteriors``, ``trace.posterior``, ``record.tau_s``, a CSV column).  It
prints one line per golden case, per output file and per sweep: how many
documents are byte-identical, how many diverged, and the largest |delta| of
each numeric field that moved (the count of entries, for other fields).  A
log whose record differs (a flipped outcome, a changed drive time such as a
greedy tau, or another stopping cycle) diverged: it is named with its first
differing cycle and left out of the field maxima, since everything after
that cycle follows another record.  Then, per oracle cell (N, n,
gamma/omega), the largest |delta| of its ``max_deviation`` over the
``oracle-check`` files, and every ``pass`` or ``passed`` that flipped.  The
last lines give each field's largest |delta| over all documents.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# one side's documents: sys.argv[1] holds the package as rydqnd, sys.argv[2] is the output file
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], {tests!r}, {scripts!r}]
import compare_logs
compare_logs.dump(sys.argv[2], int(sys.argv[3]))
"""


def _random_case(rng, eng, FockDistribution, Posterior):
    """(initial state, params, batch size) of one random noiseless batch."""
    n_max = int(rng.integers(1, 11))
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    amps[0] *= rng.random() < 0.5  # vacuum weight in half the cases
    amps[1:] *= rng.random(n_max) < 0.8  # some photon numbers absent
    amps[n_max] = amps[n_max] or 1.0
    amps /= np.linalg.norm(amps)
    kind = int(rng.integers(3))
    if kind == 0:
        initial = int(rng.integers(0, n_max + 1))
    elif kind == 1:
        p = np.abs(amps) ** 2
        initial = FockDistribution(p / p.sum())
    else:
        initial = amps
    lo, hi = sorted(rng.uniform(0.05, 2.0, size=2))
    schedule, cycles = [(eng.Schedule.fixed(float(hi)), 30),
                        (eng.Schedule.uniform_random(float(lo), float(hi)), 30),
                        (eng.Schedule.adaptive_greedy(int(rng.integers(8, 40))), 8)][
        int(rng.integers(3))]
    N = n_max + int(rng.integers(0, 3))
    params = dict(omega=1.0, N=N, n_max=n_max, mode=eng.NOISELESS_PURE,
                  schedule=schedule, seed=int(rng.integers(1 << 30)), max_cycles=cycles,
                  ejection_enabled=bool(rng.random() < 0.5),
                  trace_points=int(rng.choice([0, 2, 3])))
    kind = int(rng.integers(3))  # drawn last, so the default-candidate cases stay as they were
    if kind:
        ns = np.flatnonzero(rng.random(N + 1) < 0.5).tolist() or [int(rng.integers(N + 1))]
        cands = [FockDistribution.delta(n, N) for n in ns]
        if kind == 2:
            p = rng.random(N + 1) * (rng.random(N + 1) < 0.6)
            p[int(rng.integers(N + 1))] += 0.1
            cands.append(FockDistribution(p / p.sum()))
        prior = rng.dirichlet(np.ones(len(cands))) if kind == 2 else np.ones(len(cands))
        params.update(candidates=cands, prior=Posterior(prior / prior.sum()))
    return initial, eng.ProtocolParams(**params), 4


def _random_noisy_case(rng, eng):
    """(initial state, params, batch size) of one random noisy batch at the paper's rates."""
    N = int(rng.integers(1, 7))
    n_max = min(N, 3)
    lo, hi = sorted(rng.uniform(0.03e-6, 0.5e-6, size=2))
    schedule, cycles = [(eng.Schedule.fixed(float(hi)), 15),
                        (eng.Schedule.uniform_random(float(lo), float(hi)), 15),
                        (eng.Schedule.adaptive_greedy(int(rng.integers(4, 12))), 4)][
        int(rng.integers(3))]
    params = eng.ProtocolParams(
        omega=2 * np.pi * 2.5e6, gamma=2 * np.pi * 0.3e6,
        tau_eit=float(rng.choice([0.0, 0.3e-6])), N=N, n_max=n_max, mode=eng.NOISY_FIXED_N,
        schedule=schedule, seed=int(rng.integers(1 << 30)), max_cycles=cycles,
        ejection_enabled=bool(rng.random() < 0.5), trace_points=int(rng.choice([0, 2])))
    return int(rng.integers(0, n_max + 1)), params, 2


def dump(out: str, batches: int) -> None:
    """Write {case: {document name: text}} of every case to out."""
    import test_engine_golden as engine_golden
    import test_infer_golden as infer_golden
    import test_oracle_golden as oracle_golden
    import test_simulate_golden as simulate_golden
    from rydqnd import cli
    from rydqnd import engine as eng
    from rydqnd.errors import InconsistentRecordError
    from rydqnd.records import FockDistribution, Posterior

    cases = {f"engine {name}": case for name, case in engine_golden.CASES.items()}
    for k in range(batches):
        rng = np.random.default_rng(k)
        cases[f"noiseless sweep {k}"] = _random_case(rng, eng, FockDistribution, Posterior)
        cases[f"noisy sweep {k}"] = _random_noisy_case(np.random.default_rng([k, 1]), eng)
    docs = {}
    for name, case in cases.items():
        try:
            docs[name] = {f"log {i}": log.to_json() for i, log in enumerate(eng.run_batch(*case))}
        except InconsistentRecordError as exc:  # a random candidate set can rule out every record
            if " sweep " not in name:
                raise
            docs[name] = {"error": type(exc).__name__}
    with tempfile.TemporaryDirectory(prefix="compare_logs_cli_") as tmp:
        tmp = Path(tmp)
        cands = tmp / "cands.json"
        cands.write_text(json.dumps(simulate_golden.MIXTURES))
        for name, flags in simulate_golden.CASES.items():
            outdir = tmp / f"simulate-{name}"
            argv = ["simulate", "--trajectories", "2",
                    *[flag.format(cands=cands) for flag in flags], "--outdir", str(outdir)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"simulate {name} exited {code}")
            for path in sorted(outdir.iterdir()):
                docs[f"simulate {name} {path.name}"] = _documents(path.name, path.read_text())
        (tmp / "record.json").write_text(infer_golden.RECORD.to_json())
        (tmp / "cands.json").write_text(json.dumps(infer_golden.MIXTURES))
        cwd = os.getcwd()
        os.chdir(tmp)  # posterior.json names the record file as given
        try:
            for name, flags in infer_golden.CASES.items():
                argv = ["infer", "record.json", *flags, "--out", f"posterior-{name}.json"]
                if cli.main(argv) != cli.EXIT_OK:
                    raise SystemExit(f"infer {name} failed")
                docs[f"infer {name} posterior.json"] = {
                    "file": (tmp / f"posterior-{name}.json").read_text()}
        finally:
            os.chdir(cwd)
        for name, (flags, file, code, _) in oracle_golden.CASES.items():
            path = tmp / f"oracle-{name}-{file}"
            with contextlib.redirect_stderr(io.StringIO()):  # a failing cell's FAIL lines
                if cli.main(["oracle-check", *flags, "--out", str(path)]) != code:
                    raise SystemExit(f"oracle-check {name} did not exit {code}")
            docs[f"oracle {name} {file}"] = {"file": path.read_text()}
    Path(out).write_text(json.dumps(docs))


def _documents(file: str, text: str) -> dict[str, str]:
    """A JSON-lines file as one document per line; any other file as one."""
    if file.endswith(".jsonl"):
        return {f"line {i}": line for i, line in enumerate(text.splitlines())}
    return {"file": text}


def _parsed(text: str):
    """A document as JSON; a trace CSV as {"#": comment lines, column: [values]}."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        reader = csv.reader(io.StringIO("\n".join(l for l in lines if not l.startswith("#"))))
        header, *rows = list(reader)
        columns = {"#": comments}
        for k, col in enumerate(header):
            columns[col] = [_number(row[k]) for row in rows]
        return columns


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(doc, path: str = "", at: str = ""):
    """(field, location, value) of every leaf: the field is the key path without
    list indices, the location the full path."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key,
                               f"{at}.{key}" if at else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, path, f"{at}[{i}]")
    else:
        yield path, at, doc


def _divergence(a, b) -> str:
    """Where two logs' records first differ: a flipped outcome, a changed drive
    time or another length; "" where they agree."""
    if not (isinstance(a, dict) and isinstance(b, dict) and "record" in a and "record" in b):
        return ""
    for t, (ea, eb) in enumerate(zip(a["record"], b["record"])):
        if ea["outcome"] != eb["outcome"]:
            return f"cycle {t} outcome flipped {ea['outcome']} -> {eb['outcome']}"
        if ea["tau_s"] != eb["tau_s"]:
            return f"cycle {t} drive time {ea['tau_s']!r} -> {eb['tau_s']!r}"
    if len(a["record"]) != len(b["record"]):
        return f"stops after {len(a['record'])} -> {len(b['record'])} cycles"
    return ""


def _field_deltas(a, b) -> dict[str, float]:
    """Per field, the largest |delta| of its numbers, or for other leaves the
    count that differ; a leaf present on one side only counts under
    "<field> (shape)"."""
    la = {at: (field, value) for field, at, value in _leaves(a)}
    lb = {at: (field, value) for field, at, value in _leaves(b)}
    out: dict[str, float] = {}
    for at in la.keys() | lb.keys():
        if at not in la or at not in lb:
            _merge(out, f"{(la.get(at) or lb.get(at))[0]} (shape)", 1)
            continue
        (field, va), (_, vb) = la[at], lb[at]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb))
        if numeric:
            _merge(out, field, abs(float(va) - float(vb)))
        elif va != vb:
            _merge(out, field, 1)
    return out


def compare(parent: dict, change: dict) -> tuple[list[str], list[str], dict[str, float]]:
    """Report lines per golden case, output file and sweep; the diverged logs,
    named; and each field's largest |delta| over every document that did not diverge."""
    groups: dict[str, list[str]] = {}
    for name in parent:
        groups.setdefault(name.split(" sweep ")[0] + " sweep" if " sweep " in name else name,
                          []).append(name)
    lines, diverged, total = [], [], {}
    for group, names in groups.items():
        docs = same = 0
        deltas: dict[str, float] = {}
        named = []
        for name in names:
            if parent[name].keys() != change[name].keys():
                named.append(f"{name}: documents {sorted(parent[name])} -> "
                             f"{sorted(change[name])}")
                continue
            for doc, text in parent[name].items():
                docs += 1
                if text == change[name][doc]:
                    same += 1
                    continue
                a, b = _parsed(text), _parsed(change[name][doc])
                where = _divergence(a, b)
                if where:
                    named.append(f"{name} {doc}: {where}")
                    continue
                for field, delta in _field_deltas(a, b).items():
                    _merge(deltas, field, delta)
        moved = {field: delta for field, delta in sorted(deltas.items()) if delta}
        for field, delta in moved.items():
            _merge(total, field, delta)
        line = f"{group}: {docs} documents, {same} byte-identical, {len(named)} diverged"
        if moved:
            line += "; max |delta| " + ", ".join(f"{field} {_fmt(delta)}"
                                                 for field, delta in moved.items())
        lines.append(line)
        diverged += named
    return lines, diverged, total


def oracle_cells(parent: dict, change: dict) -> tuple[dict[str, float], list[str]]:
    """Per oracle cell, in the order of the first ``oracle-check`` file, the largest
    |delta| of its max_deviation over those files; and each flipped pass or passed, named."""
    cells: dict[str, float] = {}
    flips = []
    for name in (name for name in parent if name.startswith("oracle ")):
        (rows_a, passed_a), (rows_b, passed_b) = (_oracle_rows(side[name]["file"])
                                                  for side in (parent, change))
        if passed_a != passed_b:
            flips.append(f"{name}: passed {passed_a} -> {passed_b}")
        for cell, (dev, ok) in rows_a.items():
            dev_b, ok_b = rows_b[cell]
            cells[cell] = max(cells.get(cell, 0.0), abs(dev_b - dev))
            if ok != ok_b:
                flips.append(f"{name} {cell}: pass {ok} -> {ok_b}")
    return cells, flips


def _oracle_rows(text: str) -> tuple[dict[str, tuple], object]:
    """An oracle-check file's {cell: (max_deviation, pass)} and its passed (None in a CSV)."""
    doc = _parsed(text)
    if "rows" in doc:
        rows, passed = doc["rows"], doc["passed"]
    else:  # a CSV's columns
        columns = {key: values for key, values in doc.items() if key != "#"}
        rows, passed = [dict(zip(columns, row)) for row in zip(*columns.values())], None
    return {f"N={r['N']:g} n={r['n']:g} gamma/omega={r['gamma_over_omega']:g}":
            (r["max_deviation"], r["pass"]) for r in rows}, passed


def _merge(into: dict[str, float], field: str, delta) -> None:
    """Fold a document's delta into a running one: counts add, |delta|s take the max."""
    if isinstance(delta, int):
        into[field] = into.get(field, 0) + delta
    else:
        into[field] = max(into.get(field, 0.0), delta)


def _fmt(delta) -> str:
    return f"{delta} differ" if isinstance(delta, int) else f"{delta:.3g}"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "scripts"))
    from ab_inprocess import export

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the base side")
    parser.add_argument("--change", required=True, help="git revision of the changed side")
    parser.add_argument("--random-batches", type=int, default=300,
                        help="random noiseless batches of four trajectories, and as many "
                             "noisy batches of two")
    args = parser.parse_args(argv)
    probe = _PROBE.format(tests=str(ROOT / "tests"), scripts=str(ROOT / "scripts"))
    docs = {}
    with tempfile.TemporaryDirectory(prefix="compare_logs_") as tmp:
        for side in ("parent", "change"):
            export(getattr(args, side), Path(tmp), side)
            src, out = Path(tmp) / side / "src", Path(tmp) / f"{side}.json"
            (Path(tmp) / f"rydqnd_{side}").rename(src / "rydqnd")
            subprocess.run([sys.executable, "-c", probe, str(src), str(out),
                            str(args.random_batches)], check=True)
            docs[side] = json.loads(out.read_text())
    lines, diverged, total = compare(docs["parent"], docs["change"])
    print(f"parent {args.parent}, change {args.change}")
    print("\n".join(lines))
    print(f"diverged: {len(diverged)}")
    for line in diverged:
        print(f"  {line}")
    cells, flips = oracle_cells(docs["parent"], docs["change"])
    print("oracle cells, largest |delta| of max_deviation over the oracle-check files:")
    for cell, delta in cells.items():
        print(f"  {cell}: {_fmt(delta)}")
    print("oracle pass or passed flipped: " + (", ".join(flips) or "none"))
    print("fields that moved, largest |delta| over all documents:" + ("" if total else " none"))
    for field, delta in sorted(total.items()):
        print(f"  {field}: {_fmt(delta)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
