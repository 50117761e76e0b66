"""The report gate: a planted defect that changes a report's printed outputs fails that report.

Each mutant wraps one library function and changes one entry of what it returns; a changed
family is rebuilt by its constructor, so its checks run.  Every mutant runs through cli.main on
the golden problem (exact mode) for interpolate, recurrence, check-biortho and expand, and on
`exp-example --q 2 --n-max 2`.  Where the printed outputs differ from the clean call's, the
call must exit nonzero or raise.  CI writes gate_table() to each run's summary:

    PYTHONPATH=src:tests python -c "import test_report_gate as g; print(g.gate_table())"
"""

import contextlib
import importlib
import io
import json
from unittest import mock

import pytest

from biorthopoly.biorthogonality import BiorthogonalSystem
from biorthopoly.cli import main
from biorthopoly.interpolation import DividedDifferenceTable, MonicInterpolantFamily
from test_cli import GOLDEN_CASES, GOLDEN_PROBLEM

CALLS = {name: GOLDEN_CASES[name][0]
         for name in ("interpolate", "recurrence", "check-biortho", "expand", "exp-example")}
CHANGED_AND_PASSED = "CHANGED, exit 0"


def _entry(values, index, change):
    """values with entry index replaced by change(entry), as a tuple."""
    return (*values[:index], change(values[index]), *values[index + 1:])


def _family(family, values=None, rows=None):
    return MonicInterpolantFamily(family.grid, values or family.values, family.alphas,
                                  rows=rows or family.rows)


def _system(system, **fields):
    return BiorthogonalSystem(system.family, **{
        "t_rows": system.t_rows, "nus": system.nus, "diagonal": system.diagonal,
        "columns": system.columns, "node_rows": system.node_rows, **fields})


def _doubled(x):
    return 2 * x


def _add_1(x):
    return x + 1


def _value_plus_1(row):
    """(u, m) with u_0 + m: the value u_0 / m raised by 1."""
    u, m = row
    return (u[0] + m, *u[1:]), m


def _entry_plus_1(row):
    """(u, m) with the integer u_0 + 1."""
    u, m = row
    return (u[0] + 1, *u[1:]), m


MUTANTS = {  # planted defect -> (module, function, change to what the function returns)
    "alpha_2 doubled in the table": (
        "interpolation", "divided_differences_recursive",
        lambda table: DividedDifferenceTable(table.samples, _entry(table.diffs, 2, _doubled))),
    "P-hat_1 constant term +1 (row)": (
        "interpolation", "monic_family",
        lambda f: _family(f, rows=_entry(f.rows, 1, _value_plus_1))),
    "family value A_2 +1": (
        "interpolation", "monic_family", lambda f: _family(f, _entry(f.values, 2, _add_1))),
    "P-hat_1(a_0) +1 in node_rows": (
        "biorthogonality", "build_system",
        lambda s: _system(s, node_rows=_entry(s.node_rows, 1, _value_plus_1))),
    "V_1 column entry 0 +1": (
        "biorthogonality", "build_system",
        lambda s: _system(s, columns=_entry(s.columns, 1, _entry_plus_1))),
    "stored d_1 doubled": (
        "biorthogonality", "build_system",
        lambda s: _system(s, diagonal=_entry(s.diagonal, 1, _doubled))),
    "stored nu_1 doubled": (
        "biorthogonality", "build_system", lambda s: _system(s, nus=_entry(s.nus, 1, _doubled))),
    "T_1 row entry 0 +1": (
        "biorthogonality", "build_system",
        lambda s: _system(s, t_rows=_entry(s.t_rows, 1, _entry_plus_1))),
    "top P-hat coefficient dropped (row 2)": (
        "interpolation", "monic_family",
        lambda f: _family(f, rows=_entry(f.rows, 2, lambda row: (row[0][:-1], row[1])))),
}


def outcome(argv, mutant=None):
    """(exit code, printed outputs) of one cli.main call on the golden problem, read from stdin,
    with the mutant in place; (the exception's name, None) when the call raises."""
    patch = contextlib.nullcontext()
    if mutant is not None:
        module, name, change = MUTANTS[mutant]
        target = importlib.import_module(f"biorthopoly.{module}")
        original = getattr(target, name)
        patch = mock.patch.object(target, name, lambda *args: change(original(*args)))
    out = io.StringIO()
    with patch, mock.patch("sys.stdin", io.StringIO(json.dumps(GOLDEN_PROBLEM))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["-" if a == "PROBLEM" else a for a in argv])
        except Exception as exc:
            return type(exc).__name__, None
    return code, json.loads(out.getvalue())["outputs"] if out.getvalue() else None


def cell(call, mutant):
    """What caught the mutant on the call: "unchanged" (exit 0, the clean outputs), "exit N", or
    the name of the exception raised; CHANGED_AND_PASSED when nothing did."""
    code, outputs = outcome(CALLS[call], mutant)
    if code == 0:
        return "unchanged" if outputs == outcome(CALLS[call])[1] else CHANGED_AND_PASSED
    return code if isinstance(code, str) else f"exit {code}"


def gate_table():
    """The gate as a markdown table: a row per mutant, a column per subcommand."""
    lines = ["| planted defect | " + " | ".join(CALLS) + " |", "|---" * (len(CALLS) + 1) + "|"]
    lines += [f"| {mutant} | " + " | ".join(cell(call, mutant) for call in CALLS) + " |"
              for mutant in MUTANTS]
    return "\n".join(lines)


def test_clean_calls_pass():
    assert {call: outcome(argv)[0] for call, argv in CALLS.items()} == dict.fromkeys(CALLS, 0)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_planted_defect_that_changes_outputs_fails_the_report(mutant):
    """No call prints changed outputs under "passed": true, and some call catches the mutant.
    The one exception a call may raise is the family constructor's ValueError: any other would
    as likely come from a mutant that is itself broken."""
    cells = {call: cell(call, mutant) for call in CALLS}
    assert CHANGED_AND_PASSED not in cells.values(), cells
    assert set(cells.values()) != {"unchanged"}, cells
    assert all(c in ("unchanged", "ValueError") or c.startswith("exit ") for c in cells.values())


def test_a_shortened_row_is_refused_where_the_family_is_built():
    """The family's constructor refuses the shortened row: a ValueError, not the bare
    IndexError that exact build_system raised, in every call that builds a family."""
    cells = {call: cell(call, "top P-hat coefficient dropped (row 2)") for call in CALLS}
    assert cells == {"interpolate": "unchanged", **dict.fromkeys(list(CALLS)[1:], "ValueError")}
