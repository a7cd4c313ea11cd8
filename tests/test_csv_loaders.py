"""Edge cases of the two CSV readers: what they accept and what they refuse.

Both loaders share one file shape (a fixed header and >= 8 rows of three
numbers), so every case runs against each of them.  Warnings are errors here,
so a parser warning on an odd file cannot leak to the caller.
"""

import numpy as np
import pytest

import fracprop as fp
from fracprop.errors import InvalidInputError

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def _symbol_text(tmp_path):
    tab = fp.tabulate(fp.ClosedForm(0.5, 1.5), 0.1, 10.0, 16)
    path = tmp_path / "plain_symbol.csv"
    fp.save_symbol_csv(path, tab)
    return path.read_text()


def _signal_text(tmp_path):
    f = fp.gaussian_packet(fp.SpatialGrid(16, 4.0), spectral_width=0.8, carrier=1.5)
    path = tmp_path / "plain_signal.csv"
    fp.save_signal_csv(path, f)
    return path.read_text()


def _same_symbol(a, b):
    np.testing.assert_array_equal(a.r, b.r)
    np.testing.assert_array_equal(a.values, b.values)


def _same_signal(a, b):
    assert a.grid == b.grid
    np.testing.assert_array_equal(a.values, b.values)


LOADERS = {
    "symbol": (fp.load_symbol_csv, _symbol_text, _same_symbol),
    "signal": (fp.load_signal_csv, _signal_text, _same_signal),
}


def _split(text):
    header, *rows = text.splitlines()
    return header, rows


def _join(header, rows, newline="\n"):
    return newline.join([header, *rows]) + newline


ACCEPTED = {
    "blank_lines": lambda h, rows: _join(h, [rows[0], "", *rows[1:8], "", "", *rows[8:], ""]),
    "whitespace_lines": lambda h, rows: _join(h, [rows[0], "   ", *rows[1:], " \t "]),
    "spaces_around_fields": lambda h, rows: _join(
        h, [" " + " , ".join(row.split(",")) + "  " for row in rows]),
    "crlf": lambda h, rows: _join(h, rows, newline="\r\n"),
}

REFUSED = {
    "ragged_row": lambda h, rows: _join(h, [*rows[:3], rows[3].rsplit(",", 1)[0], *rows[4:]]),
    "comment_line": lambda h, rows: _join(h, [*rows[:2], "# a comment", *rows[2:]]),
    "non_numeric_cell": lambda h, rows: _join(h, [*rows[:5], rows[5] + "x", *rows[6:]]),
    "four_columns": lambda h, rows: _join(h, [row + ",0" for row in rows]),
    "seven_rows": lambda h, rows: _join(h, rows[:7]),
    "empty_body": lambda h, rows: h + "\n",
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_csv_loader_accepts(tmp_path, kind, case):
    load, text_of, same = LOADERS[kind]
    text = text_of(tmp_path)
    plain = tmp_path / "plain.csv"
    plain.write_text(text)
    edited = tmp_path / "edited.csv"
    edited.write_bytes(ACCEPTED[case](*_split(text)).encode("utf-8"))
    same(load(edited), load(plain))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_csv_loader_refuses(tmp_path, kind, case):
    load, text_of, _ = LOADERS[kind]
    edited = tmp_path / "edited.csv"
    edited.write_text(REFUSED[case](*_split(text_of(tmp_path))))
    with pytest.raises(InvalidInputError):
        load(edited)
