"""Edge cases of the two CSV readers: what they accept and what they refuse,
and which loads the symbol reader answers from its last profile.

Both loaders share one file shape (a fixed header and >= 8 rows of three
numbers), so every case runs against each of them.  Warnings are errors here,
so a parser warning on an odd file cannot leak to the caller.
"""

import os

import numpy as np
import pytest

import fracprop as fp
import fracprop.grids as grids
import fracprop.symbols as symbols
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
    assert (a.grid.n, a.grid.x_max) == (b.grid.n, b.grid.x_max)
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


def _not_utf8(tmp_path, text):
    # the stray byte sits past the decoder's first chunk, so it is met while
    # the body is read, not with the header
    path = tmp_path / "latin1.csv"
    path.write_bytes(text.encode("utf-8") + b"   \n" * 4096 + b"caf\xe9\n")
    return path


def _directory(tmp_path, text):
    path = tmp_path / "a_directory.csv"
    path.mkdir()
    return path


UNREADABLE = {"not_utf8": _not_utf8, "directory": _directory}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_csv_loader_refuses_unreadable_files(tmp_path, kind, case):
    load, text_of, _ = LOADERS[kind]
    with pytest.raises(InvalidInputError):
        load(UNREADABLE[case](tmp_path, text_of(tmp_path)))


@pytest.fixture
def table_reads(monkeypatch):
    """Counts the table parses of each loader, starting from an empty
    profile slot."""
    reads = {"symbol": 0, "signal": 0}
    real = grids._read_csv_table

    def counted(raw, header, kind):
        reads[kind] += 1
        return real(raw, header, kind)

    monkeypatch.setattr(symbols, "_read_csv_table", counted)
    monkeypatch.setattr(grids, "_read_csv_table", counted)
    monkeypatch.setattr(symbols, "_last_profile", None)
    return reads


def test_symbol_loader_returns_the_last_profile_for_the_same_bytes(tmp_path, table_reads):
    path = tmp_path / "sym.csv"
    path.write_text(_symbol_text(tmp_path))
    first = fp.load_symbol_csv(path)
    copy = tmp_path / "copy.csv"
    copy.write_bytes(path.read_bytes())
    assert fp.load_symbol_csv(path) is first
    assert fp.load_symbol_csv(copy) is first
    assert table_reads["symbol"] == 1
    for arr in (first.r, first.values, first.s, first.phase):
        assert not arr.flags.writeable


def test_symbol_loader_keys_on_bytes_not_on_the_stat(tmp_path, table_reads):
    path = tmp_path / "sym.csv"
    header, rows = _split(_symbol_text(tmp_path))
    path.write_text(_join(header, rows))
    stat = os.stat(path)
    first = fp.load_symbol_csv(path)
    # re and im swapped: another unimodular profile, byte for byte as long
    swapped = [",".join([r, im, re]) for r, re, im in (row.split(",") for row in rows)]
    path.write_text(_join(header, swapped))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    second = fp.load_symbol_csv(path)
    assert second is not first
    np.testing.assert_array_equal(second.values.real, first.values.imag)
    np.testing.assert_array_equal(second.values.imag, first.values.real)
    assert table_reads["symbol"] == 2


def test_symbol_loader_keeps_nothing_from_a_refused_file(tmp_path, table_reads):
    text = _symbol_text(tmp_path)
    good = tmp_path / "good.csv"
    good.write_text(text)
    first = fp.load_symbol_csv(good)
    bad = tmp_path / "bad.csv"
    bad.write_text(REFUSED["non_numeric_cell"](*_split(text)))
    for _ in range(2):
        with pytest.raises(InvalidInputError):
            fp.load_symbol_csv(bad)
    assert symbols._last_profile is None
    again = fp.load_symbol_csv(good)
    assert again is not first
    _same_symbol(again, first)
    assert table_reads["symbol"] == 4


def test_symbol_loader_frees_the_old_profile_before_parsing(tmp_path, monkeypatch):
    held = []
    real = symbols._read_csv_table

    def spy(raw, header, kind):
        held.append(symbols._last_profile)
        return real(raw, header, kind)

    monkeypatch.setattr(symbols, "_read_csv_table", spy)
    monkeypatch.setattr(symbols, "_last_profile", None)
    text = _symbol_text(tmp_path)
    header, rows = _split(text)
    (tmp_path / "a.csv").write_text(text)
    (tmp_path / "b.csv").write_text(_join(header, rows[1:]))
    fp.load_symbol_csv(tmp_path / "a.csv")
    fp.load_symbol_csv(tmp_path / "b.csv")
    assert held == [None, None]


def test_signal_loader_parses_every_call(tmp_path, table_reads):
    path = tmp_path / "signal.csv"
    path.write_text(_signal_text(tmp_path))
    first = fp.load_signal_csv(path)
    second = fp.load_signal_csv(path)
    assert second is not first
    _same_signal(second, first)
    assert table_reads == {"symbol": 0, "signal": 2}


def test_writers_pin_the_file_text(tmp_path):
    # one header line, then one row per sample at 17 significant digits with
    # "\n" line ends: the exact bytes of each file kind
    grid = fp.SpatialGrid(8, 2.0)
    values = [1.0, 0.5j, -0.25, 0.1 + 0.2j, 2.0, 3.0j, 1e-20, 0.0]
    fp.save_signal_csv(tmp_path / "signal.csv", fp.SampledSignal(grid, values))
    assert (tmp_path / "signal.csv").read_bytes() == (
        b"x,re,im\n"
        b"-2,1,0\n"
        b"-1.5,0,0.5\n"
        b"-1,-0.25,0\n"
        b"-0.5,0.10000000000000001,0.20000000000000001\n"
        b"0,2,0\n"
        b"0.5,0,3\n"
        b"1,9.9999999999999995e-21,0\n"
        b"1.5,0,0\n"
    )
    r = 2.0 ** np.arange(-3, 5)
    tab = fp.Tabulated(r, [1.0, 1j, -1.0, 0.6 + 0.8j, 0.8 - 0.6j, 1.0, 1j, -1.0])
    fp.save_symbol_csv(tmp_path / "symbol.csv", tab)
    assert (tmp_path / "symbol.csv").read_bytes() == (
        b"r,re,im\n"
        b"0.125,1,0\n"
        b"0.25,0,1\n"
        b"0.5,-1,0\n"
        b"1,0.59999999999999998,0.80000000000000004\n"
        b"2,0.80000000000000004,-0.59999999999999998\n"
        b"4,1,0\n"
        b"8,0,1\n"
        b"16,-1,0\n"
    )
