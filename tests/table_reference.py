"""Per-cell reference for the CSV lines of the result table.

monge4 writes a result Row (grid.RESULT_HEADER: u, v, eleven floats and
a flag) with one format string per line, and makes the text of u and v
once per coordinate object.  This module keeps the formulation that
replaced: each cell in turn, a str quoted where it holds a comma, a quote
or a line break, and any other cell as its repr, so tests can compare
the two byte for byte.
"""


def text_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_lines(rows) -> str:
    """The CSV lines of rows, one cell at a time."""
    return "".join(",".join(text_cell(c) if isinstance(c, str) else repr(c)
                            for c in row) + "\n" for row in rows)


def csv_table(header, rows) -> str:
    """A whole CSV table: the header line, then the lines of rows."""
    return ",".join(header) + "\n" + csv_lines(rows)
