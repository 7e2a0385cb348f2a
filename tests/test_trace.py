from minsplit import ResidualTrace
from minsplit.trace import format_float, write_csv


def test_format_float_round_trips():
    for v in (0.1, 1e-8, 4.0, -3.141592653589793, 1.5**40):
        assert float(format_float(v)) == v


def test_trace_records_and_serialises(tmp_path):
    trace = ResidualTrace(["residual", "spread"])
    trace.append({"residual": 0.5, "spread": 0.25})
    trace.append({"residual": 0.125, "spread": 0.0625})
    assert len(trace) == 2
    assert trace.last("residual") == 0.125
    path = tmp_path / "t.csv"
    write_csv(path, ["k"] + trace.column_names, trace.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "k,residual,spread"
    assert lines[1] == "1,0.5,0.25"


def test_write_csv(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(path, ["a", "b"], [["1", "2"], ["3", "4"]])
    assert path.read_text() == "a,b\n1,2\n3,4\n"
