import numpy as np

from mfchaos.table import write_table


def test_numpy_scalars_are_written_as_python_numbers(tmp_path):
    # a cell computed by numpy reads back as the number, not as `np.float64(...)`
    path = tmp_path / "t.csv"
    block = ([np.float64(-0.0), np.float64(0.1)], [np.int64(3), 4], ["a", "b"],
             np.array([0.5, np.nan]))
    write_table(path, "x,n,s,y", [block])
    assert path.read_text() == "x,n,s,y\n-0.0,3,a,0.5\n0.1,4,b,nan\n"
