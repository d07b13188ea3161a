import io

import numpy as np

from ionparity.sweep import SweepResult, write_csv


def test_csv_cells_of_numpy_and_python_scalars():
    rows = [
        (np.bool_(True), np.float64(0.1), np.int64(-7), "a,b", True),
        (np.bool_(False), np.float64(-2.5e-300), np.int64(12), "plain", False),
        (True, 1.0 / 3.0, 0, 'say "hi"', np.bool_(True)),
    ]
    result = SweepResult(
        ("flag", "value", "count", "label", "passed"),
        rows,
        {"seed": 3, "mode": "gamma", "tau": 1e-8, "exact": False},
    )
    stream = io.StringIO()
    write_csv(result, stream)
    assert stream.getvalue() == (
        "# exact=false\n"
        "# mode=gamma\n"
        "# seed=3\n"
        "# tau=1.0000000000000000e-08\n"
        "flag,value,count,label,passed\n"
        'true,1.0000000000000001e-01,-7,"a,b",true\n'
        "false,-2.5000000000000000e-300,12,plain,false\n"
        'true,3.3333333333333331e-01,0,"say ""hi""",true\n'
    )
