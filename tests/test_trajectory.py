"""Golden trajectories: the exact solutions each pipeline reaches on a fixed testbed.

Every family at 12x30 and 30x12 (generator seed 11) is solved by each
expression with a fixed run seed and iteration budget.  Each expression
pins its objective per instance and the first 16 hex digits of one
SHA-256 over the int8 bytes of x followed by y for every instance in
order, so a change to any search trajectory or tie-break rule fails
here, even when the objectives happen to agree.
"""

import hashlib

import numpy as np
import pytest

import bqp
from bqp import Budget

EXPECTED = {
    "G": ([4301, 4447, 8225, 3971, 2863, 3382, 13823, 14185, 39, 31], "2bcade347be5e0e0"),
    "A(G)": ([4477, 4447, 8225, 3971, 2863, 3382, 14293, 14185, 39, 31], "d0471caabb296617"),
    "F(G)": ([4477, 4447, 8225, 3971, 2863, 3382, 14293, 14185, 39, 31], "d0471caabb296617"),
    "Vex1": ([4477, 4447, 8225, 3971, 2863, 3382, 14293, 14185, 39, 31], "d0471caabb296617"),
    "Vex2": ([4477, 4447, 8225, 3971, 2957, 3426, 14293, 14185, 40, 34], "82fa9abc91916399"),
    "Vex3": ([4477, 4447, 8225, 5262, 2957, 3426, 14293, 14185, 40, 34], "593a6c01e4fb70e2"),
    "V3": ([4477, 4447, 8225, 3971, 2957, 3382, 14293, 14185, 40, 31], "9a66919b11078a79"),
    "P4": ([4477, 4447, 8225, 3971, 2957, 3382, 14293, 14185, 40, 32], "35fc0b81dc4c6c05"),
    "M(Vex1)": ([4477, 4518, 8225, 3124, 2957, 3426, 14293, 14185, 40, 34], "f411ae5418327275"),
    "Rm5": ([4477, 4518, 8225, 5262, 2957, 3426, 14293, 14185, 40, 34], "d57e7cd5ea81fef2"),
    "R5": ([4477, 4518, 8225, 2549, 2957, 3426, 14293, 14185, 40, 30], "1d6582ad0c4f6a3e"),
    "Rls3": ([4301, 4447, 8225, 3971, 2863, 3382, 14239, 14185, 39, 31], "10768b3a11bbd6e3"),
}


@pytest.fixture(scope="module")
def testbed():
    return [
        bqp.generate_instance(family, m, n, 11)
        for family in bqp.FAMILIES
        for m, n in ((12, 30), (30, 12))
    ]


@pytest.mark.parametrize("text", list(EXPECTED))
def test_trajectory(testbed, text):
    objectives = []
    digest = hashlib.sha256()
    for inst in testbed:
        sol = bqp.run_expr(
            inst, bqp.parse_expr(text), budget=Budget.iters(20), rng=np.random.default_rng(5)
        )
        objectives.append(sol.objective)
        digest.update(sol.x.tobytes() + sol.y.tobytes())
    assert (objectives, digest.hexdigest()[:16]) == EXPECTED[text]
