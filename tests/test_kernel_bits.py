"""Exact bits of the kernel series at fixed inputs.

The values are ``float.hex`` strings of the sums.  The CLI writes them with
17 significant digits, so a change in the last bit of a term's order of
operations or of the summation changes ``green-eval`` output bytes, which a
tolerance test would let through.  A deliberate change of the arithmetic
re-records them and says why.
"""

import numpy as np

from hingedplate import (MaterialParams, Mesh, ReinforcementMask, SeriesState,
                         antisym_solution, gap_threshold_M, green_value,
                         placement_bound_report, uniform_load_profile)

PARAMS = MaterialParams(sigma=0.2, half_width=0.1)
STATE = SeriesState(PARAMS, m_max=200)
L = PARAMS.half_width
XS = np.linspace(0.3, 2.9, 4)
YS = np.linspace(-L, L, 3)[:, None]


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_green_value_bits():
    assert _hex(green_value((1.1, 0.03), (2.0, -0.07), STATE)) == [
        "0x1.464d2acf45627p+1"]
    assert _hex(green_value((1.1, 0.03), (XS, YS), STATE)) == [
        "0x1.e564c85b418c9p-1", "0x1.6cedfc5abc7fdp+1", "0x1.3fffe06487d26p+1",
        "0x1.4303624533f93p-1", "0x1.e5cf424da4042p-1", "0x1.6d51f6586b526p+1",
        "0x1.4034dba7b553dp+1", "0x1.4331950496305p-1", "0x1.e743e928d4f4ep-1",
        "0x1.6e933de9d2634p+1", "0x1.40ee4ae406d58p+1", "0x1.43d3469dfb7a4p-1"]


def test_uniform_load_profile_bits():
    assert _hex(uniform_load_profile((1.3, 0.02), STATE)) == [
        "0x1.460f4c1989727p+0"]
    assert _hex(uniform_load_profile((XS, YS), STATE)) == [
        "0x1.966fa32bb1051p-2", "0x1.37cafc722b7e4p+0", "0x1.2faced3ff7d01p+0",
        "0x1.494e155a87b2bp-2", "0x1.95fd1ff1c8c81p-2", "0x1.377cd263b482ep+0",
        "0x1.2f607d83d6390p+0", "0x1.48f0411263af1p-2", "0x1.966fa32bb104ep-2",
        "0x1.37cafc722b7e2p+0", "0x1.2faced3ff7cfep+0", "0x1.494e155a87b29p-2"]


def test_antisym_solution_bits():
    assert _hex(antisym_solution((1.3, 0.07), (2.0, L), STATE)) == [
        "0x1.529cbb6ca0511p-7"]
    assert _hex(antisym_solution((1.3, 0.07), (XS, YS), STATE)) == [
        "-0x1.f8392bd449d61p-9", "-0x1.e952207510071p-7", "-0x1.48b9a06cbd450p-7",
        "-0x1.1ea391d413b57p-9", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.f8392bd449d61p-9", "0x1.e952207510071p-7", "0x1.48b9a06cbd450p-7",
        "0x1.1ea391d413b57p-9"]


def test_placement_bound_bits():
    mesh = Mesh(16, 4, L)
    sel = np.zeros((4, 16), dtype=bool)
    sel[:, :4] = True
    rep = placement_bound_report(ReinforcementMask(sel, alpha=0.5, beta=2.5),
                                 STATE, mesh)
    assert rep["weighted_green_bound"].hex() == "0x1.0a76552ecf28fp+0"
    assert rep["coarse_bound"].hex() == "0x1.bb07d434b9265p+0"


def test_gap_threshold_bits():
    value, tail = gap_threshold_M(PARAMS)
    assert (float(value).hex(), float(tail).hex()) == (
        "0x1.873fc47a7e72dp-6", "0x1.b57b55b2347b0p-39")
