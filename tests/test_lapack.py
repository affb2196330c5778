"""anacap's seven BLAS and LAPACK routines come from SciPy's compiled wrappers
alone: a fresh interpreter that makes brackets never imports the ``scipy``
package, and the routines are SciPy's own function objects, whichever is
imported first.  Each check runs in a fresh interpreter, because the tests
import ``scipy.linalg`` themselves."""

import json

import pytest

from conftest import run_fresh


BRACKETS = """
import json, sys
import anacap as ac
from anacap.sublab import max_sweep_radius, random_configuration

ac.gamma_bounds(ac.scene([ac.Polygon((1 + 0j, 1j, -1 + 0j, -1j))]), ac.Powers(6, with_corners=True))
r = ac.gamma_bounds(ac.scene([ac.Ellipse(c, 2.0, 1.0) for c in (-3 + 0j, 3 + 0j, 10j, -10j)]),
                    ac.Rings(4))
with open("/proc/self/status") as fh:
    peak_mib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
centers = random_configuration(18, 1)
ac.ratio_bounds(ac.DiskConfiguration(centers, 0.4 * max_sweep_radius(centers), 9), ac.Rings(4))
print(json.dumps([r.lower, r.upper, peak_mib, sorted(sys.modules)]))
"""


def test_brackets_load_the_compiled_wrappers_and_no_scipy_package():
    lower, upper, peak_mib, modules = json.loads(run_fresh("-c", BRACKETS))
    # the four ellipses under Rings(4) hold the criterion-6 band, and the
    # process peaks below 45 MiB right after them (about 37 MiB; 60 MiB with
    # scipy.linalg and its array-API layer imported)
    assert lower <= 5.371995432221965 and upper >= 5.371995878776166
    assert peak_mib < 45
    # scipy.linalg's package import clones NumPy's namespace through SciPy's
    # array-API layer (numpy.f2py among it), and np.unique imports numpy.ma
    loaded = set(modules)
    assert not loaded & {"scipy", "scipy.linalg", "scipy._lib._array_api", "numpy.ma",
                         "numpy.f2py"}
    assert {"scipy.linalg._fblas", "scipy.linalg._flapack"} <= loaded


IDENTITY = """
import {}, {}
import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack
from anacap import discrete, integrals, solver

print(integrals.zherk is blas.zherk, solver.zhemm is blas.zhemm, solver.zpotrf is lapack.zpotrf,
      solver.zpotrs is lapack.zpotrs, solver.zpstrf is lapack.zpstrf,
      discrete.zposv is lapack.zposv, discrete.zpocon is lapack.zpocon)
"""


@pytest.mark.parametrize("first,second", [("anacap", "scipy.linalg"), ("scipy.linalg", "anacap")],
                         ids=["anacap-first", "scipy-first"])
def test_routines_are_scipys_own_whichever_is_imported_first(first, second):
    assert run_fresh("-c", IDENTITY.format(first, second)).split() == ["True"] * 7
