"""The six BLAS and LAPACK routines anacap calls, from SciPy's compiled wrappers.

They come from SciPy's f2py extension modules ``scipy.linalg._fblas`` and
``scipy.linalg._flapack``, loaded by import spec from SciPy's install
directory, so neither ``scipy/__init__`` nor ``scipy/linalg/__init__`` runs,
nor the array-API layer that they load (about 0.3 s and 23 MiB of a cold
start).  The modules are entered in ``sys.modules`` under their own names, so
a later ``import scipy.linalg`` hands out these same function objects, and
modules loaded already are reused.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder


def _extension(name: str):
    fullname = "scipy.linalg." + name
    if fullname not in sys.modules:
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        spec = PathFinder.find_spec(fullname, [os.path.join(d, "linalg") for d in scipy_dirs])
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


_fblas, _flapack = _extension("_fblas"), _extension("_flapack")
zherk, zhemm = _fblas.zherk, _fblas.zhemm
zpotrf, zpotrs, zposv, zpocon = _flapack.zpotrf, _flapack.zpotrs, _flapack.zposv, _flapack.zpocon
