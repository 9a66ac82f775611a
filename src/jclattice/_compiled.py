"""scipy's compiled kernels, without the packages that wrap them.

`import scipy.sparse` or `scipy.linalg` sets up scipy's array-API layer,
which imports numpy.f2py, numpy.testing and charset_normalizer: about
0.2 s and 20 MB of each run. So the extension modules that hold the
package's kernels are loaded from scipy's directory under their own names
in `sys.modules`, where a later scipy import finds and reuses them.
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from os.path import join

import scipy  # on some platforms this loads the bundled BLAS and LAPACK


def _load(name: str):
    if name not in sys.modules:
        spec = FileFinder(join(scipy.__path__[0], name.split(".")[1]),
                          (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


sparsetools = _load("scipy.sparse._sparsetools")
blas = _load("scipy.linalg._fblas")
lapack = _load("scipy.linalg._flapack")
