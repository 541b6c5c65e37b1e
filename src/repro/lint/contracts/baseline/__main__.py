"""``python -m repro.lint.contracts.baseline`` regenerates or verifies the baseline.

The command runs this submodule rather than the package itself: the
package is imported by ``repro.lint.contracts`` before ``-m`` could
execute it a second time as ``__main__``.
"""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
