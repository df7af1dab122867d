"""``test_freelist.py`` and ``test_segment_identity.py`` on the Python kernels.

Those modules run on the kernel set this host built (``chains.ACTIVE``:
the C kernels wherever gcc and cffi are there).  Every one of their cases
is collected again here with the message path forced onto the Python
reference (the ``python_chains`` fixture), so both paths are held to the
same error messages, lock releases and segment trail.
"""

import pytest

import test_freelist
import test_segment_identity

pytestmark = pytest.mark.usefixtures("python_chains")

globals().update({name: case
                  for module in (test_freelist, test_segment_identity)
                  for name, case in vars(module).items()
                  if name.startswith("test_")})
