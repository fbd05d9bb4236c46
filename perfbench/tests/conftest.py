import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
for path in (os.path.join(REPO, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
