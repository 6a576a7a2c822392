import os
import sys

# allow running the suite from a fresh checkout without installing; tools/
# holds the parity harness that the tests import
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
