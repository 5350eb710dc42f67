"""Threshold values the library does not compute.

r0 for k = 3 comes from earlier work on triangle colorings; the closed forms
in rtlab.thresholds need k >= 4 and refuse these cells.
"""

PRIOR_WORK_R0_K3 = {(3, 2): 2, (3, 3): 4}
