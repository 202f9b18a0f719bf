"""The compiled-kernel flag that result stamps carry.

Benchmark records (``repro bench perf``, ``simbench``) stamp whether a
compiled kernel ran, and their comparers refuse records whose stamps
differ. The simulator has one pure-Python dispatch loop, so the flag is
always ``False``.
"""


def accel_active() -> bool:
    """Whether simulator runs dispatch through a compiled kernel: never."""
    return False
