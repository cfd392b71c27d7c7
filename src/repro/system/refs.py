"""Reference-stream vocabulary.

Workload generators yield a flat stream of ``(op, value)`` tuples per
node.  Plain tuples with small-int opcodes keep the simulator's hot loop
cheap.

========  =======================================================
op        value
========  =======================================================
READ      virtual byte address to load
WRITE     virtual byte address to store
BARRIER   barrier id (all nodes must arrive before any proceeds)
LOCK      virtual address of the lock word (acquire)
UNLOCK    virtual address of the lock word (release)
========  =======================================================
"""

READ = 0
WRITE = 1
BARRIER = 2
LOCK = 3
UNLOCK = 4
