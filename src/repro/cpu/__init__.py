"""CPU cost model.

The paper's headline CPU results (Figures 9, 10, 12; the §3.1 linked-list
measurement) are driven by *how many units of work* the stack performs —
packets polled, GRO nodes scanned, segments pushed up the stack, bytes
copied, ACKs generated.  The simulation reproduces those counts exactly;
this package converts them to nanoseconds of core time via a calibrated cost
table, and models each core as a saturating server so that an overloaded
application core throttles TCP through flow control, exactly the failure
mode Figure 9's "vanilla + reordering" bars show.
"""
