"""The differential harness's own stream generator."""

from .differential import reordered_stream


def test_every_window_of_every_flow_is_reordered():
    """Each ``window`` of a flow's packets arrives out of the order sent: the
    last full window too, and a flow shorter than one window."""
    for window in range(2, 13):
        for pkts in range(2, 25):
            stream = reordered_stream(3, pkts, window=window, seed=pkts)
            for flow in sorted({str(p.flow) for p in stream}):
                seqs = [p.seq for p in stream if str(p.flow) == flow]
                for start in range(0, pkts, window):
                    chunk = seqs[start:start + window]
                    assert len(chunk) < 2 or chunk != sorted(chunk), \
                        (window, pkts, flow, start)
