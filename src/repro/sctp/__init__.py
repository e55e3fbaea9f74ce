"""A minimal SCTP-flavoured message transport.

§4 of the paper notes that Juggler's "design principles hold for other
transports such as SCTP that impose packet order as well."  This package
backs that claim with code: a second, message-oriented transport (IP
protocol 132) that rides the same GRO path.  Configure Juggler with
``JugglerConfig(protocols=(6, 132))`` and SCTP associations enjoy the same
reordering resilience TCP does.

Simplifications vs RFC 4960 (documented, deliberate): chunk sequencing uses
byte offsets (so GRO's contiguity logic applies unchanged), one stream per
association, cumulative-ack + gap-report loss detection with a fixed
retransmission timeout, and a static window instead of full congestion
control — enough to exercise ordered *message* delivery over a reordering
fabric, which is what the generality claim is about.
"""
