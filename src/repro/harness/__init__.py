"""Experiment harness: metric collection and plain-text result rendering."""
