"""Functional and cycle-level simulator of an LSTM inference accelerator
built around four per-gate computation units, with a weight-locality
(MWL) schedule option and event-based energy accounting."""

__version__ = "0.1.0"
