"""Service chain mapping: traffic grouping plus column-generation placement."""

__version__ = "0.1.0"
