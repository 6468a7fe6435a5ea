"""Empty, and kept importable because ``perfbench/spans.py`` imports it by
name; polymer weights are computed in ``expansion``."""
