"""Software-graph metrics, bug mapping, and heavy-tail statistics."""

__version__ = "0.1.0"
