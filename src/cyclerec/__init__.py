"""Continual next-item recommendation with exemplar replay and distillation."""

__version__ = "0.1.0"
