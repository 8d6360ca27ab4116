"""Coding-theory workbench for oblivious transfer over noisy channels."""

__version__ = "0.3.0"
