"""Benchmark library for the encmpc workbench (see ../README.md)."""
