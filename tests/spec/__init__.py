"""Executable specifications the production code is checked against."""
