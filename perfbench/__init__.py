"""Repository benchmark harness (see ``perfbench/run.py``).

It only calls and wraps the public API of ``repro`` from outside; it never
edits a source module.
"""
