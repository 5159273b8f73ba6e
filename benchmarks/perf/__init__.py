"""The repo's performance yardstick: six workloads, measured outside-in.

See ``README.md`` in this directory.  ``adapter`` is the only module
here that imports ``repro``; everything else is plain bookkeeping.
"""
