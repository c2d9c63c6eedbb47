"""ropscope: measure code-reuse gadget availability under code-layout randomization.

The package models the attacker side of runtime code-page disclosure: loading
or synthesizing process memory images, recursively harvesting code pages from
a single leaked pointer, mining and classifying gadgets from the legitimate
instruction stream, scoring gadget quality, and deriving how long a leaked
page set stays useful under periodic re-randomization.
"""

from ropscope.snapshot import (
    MemoryImage,
    PageRecord,
    Perms,
    SegmentTag,
    load_elf,
    load_snapshot,
    save_snapshot,
)

__all__ = [
    "MemoryImage",
    "PageRecord",
    "Perms",
    "SegmentTag",
    "load_elf",
    "load_snapshot",
    "save_snapshot",
]

__version__ = "0.1.0"
