"""Merkle trees over dataset partitions.

Snapshot Builders commit to the partitions they collect with a Merkle
root; Computers can later prove that the partition they processed is the
one that was committed (integrity under the sealed-glass threat model,
where confidentiality may fall but integrity must not).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["MerkleTree", "InclusionProof", "verify_inclusion"]

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class InclusionProof:
    """Authentication path for one leaf.

    ``path`` lists ``(sibling_digest, sibling_is_left)`` pairs from the
    leaf up to the root.
    """

    leaf_index: int
    leaf_digest: bytes
    path: tuple[tuple[bytes, bool], ...]


class MerkleTree:
    """A binary Merkle tree with domain-separated leaf/node hashing.

    Odd nodes are promoted unchanged to the next level (Bitcoin-style
    duplication would allow forgeries; promotion does not).
    """

    def __init__(self, leaves: Iterable[bytes]):
        sha256 = hashlib.sha256
        self._leaves = [sha256(_LEAF_PREFIX + leaf).digest() for leaf in leaves]
        if not self._leaves:
            raise ValueError("a Merkle tree needs at least one leaf")
        self._levels = self._build(self._leaves)

    @staticmethod
    def _build(leaves: Sequence[bytes]) -> list[list[bytes]]:
        # _hash_node inlined: one bound call per node on 40k-leaf trees
        sha256 = hashlib.sha256
        level = list(leaves)
        levels = [level]
        while len(level) > 1:
            nxt = [
                sha256(_NODE_PREFIX + left + right).digest()
                for left, right in zip(level[0::2], level[1::2])
            ]
            if len(level) % 2 == 1:
                nxt.append(level[-1])
            levels.append(nxt)
            level = nxt
        return levels

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        """The Merkle root digest."""
        return self._levels[-1][0]

    def root_hex(self) -> str:
        """Hex form of the root, convenient for traces and payloads."""
        return self.root.hex()

    def prove(self, index: int) -> InclusionProof:
        """Build the inclusion proof for the ``index``-th leaf."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        path: list[tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                sibling_is_left = False
            else:
                sibling_index = position - 1
                sibling_is_left = True
            if sibling_index < len(level):
                path.append((level[sibling_index], sibling_is_left))
            position //= 2
        return InclusionProof(
            leaf_index=index, leaf_digest=self._leaves[index], path=tuple(path)
        )


def verify_inclusion(root: bytes, leaf_data: bytes, proof: InclusionProof) -> bool:
    """Check that ``leaf_data`` is committed under ``root`` via ``proof``."""
    digest = _hash_leaf(leaf_data)
    if digest != proof.leaf_digest:
        return False
    for sibling, sibling_is_left in proof.path:
        if sibling_is_left:
            digest = _hash_node(sibling, digest)
        else:
            digest = _hash_node(digest, sibling)
    return digest == root
