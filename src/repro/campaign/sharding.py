"""Deterministic sharding of a campaign's job list.

A campaign's grid (an explicit :class:`~repro.api.BatchJob` list or an
expanded :func:`repro.api.sweep` grid) is chunked *in grid order* into
shards of at most ``shard_size`` jobs.  Each shard's identity is derived
purely from its members' config hashes (:func:`repro.api.config_hash`), so
the same grid always produces the same shards with the same IDs -- across
processes, machines and interruptions.  That stability is what makes shard
checkpoints resumable: a restarted campaign recomputes shard IDs from the
manifest and finds its completed shards in the store.

The *held-out* subset used for blind validation (see
:class:`repro.campaign.Campaign`) is also content-derived: the ``holdout``
shards with the lexicographically smallest shard IDs (:func:`holdout_ids`,
the one rule the ``bound_comparison`` experiment applies to its job specs
too).  Because the IDs are hashes, the selection is deterministic yet
effectively arbitrary with respect to the grid layout -- reordering the grid
axes cannot steer a chosen design point into (or out of) the held-out set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from ..api.engine import BatchJob, config_hash

__all__ = ["Shard", "holdout_ids", "make_shards", "shard_id_for"]

#: Salt separating shard digests from job config hashes in a shared store.
_SHARD_SALT = "repro-campaign-shard:"

#: Shard roles.
ROLE_HOLDOUT = "holdout"
ROLE_BLIND = "blind"


def shard_id_for(job_hashes: Sequence[str]) -> str:
    """The content-derived identity of one shard (16 hex digits).

    Distinct from any member job's config hash by construction (the salt),
    so shard checkpoints and job results can share one
    :class:`~repro.service.store.ResultStore` without key collisions.
    """
    blob = _SHARD_SALT + ",".join(job_hashes)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def holdout_ids(content_ids: Iterable[str], count: int) -> Set[str]:
    """The blind-validation holdout: the ``count`` smallest content IDs."""
    return set(sorted(content_ids)[:count])


@dataclass(frozen=True)
class Shard:
    """One work unit of a campaign: an ordered slice of the job grid."""

    index: int
    shard_id: str
    role: str  # ROLE_HOLDOUT or ROLE_BLIND
    jobs: Tuple[BatchJob, ...]
    job_hashes: Tuple[str, ...]

    def describe(self) -> str:
        return (
            f"shard {self.index} [{self.shard_id}] ({self.role}, "
            f"{len(self.jobs)} job(s))"
        )


def make_shards(
    jobs: Sequence[BatchJob], *, shard_size: int, holdout: int
) -> List[Shard]:
    """Chunk ``jobs`` into shards and assign held-out roles.

    ``shard_size`` is the maximum jobs per shard (the last shard may be
    smaller); ``holdout`` is how many shards form the blind-validation
    subset -- it must leave at least one shard to unblind.  Returns the
    shards in grid order.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if holdout < 0:
        raise ValueError("holdout must be >= 0")
    jobs = list(jobs)
    if not jobs:
        raise ValueError("a campaign needs at least one job")
    chunks = [jobs[i : i + shard_size] for i in range(0, len(jobs), shard_size)]
    if holdout >= len(chunks):
        raise ValueError(
            f"holdout={holdout} must leave at least one shard to unblind "
            f"({len(chunks)} shard(s) total; lower holdout or shard_size)"
        )
    hashes = [tuple(config_hash(job) for job in chunk) for chunk in chunks]
    ids = [shard_id_for(chunk_hashes) for chunk_hashes in hashes]
    held_out = holdout_ids(ids, holdout)
    return [
        Shard(
            index=index,
            shard_id=shard_id,
            role=ROLE_HOLDOUT if shard_id in held_out else ROLE_BLIND,
            jobs=tuple(chunk),
            job_hashes=chunk_hashes,
        )
        for index, (chunk, chunk_hashes, shard_id) in enumerate(
            zip(chunks, hashes, ids)
        )
    ]
