//! The replica core: the one implementation of the replica machinery the
//! primary-copy, sharded and adaptive runtime systems share.
//!
//! The paper varies only the runtime system beneath one object model: an
//! update-or-invalidate primary copy whose secondaries are fetched and
//! dropped by read/write ratio (§3.2). The three point-to-point runtime
//! systems therefore need the same three state machines, and this module
//! holds exactly one implementation of each:
//!
//! * [`VersionedCopy`] / [`CopyCell`] — the *holder* side of a replicated
//!   copy: a primary-copy secondary, an adaptive read mirror. Updates apply
//!   strictly in version order, a gap or an apply error drops the copy, a
//!   snapshot older than the highest version seen is refused, and an era
//!   change (adaptive regime epoch, primary re-homing) resets everything.
//!   A copy at version `v` therefore contains every write `≤ v`.
//! * [`Grantor`] — the *grantor* side of read leases: one grant table per
//!   authoritative copy, the fence a promoted or adopted copy arms, and the
//!   settle step a write runs for holders its push could not reach.
//! * [`ReplicaSlot`] — an authoritative replica that can be withdrawn: the
//!   sharded partition and the adaptive regime slot. Draining marks the
//!   slot and snapshots its state and dedup window under one lock, so an
//!   operation that raced the drain is bounced instead of lost.
//!
//! See "Replica core" in `docs/ARCHITECTURE.md` for the rules these
//! machines enforce and which backend uses which piece.

mod copy;
mod lease;
mod slot;

pub(crate) use copy::{CopyCell, VersionedCopy};
pub(crate) use lease::{Grantor, LeaseCounters};
pub(crate) use slot::{ReplicaSlot, SlotState};
