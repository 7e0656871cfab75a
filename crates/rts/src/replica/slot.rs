//! Authoritative replicas that a drain can withdraw: a sharded partition or
//! an adaptive regime slot.

use std::sync::atomic::{AtomicBool, Ordering};

use orca_object::{AnyReplica, AppliedOutcome, ObjectError, OpKind};
use orca_wire::{DedupWindow, OpStamp};
use parking_lot::{Mutex, MutexGuard};

use crate::stats::AccessStats;

/// What the slot's mutex guards: the replica and the dedup window recorded
/// against exactly that replica's state.
pub(crate) struct SlotState {
    pub(crate) replica: Box<dyn AnyReplica>,
    /// Replies of recently applied stamped writes, keyed per origin. It
    /// travels with the state through every transfer, so a retried write
    /// applies exactly once wherever the state ends up.
    pub(crate) dedup: DedupWindow,
}

/// A withdrawn slot's state on its way to another node.
pub(crate) struct Drained {
    pub(crate) type_name: String,
    pub(crate) state: Vec<u8>,
    /// The replica-internal write count of `state`.
    pub(crate) version: u64,
    pub(crate) dedup: DedupWindow,
}

/// One authoritative replica held by this node.
pub(crate) struct ReplicaSlot {
    state: Mutex<SlotState>,
    /// Set, under the mutex, when a drain has serialized the state for
    /// transfer. An operation may have cloned the slot out of its map before
    /// the drain removed it; without this mark it would apply to the orphaned
    /// replica *after* the snapshot and be silently lost. Such an operation
    /// sees the mark once it holds the mutex and is bounced instead.
    withdrawn: AtomicBool,
    /// Owner-side access counters.
    pub(crate) access: AccessStats,
}

impl ReplicaSlot {
    pub(crate) fn new(replica: Box<dyn AnyReplica>, dedup: DedupWindow) -> Self {
        ReplicaSlot {
            state: Mutex::new(SlotState { replica, dedup }),
            withdrawn: AtomicBool::new(false),
            access: AccessStats::default(),
        }
    }

    /// Lock the state whether or not the slot is withdrawn (reports,
    /// backups).
    pub(crate) fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock()
    }

    /// Lock the state to serve an operation; `None` once withdrawn.
    pub(crate) fn lock_live(&self) -> Option<MutexGuard<'_, SlotState>> {
        let state = self.state.lock();
        (!self.withdrawn.load(Ordering::Relaxed)).then_some(state)
    }

    /// Withdraw the slot: set the mark and snapshot the state and its dedup
    /// window under one hold of the mutex.
    pub(crate) fn drain(&self) -> Drained {
        let state = self.state.lock();
        self.withdrawn.store(true, Ordering::Relaxed);
        Drained {
            type_name: state.replica.type_name().to_string(),
            state: state.replica.state_bytes(),
            version: state.replica.version(),
            dedup: state.dedup.clone(),
        }
    }

    /// Serve the slot again after a transfer failed.
    pub(crate) fn restore(&self) {
        let _state = self.state.lock();
        self.withdrawn.store(false, Ordering::Relaxed);
    }

    /// Execute one operation; `None` when the slot is withdrawn. A stamped
    /// write whose stamp is already in the window is answered its recorded
    /// reply without applying again. `before_write` runs before a fresh
    /// write applies, and `after_write` after it completes, both under the
    /// mutex, so whatever the write must reach (backup, mirrors) sees writes
    /// in execution order and before the write is acknowledged.
    pub(crate) fn execute(
        &self,
        op: &[u8],
        stamp: Option<OpStamp>,
        before_write: impl FnOnce(),
        after_write: impl FnOnce(&SlotState, Option<(OpStamp, Vec<u8>)>),
    ) -> Option<Result<AppliedOutcome, ObjectError>> {
        let mut state = self.lock_live()?;
        let kind = match state.replica.op_kind(op) {
            Ok(kind) => kind,
            Err(err) => return Some(Err(err)),
        };
        if kind == OpKind::Write {
            if let Some(reply) = stamp.and_then(|stamp| state.dedup.lookup(stamp)) {
                return Some(Ok(AppliedOutcome::Done(reply.to_vec())));
            }
            before_write();
            self.access.record_write();
        } else {
            self.access.record_read();
        }
        let outcome = state.replica.apply_encoded(op);
        if let (OpKind::Write, Ok(AppliedOutcome::Done(reply))) = (kind, &outcome) {
            let stamped = stamp.map(|stamp| (stamp, reply.clone()));
            if let Some((stamp, reply)) = &stamped {
                state.dedup.record(*stamp, reply.clone());
            }
            after_write(&state, stamped);
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_object::testing::{Accumulator, AccumulatorOp};
    use orca_object::{ObjectRegistry, ObjectType};
    use orca_wire::Wire;

    fn slot(value: i64) -> ReplicaSlot {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        let replica = registry
            .instantiate(Accumulator::TYPE_NAME, &value.to_bytes())
            .unwrap();
        ReplicaSlot::new(replica, DedupWindow::new())
    }

    fn done(outcome: Option<Result<AppliedOutcome, ObjectError>>) -> i64 {
        match outcome {
            Some(Ok(AppliedOutcome::Done(reply))) => i64::from_bytes(&reply).unwrap(),
            _ => panic!("operation not served"),
        }
    }

    #[test]
    fn stamped_write_applies_exactly_once() {
        let slot = slot(0);
        let stamp = Some(OpStamp { origin: 2, seq: 1 });
        let add = AccumulatorOp::Add(5).to_bytes();
        let mut pushed = 0;
        assert_eq!(
            done(slot.execute(&add, stamp, || {}, |_, _| pushed += 1)),
            5
        );
        assert_eq!(
            done(slot.execute(&add, stamp, || {}, |_, _| pushed += 1)),
            5
        );
        assert_eq!(pushed, 1, "the retry is answered, not applied or pushed");
        let read = AccumulatorOp::Read.to_bytes();
        assert_eq!(done(slot.execute(&read, None, || {}, |_, _| {})), 5);
    }

    #[test]
    fn drain_bounces_later_operations_until_restored() {
        let slot = slot(3);
        let drained = slot.drain();
        assert_eq!(drained.type_name, Accumulator::TYPE_NAME);
        assert_eq!(i64::from_bytes(&drained.state).unwrap(), 3);
        let add = AccumulatorOp::Add(1).to_bytes();
        assert!(slot.execute(&add, None, || {}, |_, _| {}).is_none());
        assert!(slot.lock_live().is_none());
        slot.restore();
        assert_eq!(done(slot.execute(&add, None, || {}, |_, _| {})), 4);
    }
}
