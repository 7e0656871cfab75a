//! The holder side of a replicated copy: a primary-copy secondary or an
//! adaptive read mirror.

use std::time::{Duration, Instant};

use orca_object::AnyReplica;
use orca_wire::{DedupWindow, OpStamp};
use parking_lot::{Condvar, Mutex, MutexGuard};

use super::lease::HeldLease;
use crate::sabotage;

/// One node's copy of an object it does not own, kept current by the
/// owner's ordered update pushes.
///
/// The invariant: a copy at `version` contains every write up to and
/// including `version`. Updates apply strictly in version order; a gap or
/// an apply error drops the copy, and a snapshot older than the highest
/// version `seen` is refused. Crash recovery's freshest-copy promotion and
/// the leased read path both rely on it.
#[derive(Default)]
pub(crate) struct VersionedCopy {
    /// The local copy, if one is installed.
    pub(crate) copy: Option<Box<dyn AnyReplica>>,
    /// Era the versions count in: the adaptive regime epoch (always 0 under
    /// the primary-copy RTS, whose re-homing resets in place). Messages of an
    /// older era are ignored; a newer era resets the copy.
    pub(crate) era: u64,
    /// Version of `copy`: the owner's write count the state corresponds to.
    pub(crate) version: u64,
    /// Highest update version *observed* in this era, applied or not. A
    /// snapshot older than this raced an update past it and is refused.
    pub(crate) seen: u64,
    /// True between phase 1 (update applied) and phase 2 (unlock) of a
    /// two-phase update push; local reads wait while it is set.
    pub(crate) locked: bool,
    /// Read lease over `copy`. Kept after expiry (a lapsed lease is the
    /// token a renewal presents); cleared only when the copy goes.
    pub(crate) lease: Option<HeldLease>,
    /// Dedup window as fresh as `copy`, fed by the stamped piggyback on
    /// update pushes: a promoted copy answers retries of writes the dead
    /// owner already applied.
    pub(crate) dedup: DedupWindow,
}

impl VersionedCopy {
    /// Discard the copy and everything describing it (lease, dedup window,
    /// lock). The version counters stay, so later messages are still judged
    /// against them. Returns whether a copy was present.
    pub(crate) fn drop_copy(&mut self) -> bool {
        self.locked = false;
        self.lease = None;
        self.dedup = DedupWindow::new();
        self.copy.take().is_some()
    }

    /// Forget everything and start over in `era`: an adaptive epoch bump, a
    /// primary-copy re-homing or promotion.
    pub(crate) fn reset(&mut self, era: u64) {
        *self = VersionedCopy {
            era,
            ..VersionedCopy::default()
        };
    }

    /// Judge a message of `era`: false for a retired era (ignore the
    /// message), otherwise true, after resetting on a newer era.
    pub(crate) fn enter_era(&mut self, era: u64) -> bool {
        if era < self.era {
            return false;
        }
        if era > self.era {
            self.reset(era);
        }
        true
    }

    /// Apply the pushed updates numbered `first, first + 1, ...` strictly in
    /// order: a duplicate prefix is skipped, a gap before the run or an
    /// apply error drops the copy. On success the copy is locked until the
    /// unlock phase, and `stamped` (a single write's stamp and reply) is
    /// recorded in the dedup window. Returns the number of ops applied.
    pub(crate) fn apply_updates<O: AsRef<[u8]>>(
        &mut self,
        first: u64,
        ops: &[O],
        stamped: Option<(OpStamp, Vec<u8>)>,
    ) -> usize {
        if ops.is_empty() {
            return 0;
        }
        let last = first + ops.len() as u64 - 1;
        self.seen = self.seen.max(last);
        if self.copy.is_none() {
            return 0;
        }
        let start = if sabotage::no_version_gating() {
            0
        } else if first > self.version + 1 {
            // Gap: an update went missing. Re-sync on the next access
            // rather than diverge.
            self.drop_copy();
            return 0;
        } else if last <= self.version {
            return 0; // duplicate push
        } else {
            (self.version + 1 - first) as usize
        };
        let copy = self.copy.as_mut().expect("checked above");
        let failed = ops[start..]
            .iter()
            .position(|op| copy.apply_encoded(op.as_ref()).is_err());
        if let Some(applied) = failed {
            // A copy that cannot take an update is discarded; the next
            // access fetches a fresh one.
            self.drop_copy();
            return applied;
        }
        self.version = last;
        self.locked = true;
        if let Some((stamp, reply)) = stamped {
            self.dedup.record(stamp, reply);
        }
        ops.len() - start
    }

    /// Install a fetched snapshot at `version` with the dedup window that
    /// describes exactly that state, unless an update newer than the
    /// snapshot was already seen (it overtook the snapshot in flight, and
    /// the snapshot would serve stale reads forever). Any held lease goes
    /// with the old state. Returns whether the snapshot was installed.
    pub(crate) fn install(
        &mut self,
        replica: Box<dyn AnyReplica>,
        version: u64,
        dedup: DedupWindow,
    ) -> bool {
        if self.seen > version && !sabotage::no_version_gating() {
            return false;
        }
        self.copy = Some(replica);
        self.version = version;
        self.seen = self.seen.max(version);
        self.locked = false;
        self.lease = None;
        self.dedup = dedup;
        true
    }

    /// An invalidation at `version`: drop the copy and record the version
    /// floor even when no copy is installed, so a snapshot the invalidation
    /// overtook is refused when it lands.
    pub(crate) fn invalidate(&mut self, version: u64) {
        self.seen = self.seen.max(version);
        self.drop_copy();
    }

    /// Hold a lease received from the grantor, valid for `valid_ms` from
    /// now and under detector epoch `epoch`. Ignored without a copy: a
    /// grant for a copy dropped mid-protocol must not authorize anything.
    pub(crate) fn hold_lease(&mut self, seq: u64, epoch: u64, valid_ms: u64) {
        if self.copy.is_some() {
            self.lease = Some(HeldLease {
                seq,
                epoch,
                expires: Instant::now() + Duration::from_millis(valid_ms),
            });
        }
    }

    /// True while the held lease permits zero-message local reads at
    /// detector epoch `epoch`.
    #[inline]
    pub(crate) fn lease_valid(&self, epoch: u64) -> bool {
        self.lease.is_some_and(|lease| lease.valid(epoch))
    }
}

/// A [`VersionedCopy`] under its mutex, with the condition variable local
/// reads park on while the copy is locked (or a guarded read waits for the
/// copy to change).
#[derive(Default)]
pub(crate) struct CopyCell {
    state: Mutex<VersionedCopy>,
    unlocked: Condvar,
}

impl CopyCell {
    /// Lock the copy for a read or a query.
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, VersionedCopy> {
        self.state.lock()
    }

    /// Park on the copy until a transition wakes it or `timeout` passes.
    pub(crate) fn wait(&self, guard: &mut MutexGuard<'_, VersionedCopy>, timeout: Duration) {
        self.unlocked.wait_for(guard, timeout);
    }

    /// Run one protocol transition under the lock, then wake every parked
    /// reader: the one place the condition variable is notified, so no
    /// transition that clears `locked` can leave a reader asleep.
    pub(crate) fn update<R>(&self, transition: impl FnOnce(&mut VersionedCopy) -> R) -> R {
        let result = transition(&mut self.state.lock());
        self.unlocked.notify_all();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_object::testing::{Accumulator, AccumulatorOp};
    use orca_object::{ObjectRegistry, ObjectType};
    use orca_wire::Wire;

    fn replica(value: i64) -> Box<dyn AnyReplica> {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        registry
            .instantiate(Accumulator::TYPE_NAME, &value.to_bytes())
            .unwrap()
    }

    fn add(n: i64) -> Vec<u8> {
        AccumulatorOp::Add(n).to_bytes()
    }

    fn value(copy: &mut VersionedCopy) -> Option<i64> {
        let replica = copy.copy.as_mut()?;
        match replica
            .apply_encoded(&AccumulatorOp::Read.to_bytes())
            .unwrap()
        {
            orca_object::AppliedOutcome::Done(reply) => Some(i64::from_bytes(&reply).unwrap()),
            orca_object::AppliedOutcome::Blocked => None,
        }
    }

    /// A copy installed at `version` with value `version` (one `Add(1)` per
    /// write).
    fn copy_at(version: u64) -> VersionedCopy {
        let mut copy = VersionedCopy::default();
        assert!(copy.install(replica(version as i64), version, DedupWindow::new()));
        copy
    }

    fn stamp(seq: u64) -> OpStamp {
        OpStamp { origin: 1, seq }
    }

    #[test]
    fn updates_apply_in_order_and_lock() {
        let mut copy = copy_at(2);
        assert_eq!(
            copy.apply_updates(3, &[add(1)], Some((stamp(7), vec![9]))),
            1
        );
        assert_eq!((copy.version, copy.seen), (3, 3));
        assert!(copy.locked, "locked until the unlock phase");
        assert_eq!(copy.dedup.lookup(stamp(7)), Some(&[9u8][..]));
        assert_eq!(value(&mut copy), Some(3));
    }

    #[test]
    fn gap_drops_the_copy() {
        let mut copy = copy_at(2);
        copy.hold_lease(1, 0, 60_000);
        assert_eq!(copy.apply_updates(4, &[add(1)], None), 0);
        assert!(copy.copy.is_none());
        assert!(copy.lease.is_none() && !copy.locked);
        assert_eq!(copy.seen, 4);
    }

    #[test]
    fn duplicate_update_is_ignored() {
        let mut copy = copy_at(2);
        assert_eq!(copy.apply_updates(2, &[add(1)], None), 0);
        assert_eq!(copy.version, 2);
        assert!(!copy.locked);
        assert_eq!(value(&mut copy), Some(2));
    }

    #[test]
    fn batch_applies_only_its_unseen_suffix() {
        let mut copy = copy_at(2);
        // Versions 1..=4: the first two are already in the copy.
        assert_eq!(
            copy.apply_updates(1, &[add(1), add(1), add(1), add(1)], None),
            2
        );
        assert_eq!(copy.version, 4);
        assert_eq!(value(&mut copy), Some(4));
        assert_eq!(
            copy.apply_updates(3, &[add(1), add(1)], None),
            0,
            "all seen"
        );
        assert_eq!(copy.apply_updates(6, &[add(1), add(1)], None), 0, "gap");
        assert!(copy.copy.is_none());
    }

    #[test]
    fn apply_error_drops_the_copy() {
        let mut copy = copy_at(2);
        assert_eq!(copy.apply_updates(3, &[add(1), vec![0xff]], None), 1);
        assert!(copy.copy.is_none());
    }

    #[test]
    fn stale_snapshot_is_refused() {
        let mut copy = VersionedCopy::default();
        // An update for version 5 overtook the snapshot at 4 in flight.
        assert_eq!(copy.apply_updates(5, &[add(1)], None), 0);
        assert!(!copy.install(replica(4), 4, DedupWindow::new()));
        assert!(copy.copy.is_none());
        assert!(copy.install(replica(5), 5, DedupWindow::new()));
        assert_eq!(value(&mut copy), Some(5));
    }

    #[test]
    fn invalidation_floor_poisons_a_late_install() {
        let mut copy = VersionedCopy::default();
        copy.invalidate(7);
        assert!(!copy.install(replica(6), 6, DedupWindow::new()));
        let mut held = copy_at(6);
        held.invalidate(7);
        assert!(held.copy.is_none() && held.seen == 7);
    }

    #[test]
    fn epoch_change_resets_the_copy() {
        let mut copy = copy_at(3);
        copy.apply_updates(4, &[add(1)], None);
        assert!(
            copy.enter_era(0) && copy.copy.is_some(),
            "same era keeps it"
        );
        assert!(copy.enter_era(2));
        assert_eq!((copy.era, copy.version, copy.seen), (2, 0, 0));
        assert!(copy.copy.is_none() && !copy.locked);
        assert!(!copy.enter_era(1), "a retired era is ignored");
        assert!(copy.install(replica(0), 0, DedupWindow::new()));
    }

    #[test]
    fn lease_lapses_on_expiry_or_detector_epoch_change() {
        let mut copy = VersionedCopy::default();
        copy.hold_lease(1, 0, 60_000);
        assert!(copy.lease.is_none(), "no lease without a copy");
        let mut copy = copy_at(1);
        copy.hold_lease(1, 4, 60_000);
        assert!(copy.lease_valid(4));
        assert!(!copy.lease_valid(5));
        copy.hold_lease(2, 4, 0);
        assert!(!copy.lease_valid(4), "expired");
        copy.drop_copy();
        assert!(copy.lease.is_none());
    }

    #[test]
    fn no_version_gating_flips_gap_and_stale_snapshot_decisions() {
        let mut gapped = copy_at(2);
        let mut stale = VersionedCopy::default();
        stale.invalidate(5);
        // The switch is process-wide and other tests run in parallel: hold
        // it across the two decisions only.
        let (applied, installed) = {
            let _sabotage = sabotage::SabotageGuard::enable(&sabotage::NO_VERSION_GATING);
            (
                gapped.apply_updates(4, &[add(1)], None),
                stale.install(replica(4), 4, DedupWindow::new()),
            )
        };
        assert_eq!(applied, 1, "the gapped update applies");
        assert_eq!(value(&mut gapped), Some(3), "and silently misses version 3");
        assert!(installed, "the stale snapshot installs");
    }
}
