//! Read leases: one node's lease settings, the holder-side lease, and the
//! grantor's table of outstanding grants.
//!
//! A holder serves reads from its local copy with zero messages while its
//! lease is valid. In exchange, a write at the grantor must renew, revoke or
//! wait out every outstanding grant before it completes, which keeps leased
//! reads linearizable even though update pushes can fail.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use orca_amoeba::network::NetworkHandle;
use orca_amoeba::NodeId;
use orca_telemetry::{Counter, Registry};

/// Telemetry counters of the lease protocol, cached so the leased read path
/// does not take the registry lock per read. The primary-copy and adaptive
/// backends account their leases under the same `rts.lease.*` names.
pub(crate) struct LeaseCounters {
    pub(crate) grants: Counter,
    pub(crate) renewals: Counter,
    pub(crate) revokes: Counter,
    pub(crate) local_reads: Counter,
}

impl LeaseCounters {
    /// Resolve (or create) the `rts.lease.*` counters of this node's
    /// telemetry registry.
    pub(crate) fn from_handle(handle: &NetworkHandle) -> Self {
        Self::from_registry(handle.telemetry().registry())
    }

    fn from_registry(reg: &Registry) -> Self {
        LeaseCounters {
            grants: reg.counter("rts.lease.grants"),
            renewals: reg.counter("rts.lease.renewals"),
            revokes: reg.counter("rts.lease.revokes"),
            local_reads: reg.counter("rts.lease.local_reads"),
        }
    }
}

/// Holder-side record of the lease covering a local copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldLease {
    /// Sequence number of the grant (named by renewals).
    pub(crate) seq: u64,
    /// Failure-detector membership epoch the lease is valid under. A holder
    /// whose own detector has moved past it treats the lease as expired,
    /// whatever the clock says.
    pub(crate) epoch: u64,
    /// Expiry on the holder's clock (`valid_ms` from receipt).
    pub(crate) expires: Instant,
}

impl HeldLease {
    /// True while the lease permits local reads at detector epoch `epoch`.
    #[inline]
    pub(crate) fn valid(&self, epoch: u64) -> bool {
        Instant::now() < self.expires && epoch == self.epoch
    }
}

/// Grantor-side bookkeeping of the read leases over one authoritative copy.
#[derive(Default, Clone)]
pub(crate) struct Grantor {
    /// Latest grant per holder, with its conservative expiry on the
    /// grantor's clock. The holder counts its validity from receipt, so the
    /// grantor's span is twice that: it covers delivery delay and clock
    /// drift to the same degree the recovery timeline already assumes.
    grants: HashMap<NodeId, Grant>,
    /// Grant sequence numbers, unique per copy per grantor incarnation.
    next_seq: u64,
    /// Writes may not execute before this instant. Armed when the copy was
    /// promoted or adopted by crash recovery: the dead grantor's grants are
    /// unknown, so the first write waits out a full lease span. Reads need
    /// no fence — every valid lease covers a copy that already contains
    /// every acknowledged write.
    pub(crate) fence: Option<Instant>,
}

#[derive(Clone, Copy)]
struct Grant {
    seq: u64,
    expires: Instant,
}

impl Grantor {
    /// Record a fresh grant for `holder`, outstanding for `span` on the
    /// grantor's clock, count it in `counter` (a first grant or a renewal)
    /// and return its sequence number.
    pub(crate) fn mint(&mut self, holder: NodeId, span: Duration, counter: &Counter) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        let expires = Instant::now() + span;
        self.grants.insert(holder, Grant { seq, expires });
        counter.inc();
        seq
    }

    /// Sequence number of the latest grant `holder` holds, if any.
    pub(crate) fn current(&self, holder: NodeId) -> Option<u64> {
        self.grants.get(&holder).map(|grant| grant.seq)
    }

    /// Forget `holder`'s grant: it was revoked together with its copy.
    pub(crate) fn forget(&mut self, holder: NodeId) {
        self.grants.remove(&holder);
    }

    /// Every holder with an outstanding grant.
    pub(crate) fn holders(&self) -> Vec<NodeId> {
        self.grants.keys().copied().collect()
    }

    /// Drop grants that no longer need settling: expired on the grantor's
    /// clock, or held by a node the failure detector declared dead
    /// (fail-stop: a dead holder serves no reads).
    pub(crate) fn prune(&mut self, dead: impl Fn(NodeId) -> bool) {
        let now = Instant::now();
        self.grants
            .retain(|holder, grant| now < grant.expires && !dead(*holder));
    }

    /// Fence writes for one full grant span (no-op with leases off, where
    /// the span is zero).
    pub(crate) fn arm_fence(&mut self, span: Duration) {
        if !span.is_zero() {
            self.fence = Some(Instant::now() + span);
        }
    }

    /// Sleep out a pending fence, once; later writes pass straight through.
    pub(crate) fn wait_out_fence(&mut self) {
        if let Some(fence) = self.fence.take() {
            sleep_until(fence);
        }
    }

    /// Settle the grants of `holders`, whose copies a write could not keep
    /// current. Each grant is removed. A dead holder's or an expired grant
    /// needs nothing more. A live, unexpired one is revoked with
    /// `revoke(holder, seq, expires)`, and when that fails the grant is
    /// slept out. On return none of the grants can still authorize a local
    /// read, so the write may complete. Each revoke attempt counts in
    /// `revokes`. With leases off the table is empty and this is a no-op:
    /// pushes are then best-effort and version gating re-syncs a holder
    /// that missed one.
    pub(crate) fn settle(
        &mut self,
        holders: &[NodeId],
        revokes: &Counter,
        dead: impl Fn(NodeId) -> bool,
        mut revoke: impl FnMut(NodeId, u64, Instant) -> bool,
    ) {
        for &holder in holders {
            let Some(grant) = self.grants.remove(&holder) else {
                continue;
            };
            if dead(holder) || Instant::now() >= grant.expires {
                continue;
            }
            revokes.inc();
            if !revoke(holder, grant.seq, grant.expires) {
                sleep_until(grant.expires);
            }
        }
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if now < deadline {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN: Duration = Duration::from_secs(60);

    fn counters() -> LeaseCounters {
        LeaseCounters::from_registry(&Registry::new())
    }

    #[test]
    fn mint_renews_in_place_and_counts() {
        let counters = counters();
        let mut grantor = Grantor::default();
        let first = grantor.mint(NodeId(1), SPAN, &counters.grants);
        let renewed = grantor.mint(NodeId(1), SPAN, &counters.renewals);
        assert!(renewed > first);
        assert_eq!(grantor.current(NodeId(1)), Some(renewed));
        assert_eq!((counters.grants.get(), counters.renewals.get()), (1, 1));
        grantor.forget(NodeId(1));
        assert_eq!(grantor.current(NodeId(1)), None);
    }

    #[test]
    fn prune_drops_dead_and_expired_grants() {
        let counters = counters();
        let mut grantor = Grantor::default();
        grantor.mint(NodeId(1), SPAN, &counters.grants);
        grantor.mint(NodeId(2), SPAN, &counters.grants);
        grantor.mint(NodeId(3), Duration::ZERO, &counters.grants);
        grantor.prune(|node| node == NodeId(2));
        assert_eq!(grantor.holders(), vec![NodeId(1)]);
    }

    #[test]
    fn fence_waits_once_then_clears() {
        let span = Duration::from_millis(30);
        let mut grantor = Grantor::default();
        grantor.wait_out_fence(); // unarmed: returns at once
        grantor.arm_fence(span);
        let start = Instant::now();
        grantor.wait_out_fence();
        assert!(start.elapsed() >= span - Duration::from_millis(5));
        assert!(grantor.fence.is_none(), "the fence clears after one wait");
        let again = Instant::now();
        grantor.wait_out_fence();
        assert!(again.elapsed() < span);
        grantor.arm_fence(Duration::ZERO);
        assert!(grantor.fence.is_none(), "no fence with leases off");
    }

    #[test]
    fn settle_revokes_only_live_unexpired_grants() {
        let counters = counters();
        let mut grantor = Grantor::default();
        for node in 1..=4 {
            grantor.mint(NodeId(node), SPAN, &counters.grants);
        }
        grantor.mint(NodeId(2), Duration::ZERO, &counters.renewals); // expired
        let mut revoked = Vec::new();
        grantor.settle(
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(5)],
            &counters.revokes,
            |node| node == NodeId(3),
            |node, _, _| {
                revoked.push(node);
                true
            },
        );
        assert_eq!(revoked, vec![NodeId(1)]);
        assert_eq!(counters.revokes.get(), 1);
        assert_eq!(
            grantor.holders(),
            vec![NodeId(4)],
            "settled grants are gone"
        );
    }

    #[test]
    fn failed_revoke_sleeps_the_grant_out() {
        let counters = counters();
        let span = Duration::from_millis(20);
        let mut grantor = Grantor::default();
        let start = Instant::now();
        grantor.mint(NodeId(1), span, &counters.grants);
        grantor.settle(&[NodeId(1)], &counters.revokes, |_| false, |_, _, _| false);
        assert!(start.elapsed() >= span);
        assert!(grantor.holders().is_empty());
    }
}
