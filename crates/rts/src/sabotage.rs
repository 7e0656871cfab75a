//! Deliberate protocol mutations for model-checker self-tests.
//!
//! The bounded model checker (`orca-mc`) proves it can *detect* protocol
//! violations by flipping one of these process-global switches and
//! asserting that exploration flags the deliberately broken protocol.
//! Every switch is off by default and has zero effect on production paths
//! beyond one relaxed branch condition; they are process-global (not
//! environment variables) because parallel tests share the environment.
//!
//! Each sabotage re-introduces a real bug class:
//!
//! * [`NO_VERSION_GATING`] — the shared versioned copy
//!   (`crates/rts/src/replica/`) stops checking update versions: a stale
//!   snapshot is installed even when a newer update (or an invalidation)
//!   overtook it in flight, and pushed updates are applied regardless of
//!   gaps. This is the pre-fix behavior of the fetch/update race (a
//!   permanently stale copy serving local reads). Because the copy is
//!   shared, the switch governs the primary-copy RTS's secondary copies
//!   and the adaptive RTS's read mirrors alike.
//! * [`REHOME_KEEPS_STALE_COPIES`] — after a crash, survivors that are
//!   not the new home keep their secondary copies instead of dropping
//!   them; such a copy is frozen at the moment of the crash and serves
//!   reads that miss every post-promotion write.

use std::sync::atomic::{AtomicBool, Ordering};

/// Disable version gating in the versioned-copy protocol of primary-copy
/// secondaries and adaptive mirrors (stale snapshots install, gapped
/// updates apply).
pub static NO_VERSION_GATING: AtomicBool = AtomicBool::new(false);

/// Survivors keep (instead of drop) their stale secondary copies when an
/// object is re-homed after a crash.
pub static REHOME_KEEPS_STALE_COPIES: AtomicBool = AtomicBool::new(false);

pub(crate) fn no_version_gating() -> bool {
    NO_VERSION_GATING.load(Ordering::SeqCst)
}

pub(crate) fn rehome_keeps_stale_copies() -> bool {
    REHOME_KEEPS_STALE_COPIES.load(Ordering::SeqCst)
}

/// RAII guard that enables one sabotage switch and restores it on drop, so
/// a panicking test cannot leak the mutation into later tests.
pub struct SabotageGuard {
    switch: &'static AtomicBool,
}

impl SabotageGuard {
    /// Enable `switch` until the guard drops.
    pub fn enable(switch: &'static AtomicBool) -> Self {
        switch.store(true, Ordering::SeqCst);
        SabotageGuard { switch }
    }
}

impl Drop for SabotageGuard {
    fn drop(&mut self) {
        self.switch.store(false, Ordering::SeqCst);
    }
}
