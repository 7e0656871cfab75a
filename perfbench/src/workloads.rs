//! The four workloads: a closed loop of two client processes against one
//! shared object on an in-process 3-node cluster over loopback sockets.
//!
//! The main process (node 0) creates the object; the clients are forked on
//! nodes 1 and 2. Each client draws its operations from a generator seeded
//! by the run's seed, the client index and the stream, times every
//! invocation, and checks every reply it can check on the spot. After the
//! measured phase [`final_check`] checks the object's final state.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use orca_core::objects::{IntObject, IntOp, KvTableObject, KvTableOp, KvTableReply, TableEntry};
use orca_core::{
    standard_registry, ObjectHandle, OrcaConfig, OrcaNode, OrcaRuntime, RtsStrategy,
    TransportConfig,
};
use orca_object::OpKind;

use crate::stats::LatencyHist;
use crate::sys;

/// Cluster size.
pub const NODES: usize = 3;
/// Nodes the two client processes are forked on.
pub const CLIENT_NODES: [usize; 2] = [1, 2];
/// Keys of the pre-populated table (`lease-readmostly`, `adaptive-phases`).
pub const TABLE_KEYS: u64 = 1024;
/// Key space of the `sharded-pipelined` table.
pub const SHARDED_KEYS: u64 = 4096;
/// Async `Put`s a `sharded-pipelined` client keeps in flight.
pub const WINDOW: usize = 16;
/// Phases of each measured phase of `adaptive-phases`, alternating
/// read-heavy and write-heavy.
pub const ADAPTIVE_PHASES: u32 = 6;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LeaseReadmostly,
    ShardedPipelined,
    BroadcastCounter,
    AdaptivePhases,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LeaseReadmostly,
        Workload::ShardedPipelined,
        Workload::BroadcastCounter,
        Workload::AdaptivePhases,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaseReadmostly => "lease-readmostly",
            Workload::ShardedPipelined => "sharded-pipelined",
            Workload::BroadcastCounter => "broadcast-counter",
            Workload::AdaptivePhases => "adaptive-phases",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runtime system, at its default policy.
    pub fn strategy(self) -> RtsStrategy {
        match self {
            Workload::LeaseReadmostly => RtsStrategy::primary_update(),
            Workload::ShardedPipelined => RtsStrategy::sharded(3),
            Workload::BroadcastCounter => RtsStrategy::broadcast(),
            Workload::AdaptivePhases => RtsStrategy::adaptive(),
        }
    }

    /// Share of reads at `elapsed` into a measured phase of `length`.
    fn read_fraction(self, elapsed: Duration, length: Duration) -> f64 {
        match self {
            Workload::LeaseReadmostly => 0.95,
            Workload::BroadcastCounter => 0.5,
            Workload::ShardedPipelined => 1.0 / (WINDOW as f64 + 1.0),
            Workload::AdaptivePhases => {
                if adaptive_phase(elapsed, length).is_multiple_of(2) {
                    0.95
                } else {
                    0.20
                }
            }
        }
    }
}

/// Index of the `adaptive-phases` phase `elapsed` falls into.
fn adaptive_phase(elapsed: Duration, length: Duration) -> u32 {
    let share = elapsed.as_secs_f64() / length.as_secs_f64().max(f64::MIN_POSITIVE);
    ((share * f64::from(ADAPTIVE_PHASES)) as u32).min(ADAPTIVE_PHASES - 1)
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator of one (seed, client, stream) triple.
    pub fn new(seed: u64, client: u64, stream: u64) -> Rng {
        Rng(splitmix(
            seed ^ splitmix((client << 32) ^ stream ^ 0x9e37_79b9),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Generator of one client's table operations. Each `Put` carries a depth
/// one deeper than the client's previous `Put`, so a later `Get` by the
/// same client must see a depth at least as deep.
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: Rng,
    client: u64,
    depth: i32,
}

/// Depths of successive measured phases on one cluster start this far
/// apart, so a later phase's writes are deeper than an earlier phase's.
const DEPTHS_PER_PHASE: i32 = 1 << 24;

impl KvGen {
    /// The generator of `client` in measured phase `stream`.
    pub fn new(rng: Rng, client: u64, stream: u64) -> KvGen {
        let stream = i32::try_from(stream).expect("few measured phases per cluster");
        KvGen {
            rng,
            client,
            depth: stream * DEPTHS_PER_PHASE,
        }
    }

    pub fn reseed(&mut self, rng: Rng) {
        self.rng = rng;
    }

    /// Uniform in `0..n`, from the same stream as the operations.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    /// A `Get` with probability `read_fraction`, else a `Put`, on a
    /// uniform key of `0..TABLE_KEYS`.
    pub fn next(&mut self, read_fraction: f64) -> KvTableOp {
        let key = self.rng.below(TABLE_KEYS);
        if self.rng.chance(read_fraction) {
            KvTableOp::Get(key)
        } else {
            self.put(key)
        }
    }

    /// A `Put` on a uniform key of this client's half of the sharded key
    /// space (even keys for client 0, odd for client 1).
    pub fn next_owned_put(&mut self) -> KvTableOp {
        let key = 2 * self.rng.below(SHARDED_KEYS / 2) + self.client;
        self.put(key)
    }

    fn put(&mut self, key: u64) -> KvTableOp {
        self.depth += 1;
        KvTableOp::Put {
            key,
            entry: TableEntry {
                depth: self.depth,
                value: self.rng.next_u64() as i64,
                aux: self.client,
            },
        }
    }
}

/// Generator of one client's counter operations: half `Value`, half
/// `Add(1)`.
pub fn counter_op(rng: &mut Rng) -> IntOp {
    if rng.chance(0.5) {
        IntOp::Value
    } else {
        IntOp::Add(1)
    }
}

/// The table every node starts from in the pre-populated workloads.
pub fn initial_table() -> BTreeMap<u64, TableEntry> {
    (0..TABLE_KEYS)
        .map(|key| {
            let entry = TableEntry {
                depth: 0,
                value: key as i64,
                aux: u64::MAX,
            };
            (key, entry)
        })
        .collect()
}

/// A sample of the workload's generated operations, for the layer probes.
pub fn sample_kv_ops(workload: Workload, seed: u64, n: usize) -> Vec<KvTableOp> {
    let mut generator = KvGen::new(Rng::new(seed, 0, u64::MAX), 0, 0);
    let length = Duration::from_secs(1);
    (0..n)
        .map(|i| match workload {
            Workload::ShardedPipelined => {
                if i % (WINDOW + 1) == WINDOW {
                    KvTableOp::Get(2 * (i as u64 % (SHARDED_KEYS / 2)))
                } else {
                    generator.next_owned_put()
                }
            }
            _ => {
                // Spread the sample evenly over the phases.
                let elapsed = length.mul_f64(i as f64 / n as f64);
                generator.next(workload.read_fraction(elapsed, length))
            }
        })
        .collect()
}

pub fn sample_counter_ops(seed: u64, n: usize) -> Vec<IntOp> {
    let mut rng = Rng::new(seed, 0, u64::MAX);
    (0..n).map(|_| counter_op(&mut rng)).collect()
}

/// The shared object of a run.
#[derive(Debug, Clone, Copy)]
pub enum Shared {
    Table(ObjectHandle<KvTableObject>),
    Counter(ObjectHandle<IntObject>),
}

/// A started cluster holding the workload's object.
pub struct Cluster {
    pub runtime: OrcaRuntime,
    pub shared: Shared,
    /// From `OrcaRuntime::start` until the object exists, is populated,
    /// and one operation per client has completed.
    pub setup: Duration,
}

/// Start a cluster for `workload` and complete one operation per client.
pub fn setup(workload: Workload) -> Result<Cluster, String> {
    let started = Instant::now();
    let config = OrcaConfig {
        strategy: workload.strategy(),
        ..OrcaConfig::broadcast(NODES)
    }
    .with_transport(TransportConfig::SocketLoopback);
    let runtime = OrcaRuntime::start(config, standard_registry());
    let created = match workload {
        Workload::LeaseReadmostly | Workload::AdaptivePhases => runtime
            .create::<KvTableObject>(&initial_table())
            .map(Shared::Table),
        Workload::ShardedPipelined => runtime
            .create::<KvTableObject>(&BTreeMap::new())
            .map(Shared::Table),
        Workload::BroadcastCounter => runtime.create::<IntObject>(&0).map(Shared::Counter),
    };
    let shared = created.map_err(|err| format!("create object: {err}"))?;
    let first_ops: Vec<_> = CLIENT_NODES
        .iter()
        .map(|&node| {
            runtime.fork_on(node, "first-op", move |ctx| match shared {
                Shared::Table(table) => ctx.invoke(table, &KvTableOp::Get(0)).map(drop),
                Shared::Counter(counter) => ctx.invoke(counter, &IntOp::Value).map(drop),
            })
        })
        .collect();
    for first in first_ops {
        first.join().map_err(|err| format!("first op: {err}"))?;
    }
    Ok(Cluster {
        runtime,
        shared,
        setup: started.elapsed(),
    })
}

/// One timed invocation, kept as a span when the phase is traced.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// One id per operation: client in the top byte, sequence below.
    pub trace: u64,
    pub client: u8,
    pub kind: OpKind,
    /// Start, in nanoseconds since the phase began.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What one client did in a measured phase.
#[derive(Default)]
pub struct ClientLog {
    pub reads: LatencyHist,
    pub writes: LatencyHist,
    /// Operations issued.
    pub ops: u64,
    /// Operations that failed or whose reply failed a check.
    pub failures: Failures,
    pub spans: Vec<OpSpan>,
    /// Deepest depth this client wrote per key (table workloads).
    pub written: BTreeMap<u64, i32>,
    /// `Add(1)`s acknowledged to this client (`broadcast-counter`).
    pub acked_adds: u64,
}

/// Failed operations and checks, the first few of them described.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    fn add(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }
}

/// Settings of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub length: Duration,
    /// Distinguishes the generator streams of several phases in one run.
    pub stream: u64,
    pub traced: bool,
}

/// One client process in one measured phase.
struct Client {
    index: u8,
    workload: Workload,
    seed: u64,
    phase: Phase,
    /// When the phase began; span starts count from here.
    epoch: Instant,
}

impl Client {
    fn deadline(&self) -> Instant {
        self.epoch + self.phase.length
    }

    /// Generator `stream` of this client in this phase.
    fn rng(&self, stream: u64) -> Rng {
        Rng::new(
            self.seed,
            u64::from(self.index),
            self.phase.stream * 64 + stream,
        )
    }

    fn table_ops(&self) -> KvGen {
        KvGen::new(self.rng(0), u64::from(self.index), self.phase.stream)
    }

    /// Record the latency of an operation started at `started`, and its
    /// span in a traced phase.
    fn record(&self, log: &mut ClientLog, kind: OpKind, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        match kind {
            OpKind::Read => log.reads.record(nanos),
            OpKind::Write => log.writes.record(nanos),
        }
        if self.phase.traced {
            log.spans.push(OpSpan {
                trace: (u64::from(self.index) << 56) | log.ops,
                client: self.index,
                kind,
                start_ns: (started - self.epoch).as_nanos() as u64,
                dur_ns: nanos,
            });
        }
        log.ops += 1;
    }
}

/// The result of a measured phase.
pub struct Measured {
    pub logs: Vec<ClientLog>,
    pub wall: Duration,
    pub cpu: Duration,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        self.logs.iter().map(|l| l.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failures.count).sum()
    }

    pub fn reads(&self) -> LatencyHist {
        let mut all = LatencyHist::default();
        self.logs.iter().for_each(|l| all.merge(&l.reads));
        all
    }

    pub fn writes(&self) -> LatencyHist {
        let mut all = LatencyHist::default();
        self.logs.iter().for_each(|l| all.merge(&l.writes));
        all
    }
}

/// Run both clients in a closed loop for `phase.length`.
pub fn measure(cluster: &Cluster, workload: Workload, seed: u64, phase: Phase) -> Measured {
    let cpu_before = sys::process_cpu();
    let started = Instant::now();
    let shared = cluster.shared;
    let clients: Vec<_> = CLIENT_NODES
        .iter()
        .enumerate()
        .map(|(index, &node)| {
            let client = Client {
                index: index as u8,
                workload,
                seed,
                phase,
                epoch: started,
            };
            cluster
                .runtime
                .fork_on(node, "client", move |ctx| match shared {
                    Shared::Table(table) if workload == Workload::ShardedPipelined => {
                        pipelined_client(&ctx, table, &client)
                    }
                    Shared::Table(table) => table_client(&ctx, table, &client),
                    Shared::Counter(counter) => counter_client(&ctx, counter, &client),
                })
        })
        .collect();
    let logs = clients.into_iter().map(|c| c.join()).collect();
    Measured {
        logs,
        wall: started.elapsed(),
        cpu: sys::process_cpu().saturating_sub(cpu_before),
    }
}

/// `lease-readmostly` and `adaptive-phases`: synchronous `Get`/`Put`.
fn table_client(ctx: &OrcaNode, table: ObjectHandle<KvTableObject>, client: &Client) -> ClientLog {
    let mut log = ClientLog::default();
    let mut generator = client.table_ops();
    let (workload, length) = (client.workload, client.phase.length);
    let mut current_phase = 0;
    loop {
        let now = Instant::now();
        if now >= client.deadline() {
            break;
        }
        let elapsed = now - client.epoch;
        // A fresh stream per adaptive phase keeps each phase's inputs a
        // function of the seed alone, however many operations earlier
        // phases managed.
        let index = adaptive_phase(elapsed, length);
        if workload == Workload::AdaptivePhases && index != current_phase {
            current_phase = index;
            generator.reseed(client.rng(u64::from(index)));
        }
        let op = generator.next(workload.read_fraction(elapsed, length));
        let started = Instant::now();
        let result = ctx.invoke(table, &op);
        client.record(&mut log, ctx.op_kind::<KvTableObject>(&op), started);
        match (op, result) {
            (_, Err(err)) => log.failures.add(format!("{op:?}: {err}")),
            (KvTableOp::Get(key), Ok(KvTableReply::Found(entry))) => {
                if let Some(&depth) = log.written.get(&key) {
                    if entry.depth < depth {
                        log.failures.add(format!(
                            "Get({key}) saw depth {} after own Put of depth {depth}",
                            entry.depth
                        ));
                    }
                }
            }
            (KvTableOp::Put { key, entry }, Ok(KvTableReply::Count(_))) => {
                log.written.insert(key, entry.depth);
            }
            (op, Ok(reply)) => log.failures.add(format!("{op:?} answered {reply:?}")),
        }
    }
    log
}

/// `sharded-pipelined`: a window of async `Put`s, then a synchronous
/// read-your-write `Get`.
fn pipelined_client(
    ctx: &OrcaNode,
    table: ObjectHandle<KvTableObject>,
    client: &Client,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut generator = client.table_ops();
    while Instant::now() < client.deadline() {
        let puts: Vec<KvTableOp> = (0..WINDOW).map(|_| generator.next_owned_put()).collect();
        let submitted = Instant::now();
        let futures = ctx.invoke_many(table, &puts);
        for (op, future) in puts.iter().zip(&futures) {
            let result = future.wait();
            client.record(&mut log, OpKind::Write, submitted);
            let KvTableOp::Put { key, entry } = *op else {
                unreachable!("the window holds only puts")
            };
            match result {
                Ok(KvTableReply::Count(1)) => {
                    log.written.insert(key, entry.depth);
                }
                other => log.failures.add(format!("{op:?} answered {other:?}")),
            }
        }
        // Read back one key of the window; its latest write must be there.
        let KvTableOp::Put { key, .. } = puts[generator.pick(WINDOW as u64) as usize] else {
            unreachable!("the window holds only puts")
        };
        let latest = puts.iter().rev().find_map(|op| match *op {
            KvTableOp::Put { key: k, entry } if k == key => Some(entry),
            _ => None,
        });
        let started = Instant::now();
        let result = ctx.invoke(table, &KvTableOp::Get(key));
        client.record(&mut log, OpKind::Read, started);
        match (result, latest) {
            (Ok(KvTableReply::Found(got)), Some(want)) if got == want => {}
            (other, want) => log
                .failures
                .add(format!("Get({key}) answered {other:?}, wrote {want:?}")),
        }
    }
    log
}

/// `broadcast-counter`: `Value` and `Add(1)`. A client's read never shows
/// less than what its own earlier operations returned.
fn counter_client(ctx: &OrcaNode, counter: ObjectHandle<IntObject>, client: &Client) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = client.rng(0);
    let mut seen = i64::MIN;
    while Instant::now() < client.deadline() {
        let op = counter_op(&mut rng);
        let started = Instant::now();
        let result = ctx.invoke(counter, &op);
        client.record(&mut log, ctx.op_kind::<IntObject>(&op), started);
        match result {
            Err(err) => log.failures.add(format!("{op:?}: {err}")),
            Ok(value) if value < seen => {
                log.failures.add(format!(
                    "{op:?} returned {value} after this client saw {seen}"
                ));
            }
            Ok(value) => {
                seen = value;
                if op == IntOp::Add(1) {
                    log.acked_adds += 1;
                }
            }
        }
    }
    log
}

/// Outcome of the post-run check of the object's final state.
#[derive(Debug, Default)]
pub struct FinalCheck {
    /// Operations the check invoked.
    pub ops: u64,
    pub failures: Failures,
}

/// Check the object's final state on every node against what the clients
/// were acknowledged, over all measured phases `runs`.
pub fn final_check(cluster: &Cluster, workload: Workload, runs: &[&Measured]) -> FinalCheck {
    let mut check = FinalCheck::default();
    let logs = || runs.iter().flat_map(|m| m.logs.iter());
    let contexts: Vec<&OrcaNode> = (0..NODES).map(|n| cluster.runtime.context(n)).collect();
    match cluster.shared {
        Shared::Table(table) if workload == Workload::ShardedPipelined => {
            // Each client writes only its own half of the keys.
            let distinct: BTreeSet<u64> = logs().flat_map(|l| l.written.keys().copied()).collect();
            for ctx in &contexts {
                check.ops += 1;
                match ctx.invoke(table, &KvTableOp::Len) {
                    Ok(KvTableReply::Count(n)) if n == distinct.len() as u64 => {}
                    other => check.failures.add(format!(
                        "Len on {} answered {other:?}, {} distinct keys written",
                        ctx.node(),
                        distinct.len()
                    )),
                }
            }
        }
        Shared::Table(table) => {
            let mut deepest: BTreeMap<u64, i32> = BTreeMap::new();
            for (&key, &depth) in logs().flat_map(|l| l.written.iter()) {
                let slot = deepest.entry(key).or_insert(depth);
                *slot = (*slot).max(depth);
            }
            for key in 0..TABLE_KEYS {
                let mut replies = Vec::with_capacity(NODES);
                for ctx in &contexts {
                    check.ops += 1;
                    let reply = ctx.invoke(table, &KvTableOp::Get(key));
                    replies.push(reply.map_err(|err| err.to_string()));
                }
                let agreed = replies.windows(2).all(|w| w[0] == w[1]);
                let floor = deepest.get(&key).copied().unwrap_or(0);
                match &replies[0] {
                    Ok(KvTableReply::Found(entry)) if agreed && entry.depth >= floor => {}
                    _ => check.failures.add(format!(
                        "key {key}: nodes answered {replies:?}, deepest write {floor}"
                    )),
                }
            }
        }
        Shared::Counter(counter) => {
            let acked: u64 = logs().map(|l| l.acked_adds).sum();
            for ctx in &contexts {
                // A write orders this node after every acknowledged Add, so
                // its replica must hold them all.
                check.ops += 2;
                let barrier = ctx.invoke(counter, &IntOp::Add(0));
                let value = ctx.invoke(counter, &IntOp::Value);
                match (&barrier, &value) {
                    (Ok(_), Ok(v)) if *v == acked as i64 => {}
                    _ => check.failures.add(format!(
                        "{}: barrier {barrier:?}, value {value:?}, acked adds {acked}",
                        ctx.node()
                    )),
                }
            }
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed() {
        let a = sample_kv_ops(Workload::LeaseReadmostly, 7, 256);
        let b = sample_kv_ops(Workload::LeaseReadmostly, 7, 256);
        let c = sample_kv_ops(Workload::LeaseReadmostly, 8, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(sample_counter_ops(3, 64), sample_counter_ops(3, 64));
    }

    #[test]
    fn read_mix_matches_the_workload() {
        let reads = |ops: &[KvTableOp]| {
            ops.iter()
                .filter(|op| matches!(op, KvTableOp::Get(_)))
                .count() as f64
                / ops.len() as f64
        };
        let lease = sample_kv_ops(Workload::LeaseReadmostly, 1, 20_000);
        assert!((reads(&lease) - 0.95).abs() < 0.01);
        let adaptive = sample_kv_ops(Workload::AdaptivePhases, 1, 20_000);
        assert!((reads(&adaptive) - (0.95 + 0.20) / 2.0).abs() < 0.02);
        let counter = sample_counter_ops(1, 20_000);
        let values = counter.iter().filter(|op| **op == IntOp::Value).count();
        assert!((values as f64 / 20_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn sharded_clients_write_disjoint_keys() {
        let mut zero = KvGen::new(Rng::new(5, 0, 0), 0, 0);
        let mut one = KvGen::new(Rng::new(5, 1, 0), 1, 0);
        for _ in 0..1000 {
            let (KvTableOp::Put { key: a, .. }, KvTableOp::Put { key: b, .. }) =
                (zero.next_owned_put(), one.next_owned_put())
            else {
                panic!("puts expected");
            };
            assert!(a % 2 == 0 && b % 2 == 1 && a < SHARDED_KEYS && b < SHARDED_KEYS);
        }
    }

    #[test]
    fn adaptive_phases_alternate() {
        let length = Duration::from_secs(8);
        let mix: Vec<f64> = (0..6)
            .map(|i| {
                Workload::AdaptivePhases
                    .read_fraction(Duration::from_millis(700 + 1333 * i), length)
            })
            .collect();
        assert_eq!(mix, [0.95, 0.2, 0.95, 0.2, 0.95, 0.2]);
        assert_eq!(adaptive_phase(length * 2, length), ADAPTIVE_PHASES - 1);
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
