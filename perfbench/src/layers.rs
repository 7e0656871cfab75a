//! Per-layer numbers, measured from outside the runtime: deltas of the
//! counters and histograms the program already registers, and timed calls
//! into each layer's public functions.
//!
//! [`METRICS`] names every per-layer metric together with the end-to-end
//! metric and workload it is predicted to move.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orca_amoeba::rpc::{rpc_call, RpcServer};
use orca_amoeba::{ports, NetStatsSnapshot, NetworkHandle, NodeId, SocketTransport, Transport};
use orca_core::OrcaRuntime;
use orca_group::{GroupConfig, GroupMember};
use orca_object::{ObjectType, OpOutcome};
use orca_rts::RtsStatsSnapshot;
use orca_telemetry::{HistSnapshot, RegistrySnapshot};
use orca_wire::Wire;

use crate::stats::median;

/// One per-layer metric and the end-to-end metric it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

/// Every per-layer metric of a traced run, in report order.
pub const METRICS: [LayerMetric; 25] = [
    metric("wire.encode_ns", "ns", "read_p50_us on lease-readmostly"),
    metric("wire.decode_ns", "ns", "read_p50_us on lease-readmostly"),
    metric(
        "wire.bytes_per_op",
        "B/op",
        "ops_per_s on sharded-pipelined",
    ),
    metric(
        "object.apply_ns",
        "ns",
        "read_p50_us on lease-readmostly and adaptive-phases",
    ),
    metric(
        "transport.msgs_per_op",
        "msg/op",
        "write_p50_us on lease-readmostly",
    ),
    metric(
        "transport.tcp_frames_per_op",
        "frame/op",
        "ops_per_s on sharded-pipelined",
    ),
    metric(
        "transport.udp_datagrams_per_op",
        "datagram/op",
        "write_p50_us on broadcast-counter",
    ),
    metric("transport.errors", "count", "error_rate on every workload"),
    metric(
        "rpc.null_rtt_us",
        "us",
        "write_p50_us on lease-readmostly, read_p50_us on sharded-pipelined",
    ),
    metric(
        "group.bcast_us",
        "us",
        "write_p50_us and write_p99_us on broadcast-counter",
    ),
    metric(
        "group.msgs_per_bcast",
        "msg/bcast",
        "write_p50_us and write_p99_us on broadcast-counter",
    ),
    metric(
        "group.retransmit_requests",
        "count",
        "write_p50_us and write_p99_us on broadcast-counter",
    ),
    metric(
        "rts.pipeline.queue_us",
        "us",
        "write_p50_us and ops_per_s on sharded-pipelined",
    ),
    metric(
        "rts.pipeline.service_us",
        "us",
        "write_p50_us and ops_per_s on sharded-pipelined",
    ),
    metric(
        "rts.ops_per_batch",
        "op/batch",
        "write_p50_us and ops_per_s on sharded-pipelined",
    ),
    metric(
        "rts.lease.local_read_frac",
        "ratio",
        "read_p50_us on lease-readmostly",
    ),
    metric(
        "rts.lease.renewals_per_write",
        "1/write",
        "write_p50_us on lease-readmostly",
    ),
    metric(
        "rts.lease.revokes_per_write",
        "1/write",
        "write_p50_us on lease-readmostly",
    ),
    metric(
        "rts.copies_fetched",
        "count",
        "write_p50_us on lease-readmostly",
    ),
    metric("rts.remote_frac", "ratio", "ops_per_s on sharded-pipelined"),
    metric(
        "rts.regime_switches",
        "count",
        "write_p99_us and ops_per_s on adaptive-phases",
    ),
    metric(
        "rts.guard_retries",
        "count",
        "write_p99_us and ops_per_s on adaptive-phases",
    ),
    metric(
        "core.invoke_sync_us",
        "us",
        "read_p50_us and write_p50_us everywhere; its gap to them is the benchmark's own overhead",
    ),
    metric(
        "trace.overhead_read_p50_us",
        "us",
        "nothing: traced minus untraced read_p50_us",
    ),
    metric(
        "trace.overhead_write_p50_us",
        "us",
        "nothing: traced minus untraced write_p50_us",
    ),
];

/// Counters of a running cluster at one instant.
pub struct Counters {
    registry: RegistrySnapshot,
    net: NetStatsSnapshot,
    rts: Vec<RtsStatsSnapshot>,
}

impl Counters {
    pub fn take(runtime: &OrcaRuntime) -> Counters {
        Counters {
            registry: runtime.telemetry().registry().snapshot(),
            net: runtime.network_stats(),
            rts: runtime.rts_stats(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of `transport.node*.<suffix>` over the cluster.
    fn transport(&self, suffix: &str) -> u64 {
        self.registry
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("transport.node") && name.ends_with(suffix))
            .map(|(_, value)| value)
            .sum()
    }

    fn rts_sum(&self, field: impl Fn(&RtsStatsSnapshot) -> u64) -> u64 {
        self.rts.iter().map(field).sum()
    }

    fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.registry.hists.get(name)
    }

    /// Samples in the program's histogram `name` so far.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |h| h.count)
    }
}

/// What the clients did in the counted interval.
pub struct Work {
    pub ops: u64,
    pub reads: u64,
    pub writes: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics from the counter deltas between `before` and `after`.
/// The program's histograms cannot be differenced, so their percentiles
/// cover the whole run.
pub fn counter_metrics(
    before: &Counters,
    after: &Counters,
    work: &Work,
) -> Vec<(&'static str, f64)> {
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let transport = |suffix: &str| {
        after
            .transport(suffix)
            .saturating_sub(before.transport(suffix))
    };
    let rts = |field: fn(&RtsStatsSnapshot) -> u64| {
        after.rts_sum(field).saturating_sub(before.rts_sum(field))
    };
    let net = after.net.since(&before.net);
    let hist_us = |name: &str| after.hist(name).map_or(0.0, |h| interpolated_p50(h) / 1e3);
    vec![
        ("wire.bytes_per_op", ratio(net.total_wire_bytes(), work.ops)),
        (
            "transport.msgs_per_op",
            ratio(net.total_messages(), work.ops),
        ),
        (
            "transport.tcp_frames_per_op",
            ratio(transport(".tcp.frames_sent"), work.ops),
        ),
        (
            "transport.udp_datagrams_per_op",
            ratio(transport(".udp.datagrams_sent"), work.ops),
        ),
        (
            "transport.errors",
            (transport(".tcp.send_failures")
                + transport(".tcp.reconnects")
                + transport(".decode_errors")) as f64,
        ),
        ("rts.pipeline.queue_us", hist_us("rts.pipeline.queue_ns")),
        (
            "rts.pipeline.service_us",
            hist_us("rts.pipeline.service_ns"),
        ),
        (
            "rts.ops_per_batch",
            ratio(rts(|s| s.ops_batched), rts(|s| s.batches_sent)),
        ),
        (
            "rts.lease.local_read_frac",
            ratio(delta("rts.lease.local_reads"), work.reads),
        ),
        (
            "rts.lease.renewals_per_write",
            ratio(delta("rts.lease.renewals"), work.writes),
        ),
        (
            "rts.lease.revokes_per_write",
            ratio(delta("rts.lease.revokes"), work.writes),
        ),
        ("rts.copies_fetched", rts(|s| s.copies_fetched) as f64),
        (
            "rts.remote_frac",
            ratio(rts(|s| s.remote_reads) + rts(|s| s.remote_writes), work.ops),
        ),
        ("rts.regime_switches", rts(|s| s.regime_switches) as f64),
        ("rts.guard_retries", rts(|s| s.guard_retries) as f64),
        ("core.invoke_sync_us", hist_us("rts.invoke.sync_ns")),
    ]
}

/// The program's histograms report a percentile as the top of its bucket
/// (buckets are up to 1/16 of their value wide). Spread the rank's samples
/// evenly over the bucket instead, so a p50 moves with the data rather
/// than in 6% steps.
pub fn interpolated_p50(hist: &HistSnapshot) -> f64 {
    let n = hist.count;
    if n == 0 {
        return 0.0;
    }
    let rank = n.div_ceil(2);
    // `value_at` of the quantile `(k - 0.5) / n` is the bucket top of the
    // k-th smallest sample.
    let at = |k: u64| hist.value_at((k as f64 - 0.5) / n as f64);
    let top = at(rank);
    // Samples below the bucket, and the last rank inside it.
    let below = partition_point(0, rank, |k| k == 0 || at(k) < top);
    let last = partition_point(rank, n, |k| at(k) <= top);
    let magnitude = (63 - top.max(1).leading_zeros()).saturating_sub(4);
    let bottom = if top < 32 {
        top
    } else {
        (top >> magnitude) << magnitude
    };
    let width = (top - bottom + 1) as f64;
    let inside = (last - below) as f64;
    bottom as f64 + width * ((rank - below) as f64 - 0.5) / inside
}

/// The largest `k` in `lo..=hi` with `pred(k)`, for `pred` true up to some
/// point and false after; `pred(lo)` must hold.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// A timed probe call, kept as a span in traced runs.
#[derive(Debug, Clone)]
pub struct ProbeSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Times calls into one layer and keeps a span per call.
pub struct Prober {
    epoch: Instant,
    pub spans: Vec<ProbeSpan>,
}

/// Operations timed together, so a timer read (tens of nanoseconds) does
/// not swamp a call that takes about as long.
const BLOCK: usize = 64;

impl Prober {
    pub fn new(epoch: Instant) -> Prober {
        Prober {
            epoch,
            spans: Vec::new(),
        }
    }

    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> (R, Duration) {
        let started = Instant::now();
        let result = call();
        let took = started.elapsed();
        self.spans.push(ProbeSpan {
            name,
            start_ns: (started - self.epoch).as_nanos() as u64,
            dur_ns: took.as_nanos() as u64,
        });
        (result, took)
    }

    /// Median per-item nanoseconds of `per_item` over blocks of `items`.
    fn per_item_ns<T>(
        &mut self,
        name: &'static str,
        items: &[T],
        mut per_item: impl FnMut(&T),
    ) -> f64 {
        let samples: Vec<f64> = items
            .chunks(BLOCK)
            .map(|block| {
                let ((), took) = self.timed(name, || block.iter().for_each(&mut per_item));
                took.as_nanos() as f64 / block.len() as f64
            })
            .collect();
        median(&samples)
    }

    /// `wire.encode_ns`, `wire.decode_ns` and `object.apply_ns` on the
    /// workload's own operations, applied to a private copy of `state`.
    pub fn codec_and_apply<T: ObjectType>(
        &mut self,
        ops: &[T::Op],
        state: &T::State,
    ) -> [(&'static str, f64); 3] {
        let mut scratch = state.clone();
        let replies: Vec<Vec<u8>> = ops
            .iter()
            .map(|op| match T::apply(&mut scratch, op) {
                OpOutcome::Done(reply) => reply.to_bytes(),
                OpOutcome::Blocked => unreachable!("benchmark operations carry no guards"),
            })
            .collect();
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        let mut apply = Vec::new();
        // Several passes, so one descheduled block cannot move the median.
        for _ in 0..4 {
            encode.push(self.per_item_ns("wire.encode", ops, |op| {
                std::hint::black_box(std::hint::black_box(op).to_bytes());
            }));
            decode.push(self.per_item_ns("wire.decode", &replies, |bytes| {
                std::hint::black_box(T::Reply::from_bytes(std::hint::black_box(bytes)).ok());
            }));
            let mut copy = state.clone();
            apply.push(self.per_item_ns("object.apply", ops, |op| {
                std::hint::black_box(T::apply(&mut copy, std::hint::black_box(op)).is_done());
            }));
        }
        [
            ("wire.encode_ns", median(&encode)),
            ("wire.decode_ns", median(&decode)),
            ("object.apply_ns", median(&apply)),
        ]
    }

    /// `rpc.null_rtt_us`: p50 of an empty-bodied `rpc_call` between two
    /// fresh loopback socket transports.
    pub fn null_rpc(&mut self, calls: usize) -> Result<f64, String> {
        let transports = SocketTransport::start_loopback_cluster(2).map_err(|e| e.to_string())?;
        let handles: Vec<NetworkHandle> = transports.iter().map(handle).collect();
        let server = RpcServer::serve(handles[1].clone(), ports::USER_BASE, |_, _| Vec::new());
        let mut rtts = Vec::with_capacity(calls);
        let mut outcome = Ok(());
        for i in 0..calls + calls / 10 {
            let (reply, took) = self.timed("rpc.null", || {
                rpc_call(&handles[0], NodeId(1), ports::USER_BASE, Vec::new())
            });
            if let Err(err) = reply {
                outcome = Err(format!("null rpc: {err}"));
                break;
            }
            // The first tenth warms the connection and is not counted.
            if i >= calls / 10 {
                rtts.push(took.as_secs_f64() * 1e6);
            }
        }
        server.shutdown();
        outcome.map(|()| median(&rtts))
    }

    /// `group.bcast_us` (p50 from `GroupMember::broadcast` to the sender's
    /// own delivery), `group.msgs_per_bcast` and
    /// `group.retransmit_requests`, in a fresh 3-member loopback group.
    pub fn group_broadcast(
        &mut self,
        broadcasts: usize,
    ) -> Result<[(&'static str, f64); 3], String> {
        let transports = SocketTransport::start_loopback_cluster(3).map_err(|e| e.to_string())?;
        let members: Vec<GroupMember> = transports
            .iter()
            .map(|t| GroupMember::start(handle(t), GroupConfig::default()))
            .collect();
        let sent = || -> u64 {
            transports
                .iter()
                .enumerate()
                .map(|(i, t)| t.stats().per_node[i].messages_sent())
                .sum()
        };
        let retransmits = || -> u64 { members.iter().map(|m| m.stats().retransmit_requests).sum() };
        let warmup = broadcasts / 10;
        let mut latencies = Vec::with_capacity(broadcasts);
        let (mut sent_before, mut retransmits_before) = (0, 0);
        let mut outcome = Ok(());
        for i in 0..warmup + broadcasts {
            if i == warmup {
                sent_before = sent();
                retransmits_before = retransmits();
            }
            let payload = (i as u64).to_le_bytes().to_vec();
            let (delivered, took) = self.timed("group.broadcast", || {
                members[0]
                    .broadcast(payload.clone())
                    .map_err(|e| e.to_string())?;
                // Only member 0 broadcasts, one at a time: its next
                // delivery is this message.
                let got = members[0]
                    .recv_timeout(Duration::from_secs(10))
                    .map_err(|e| e.to_string())?;
                if got.payload == payload {
                    Ok(())
                } else {
                    Err(format!(
                        "delivered {:?}, broadcast {payload:?}",
                        got.payload
                    ))
                }
            });
            if let Err(err) = delivered {
                outcome = Err(format!("group broadcast: {err}"));
                break;
            }
            for member in &members[1..] {
                while member.try_recv().is_some() {}
            }
            if i >= warmup {
                latencies.push(took.as_secs_f64() * 1e6);
            }
        }
        let metrics = outcome.map(|()| {
            [
                ("group.bcast_us", median(&latencies)),
                (
                    "group.msgs_per_bcast",
                    ratio(sent() - sent_before, broadcasts as u64),
                ),
                (
                    "group.retransmit_requests",
                    (retransmits() - retransmits_before) as f64,
                ),
            ]
        });
        for member in members {
            member.shutdown();
        }
        metrics
    }
}

fn handle(transport: &Arc<SocketTransport>) -> NetworkHandle {
    NetworkHandle::from_transport(Arc::clone(transport) as Arc<dyn Transport>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_telemetry::Hist;

    #[test]
    fn interpolated_median_follows_the_data_inside_a_bucket() {
        // 1024..=1087 is one bucket of the program's histogram layout; the
        // median falls inside it, at a lower rank for `low` than for `high`.
        let low = Hist::new();
        let high = Hist::new();
        for i in 0..100 {
            low.record(if i < 40 { 100 } else { 1030 });
            high.record(if i < 10 { 100 } else { 1030 });
        }
        // Keep the exact maximum out of the bucket, so both report its top.
        low.record(5000);
        high.record(5000);
        let (low, high) = (low.snapshot(), high.snapshot());
        assert_eq!(low.p50(), high.p50(), "same bucket top");
        let (a, b) = (interpolated_p50(&low), interpolated_p50(&high));
        assert!(a < b, "{a} < {b}");
        assert!((1024.0..=1088.0).contains(&a) && (1024.0..=1088.0).contains(&b));
        // Exact in the linear range.
        let small = Hist::new();
        [3, 5, 7].into_iter().for_each(|v| small.record(v));
        assert_eq!(interpolated_p50(&small.snapshot()), 5.5);
        assert_eq!(interpolated_p50(&Hist::new().snapshot()), 0.0);
    }

    #[test]
    fn every_metric_is_named_once() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }

    #[test]
    fn probes_run_over_loopback() {
        let mut prober = Prober::new(Instant::now());
        let rtt = prober.null_rpc(20).unwrap();
        assert!(rtt > 0.0);
        let [(_, bcast), (_, msgs), _] = prober.group_broadcast(20).unwrap();
        assert!(bcast > 0.0 && msgs >= 1.0, "{bcast} {msgs}");
        assert!(prober.spans.len() >= 44);
    }
}
