//! Per-layer measurements taken from outside the program: timed calls
//! into the wire codec, the channel transport and the metrics registry,
//! plus deltas of the counters and histograms the runtime already keeps.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crossbeam::channel::unbounded;
use tokq_core::transport::{ChannelTransport, Envelope, NetOptions};
use tokq_core::{wire, ShardId};
use tokq_obs::{Registry, Snapshot};
use tokq_protocol::arbiter::{ArbiterMsg, Token};
use tokq_protocol::qlist::{Entry, QList};
use tokq_protocol::types::{NodeId, Priority, SeqNum};

use crate::stats::median;

/// Message kinds whose codec and handler cost the benchmark reports.
pub const CODEC_KINDS: [&str; 3] = ["REQUEST", "PRIVILEGE", "NEW-ARBITER"];

/// A representative message of `kind` for an `n`-node system; the token
/// and the NEW-ARBITER broadcast carry a full `n`-entry Q-list.
fn sample_msg(kind: &str, n: usize) -> ArbiterMsg {
    let mut q = QList::new();
    for i in 0..n {
        q.push_back(Entry::new(NodeId::from_index(i), SeqNum(1_000 + i as u64)));
    }
    match kind {
        "REQUEST" => ArbiterMsg::Request {
            requester: NodeId(1),
            seq: SeqNum(1_234),
            priority: Priority(0),
            hops: 0,
        },
        "PRIVILEGE" => {
            let mut token = Token::initial(n);
            token.q = q;
            token.round = 4_321;
            ArbiterMsg::Privilege(token)
        }
        "NEW-ARBITER" => ArbiterMsg::NewArbiter {
            arbiter: NodeId::from_index(n - 1),
            q,
            prev: NodeId(0),
            round: 4_321,
            counter: 2,
            epoch: 0,
            monitor: None,
        },
        other => unreachable!("no sample for message kind {other}"),
    }
}

/// Mean nanoseconds per call of `f`, as the median of `reps` timed loops
/// of `iters` calls each.
fn per_call_ns(reps: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&samples)
}

/// `wire.encode_ns.<kind>` and `wire.decode_ns.<kind>` for an `n`-node
/// system, also checking that every frame decodes back to its message.
pub fn wire_codec(n: usize, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
    for kind in CODEC_KINDS {
        let msg = sample_msg(kind, n);
        let frame = wire::encode(ShardId(0), &msg);
        match wire::decode(&frame) {
            Ok((ShardId(0), ref back)) if *back == msg => {}
            other => return Err(format!("{kind} frame did not round-trip: {other:?}")),
        }
        let enc = per_call_ns(5, 20_000, || {
            black_box(wire::encode(black_box(ShardId(0)), black_box(&msg)));
        });
        let dec = per_call_ns(5, 20_000, || {
            let _ = black_box(wire::decode(black_box(&frame)));
        });
        out.insert(format!("wire.encode_ns.{kind}"), enc);
        out.insert(format!("wire.decode_ns.{kind}"), dec);
    }
    Ok(())
}

/// `transport.chan_hop_ns`: median time from `ChannelTransport::send` on
/// this thread to the frame's receipt on another thread, one frame in
/// flight at a time, on inboxes the benchmark owns.
pub fn chan_hop_ns(hops: usize) -> f64 {
    let (inbox_tx, inbox_rx) = unbounded::<Envelope>();
    let (spare_tx, _spare_rx) = unbounded::<Envelope>();
    let (ack_tx, ack_rx) = unbounded::<Instant>();
    let transport = ChannelTransport::new(vec![spare_tx, inbox_tx], NetOptions::instant());
    let frame = wire::encode(ShardId(0), &sample_msg("REQUEST", 2));
    let samples = std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(env) = inbox_rx.recv() {
                let got = Instant::now();
                black_box(env);
                if ack_tx.send(got).is_err() {
                    return;
                }
            }
        });
        let mut samples = Vec::with_capacity(hops);
        for _ in 0..hops {
            let sent = Instant::now();
            transport.send(Envelope {
                from: NodeId(0),
                to: NodeId(1),
                frame: frame.clone(),
            });
            let got = ack_rx.recv().expect("receiver thread is alive");
            samples.push(got.duration_since(sent).as_nanos() as f64);
        }
        // Dropping the transport closes the inbox and ends the receiver.
        drop(transport);
        samples
    });
    median(&samples)
}

/// `obs.lookup_ns` and `obs.held_ns`: a counter increment through a
/// registry lookup by name versus through a held handle, on `registry`.
pub fn obs_lookup(registry: &Registry, out: &mut BTreeMap<String, f64>) {
    let held = registry.counter_with("perfbench_probe", "held");
    let lookup = per_call_ns(5, 50_000, || {
        registry
            .counter_with(black_box("perfbench_probe"), black_box("lookup"))
            .inc();
    });
    let held_ns = per_call_ns(5, 50_000, || black_box(&held).inc());
    out.insert("obs.lookup_ns".into(), lookup);
    out.insert("obs.held_ns".into(), held_ns);
}

/// Two registry snapshots: the runtime's own counters and histograms at
/// the start and end of a measured segment.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn start(registry: &Registry) -> Self {
        let before = registry.snapshot();
        Delta {
            after: before.clone(),
            before,
        }
    }

    pub fn finish(&mut self, registry: &Registry) {
        self.after = registry.snapshot();
    }

    /// Growth of counter `name` over the segment.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before))
    }

    /// Value of counter `name` at the end of the segment.
    pub fn counter_end(&self, name: &str) -> u64 {
        self.after.counters.get(name).copied().unwrap_or(0)
    }

    /// Growth of counters under `prefix/`, by label.
    pub fn counters_under(&self, prefix: &str) -> BTreeMap<String, u64> {
        let p = format!("{prefix}/");
        self.after
            .counters
            .keys()
            .filter_map(|k| k.strip_prefix(&p))
            .map(|label| (label.to_owned(), self.counter(&format!("{p}{label}"))))
            .collect()
    }

    /// Mean of the samples histogram `name` recorded during the segment.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let ((count0, sum0), (count1, sum1)) = (get(&self.before), get(&self.after));
        let count = count1.saturating_sub(count0);
        if count == 0 {
            0.0
        } else {
            sum1.saturating_sub(sum0) as f64 / count as f64
        }
    }

    /// Value of gauge `name` at the end of the segment.
    pub fn gauge_end(&self, name: &str) -> i64 {
        self.after.gauges.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_layer_reports_every_kind() {
        let mut out = BTreeMap::new();
        wire_codec(4, &mut out).expect("frames round-trip");
        for kind in CODEC_KINDS {
            assert!(out[&format!("wire.encode_ns.{kind}")] > 0.0);
            assert!(out[&format!("wire.decode_ns.{kind}")] > 0.0);
        }
    }

    #[test]
    fn chan_hop_is_measured() {
        assert!(chan_hop_ns(50) > 0.0);
    }
}
