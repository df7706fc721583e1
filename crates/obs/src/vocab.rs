//! The trace vocabulary shared by everything that runs the protocol.
//!
//! The discrete-event simulator, the model checker and the threaded
//! runtime all name what happens at a node through one [`TraceKind`], so
//! their event streams use the same names, targets and levels by
//! construction and diff line for line apart from the `ts`/`src` stamps.
//! [`timeline`] renders any such stream as one readable line per event
//! (the paper's Figure 2 walkthrough is printed this way).

use std::fmt::Write;

use serde::value::Value;

use crate::event::Event;
use crate::json;
use crate::level::Level;

/// One observable occurrence at a node.
///
/// Node ids are plain `u32`s (the protocol's `NodeId` payload) and every
/// label is `&'static str`, so building a `TraceKind` never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An application request arrived at the node.
    Arrival,
    /// The node transmitted a message.
    Sent {
        /// Destination node.
        to: u32,
        /// Message kind label (e.g. `REQUEST`).
        kind: &'static str,
    },
    /// The node received a message.
    Received {
        /// Source node.
        from: u32,
        /// Message kind label.
        kind: &'static str,
    },
    /// The node entered its critical section.
    EnterCs,
    /// The node exited its critical section.
    ExitCs,
    /// A protocol note, named by its label (e.g. `qlist_sealed`).
    Note(&'static str),
    /// The model checker injected a fault into an in-flight message.
    Injected {
        /// Event name of the injection (`checker_dropped`,
        /// `checker_duplicated`).
        fault: &'static str,
        /// Kind label of the affected message.
        kind: &'static str,
    },
    /// The node crashed.
    Crashed,
    /// The node recovered.
    Recovered,
}

impl TraceKind {
    /// The stable event name.
    fn name(&self) -> &'static str {
        match *self {
            TraceKind::Arrival => "arrival",
            TraceKind::Sent { .. } => "msg_sent",
            TraceKind::Received { .. } => "msg_recv",
            TraceKind::EnterCs => "cs_granted",
            TraceKind::ExitCs => "cs_released",
            TraceKind::Note(label) => label,
            TraceKind::Injected { fault, .. } => fault,
            TraceKind::Crashed => "crashed",
            TraceKind::Recovered => "recovered",
        }
    }

    /// The `TOKQ_TRACE` target: `net` for wire traffic, `arbiter` for
    /// protocol notes, `fault` for injections, `node` otherwise.
    pub fn target(&self) -> &'static str {
        match self {
            TraceKind::Sent { .. } | TraceKind::Received { .. } => "net",
            TraceKind::Note(_) => "arbiter",
            TraceKind::Injected { .. } => "fault",
            _ => "node",
        }
    }

    /// The verbosity level.
    pub fn level(&self) -> Level {
        match self {
            TraceKind::Sent { .. } | TraceKind::Received { .. } => Level::Trace,
            TraceKind::Crashed | TraceKind::Recovered | TraceKind::Injected { .. } => Level::Info,
            _ => Level::Debug,
        }
    }

    /// The event for this occurrence at `node`; emitters stamp `ts`/`src`
    /// and may add their own fields (shard, byte counts, waits).
    pub fn event(&self, node: u32) -> Event {
        let ev = Event::new(self.target(), self.level(), self.name()).node(u64::from(node));
        match *self {
            TraceKind::Sent { to, kind } => ev.field("to", &to).field("kind", &kind),
            TraceKind::Received { from, kind } => ev.field("from", &from).field("kind", &kind),
            TraceKind::Injected { kind, .. } => ev.field("kind", &kind),
            _ => ev,
        }
    }
}

/// Renders `events` as a timeline, one line per event:
/// `t=0.310000s   n1 ENTERS critical section`.
pub fn timeline(events: &[Event]) -> String {
    let field = |ev: &Event, key: &str| match ev.field_value(key) {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => json::render(v),
        None => "?".to_owned(),
    };
    let mut out = String::new();
    for ev in events {
        let node = ev.node.map_or_else(|| "-".to_owned(), |n| format!("n{n}"));
        let what = match ev.name.as_str() {
            "arrival" => "request arrives".to_owned(),
            "msg_sent" => format!("sends {} to n{}", field(ev, "kind"), field(ev, "to")),
            "msg_recv" => format!("receives {} from n{}", field(ev, "kind"), field(ev, "from")),
            "cs_granted" => "ENTERS critical section".to_owned(),
            "cs_released" => "exits critical section".to_owned(),
            "crashed" => "CRASHES".to_owned(),
            "recovered" => "recovers".to_owned(),
            name => format!("[{name}]"),
        };
        let _ = writeln!(out, "t={:.6}s {node:>4} {what}", ev.ts);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    fn all_kinds() -> [TraceKind; 9] {
        [
            TraceKind::Arrival,
            TraceKind::Sent {
                to: 4,
                kind: "PRIVILEGE",
            },
            TraceKind::Received {
                from: 1,
                kind: "REQUEST",
            },
            TraceKind::EnterCs,
            TraceKind::ExitCs,
            TraceKind::Note("qlist_sealed"),
            TraceKind::Injected {
                fault: "checker_dropped",
                kind: "PRIVILEGE",
            },
            TraceKind::Crashed,
            TraceKind::Recovered,
        ]
    }

    #[test]
    fn name_table_is_pinned() {
        let table: Vec<(&str, &str, Level)> = all_kinds()
            .iter()
            .map(|k| (k.name(), k.target(), k.level()))
            .collect();
        assert_eq!(
            table,
            [
                ("arrival", "node", Level::Debug),
                ("msg_sent", "net", Level::Trace),
                ("msg_recv", "net", Level::Trace),
                ("cs_granted", "node", Level::Debug),
                ("cs_released", "node", Level::Debug),
                ("qlist_sealed", "arbiter", Level::Debug),
                ("checker_dropped", "fault", Level::Info),
                ("crashed", "node", Level::Info),
                ("recovered", "node", Level::Info),
            ]
        );
    }

    #[test]
    fn jsonl_roundtrips_every_kind() {
        for kind in all_kinds() {
            let mut ev = kind.event(3);
            ev.ts = 1.234_567_89;
            ev.src = Source::Sim;
            let line = ev.to_jsonl();
            let back = Event::from_jsonl(&line).expect("jsonl parse");
            assert_eq!(back, ev, "lossy JSONL for {line}");
            assert_eq!(back.node, Some(3));
            assert_eq!(back.name, kind.name());
        }
    }

    #[test]
    fn timeline_reads_naturally() {
        let mut ev = TraceKind::Sent {
            to: 4,
            kind: "PRIVILEGE",
        }
        .event(2);
        ev.ts = 1.5;
        assert_eq!(timeline(&[ev]), "t=1.500000s   n2 sends PRIVILEGE to n4\n");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn kind_strategy() -> BoxedStrategy<TraceKind> {
            let msg = || prop_oneof![Just("REQUEST"), Just("PRIVILEGE"), Just("NEW-ARBITER")];
            prop_oneof![
                Just(TraceKind::Arrival),
                (0u32..64, msg()).prop_map(|(to, kind)| TraceKind::Sent { to, kind }),
                (0u32..64, msg()).prop_map(|(from, kind)| TraceKind::Received { from, kind }),
                Just(TraceKind::EnterCs),
                Just(TraceKind::ExitCs),
                Just(TraceKind::Note("token_regenerated")),
                // Exercises JSON string escaping in the JSONL schema.
                Just(TraceKind::Note("weird \"label\"\n\t\\x")),
                msg().prop_map(|kind| TraceKind::Injected {
                    fault: "checker_duplicated",
                    kind
                }),
                Just(TraceKind::Crashed),
                Just(TraceKind::Recovered),
            ]
            .boxed()
        }

        proptest! {
            #[test]
            fn jsonl_reparse_is_lossless(
                at_ns in 0u64..2_000_000_000_000,
                node in 0u32..128,
                kind in kind_strategy(),
            ) {
                let mut ev = kind.event(node);
                ev.ts = at_ns as f64 / 1e9;
                ev.src = Source::Sim;
                let reparsed = Event::from_jsonl(&ev.to_jsonl()).expect("jsonl");
                prop_assert_eq!(reparsed, ev);
            }
        }
    }
}
