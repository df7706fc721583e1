//! Sans-io distributed mutual exclusion protocol state machines.
//!
//! This crate implements the rotating-arbiter token-passing algorithm of
//! *"A New Token Passing Distributed Mutual Exclusion Algorithm"*
//! (Banerjee & Chrysanthis, ICDCS 1996) — see [`arbiter`] — together with
//! the classic algorithms it is evaluated against:
//!
//! * [`ricart_agrawala`] — Ricart–Agrawala permission-based algorithm
//!   (`2(N−1)` messages per critical section);
//! * [`suzuki_kasami`] — Suzuki–Kasami broadcast token algorithm
//!   (`≈ N` messages);
//! * [`raymond`] — Raymond's tree-based token algorithm (`≈ 4` at heavy
//!   load, `O(log N)` typical);
//! * [`singhal`] — Singhal's dynamic information-structure algorithm;
//! * [`maekawa`] — Maekawa's √N quorum algorithm (with the full
//!   FAILED/INQUIRE/YIELD deadlock-avoidance machinery);
//! * [`centralized`] — a trivial central-coordinator baseline (3 messages).
//!
//! [`rng`] holds the one seeded generator (SplitMix64) that the simulator
//! and the threaded runtime both draw from.
//!
//! Every algorithm is a *pure state machine* implementing [`api::Protocol`]:
//! it consumes [`event::Input`]s and emits [`event::Action`]s, never
//! touching clocks, sockets, or threads. The `tokq-simnet` crate drives
//! these machines under a deterministic discrete-event network to reproduce
//! the paper's figures; the `tokq-core` crate drives the same machines on
//! real threads as a usable distributed lock.
//!
//! # Example
//!
//! Driving a three-node arbiter system by hand (what the simulator
//! automates):
//!
//! ```
//! use tokq_protocol::api::{Protocol, ProtocolFactory};
//! use tokq_protocol::arbiter::{ArbiterConfig, ArbiterMsg, ArbiterTimer};
//! use tokq_protocol::event::{Action, Input};
//! use tokq_protocol::types::NodeId;
//!
//! let cfg = ArbiterConfig::basic();
//! let mut nodes = cfg.build_all(3);
//! for node in &mut nodes {
//!     node.step(Input::Start);
//! }
//! // Node 1 requests its critical section: it sends REQUEST to node 0,
//! // the initial arbiter.
//! let actions = nodes[1].step(Input::RequestCs);
//! assert!(actions.iter().any(|a| matches!(
//!     a,
//!     Action::Send { to: NodeId(0), msg: ArbiterMsg::Request { .. } }
//! )));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod api;
pub mod arbiter;
pub mod centralized;
pub mod event;
pub mod maekawa;
pub mod qlist;
pub mod raymond;
pub mod ricart_agrawala;
pub mod rng;
pub mod singhal;
pub mod suzuki_kasami;
pub mod types;

pub use api::{Protocol, ProtocolFactory, ProtocolMessage};
pub use event::{Action, Input, Note};
pub use types::{NodeId, Priority, SeqNum, TimeDelta};
