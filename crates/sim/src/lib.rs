//! # ddp-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the Distributed Data Persistency (DDP) evaluation: a
//! small, fully deterministic discrete-event simulator. The paper evaluates
//! its protocols on SST + DRAMSim2 driven by Pin traces; this crate plays the
//! SST role — it owns simulated time, the pending-event set, and the
//! dispatch loop, while domain models (network, memory, protocol engines)
//! live in the other `ddp-*` crates and plug in through the [`Model`] trait.
//!
//! Determinism guarantees:
//!
//! * events at equal timestamps dispatch in push order ([`EventQueue`]);
//! * all randomness flows through [`SimRng`], a self-contained xoshiro256++
//!   implementation whose stream never changes between builds;
//! * time is integral nanoseconds ([`SimTime`]), so no floating-point drift.
//!
//! # Quick example
//!
//! ```
//! use ddp_sim::{Context, Duration, Engine, Model, SimTime};
//!
//! struct PingPong { bounces: u32 }
//!
//! impl Model for PingPong {
//!     type Event = &'static str;
//!     fn handle(&mut self, ctx: &mut Context<'_, &'static str>, ev: &'static str) {
//!         self.bounces += 1;
//!         if self.bounces < 4 {
//!             let next = if ev == "ping" { "pong" } else { "ping" };
//!             ctx.schedule_in(Duration::from_micros(1), next);
//!         }
//!     }
//! }
//!
//! let mut model = PingPong { bounces: 0 };
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO, "ping");
//! let end = engine.run(&mut model);
//! assert_eq!(model.bounces, 4);
//! assert_eq!(end, SimTime::from_nanos(3_000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod queue;
mod rng;
mod stats;
mod time;

pub use engine::{Context, Engine, Model};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Histogram, LevelGauge};
pub use time::{Duration, SimTime};
