//! Integration-test host crate for the recmod workspace; see `tests/`.
//!
//! Besides hosting the integration tests, this crate exposes the seeded
//! fuzzing + differential harness (`fuzz`) used by `tests/fuzz.rs` and
//! by CI's bounded fuzz job, and the `Term`-walking reference
//! interpreter (`reference_eval`) its evaluator classes compare against.
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod reference_eval;
