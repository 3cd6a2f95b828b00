//! # mime-serve
//!
//! The multi-process serving fleet over the MIME hardware executor, for
//! the mixed-task shared-weight traffic the paper's pipelined batch mode
//! models (Bhattacharjee et al., DAC 2022):
//!
//! * [`FrontDoor`] — the TCP front door and replica supervisor: a
//!   [`BoundedQueue`] admission queue (requests beyond capacity shed
//!   `Overloaded` instead of growing latency unboundedly), a deadline
//!   check at dequeue, deadline-aware cross-task batching, liveness
//!   deadlines, restart budgets with per-replica [`CircuitBreaker`]s,
//!   requeue-or-fail on replica death under a [`RetryPolicy`], and
//!   graceful drain.
//! * [`OverloadController`] — the brownout ladder's rung selection:
//!   sustained queueing pressure trades pruning aggressiveness for
//!   latency before anything sheds.
//! * [`proto`] — the length-framed wire protocol: typed
//!   request/reply/error frames, heartbeats, and a fragmentation-tolerant
//!   [`proto::FrameReader`].
//! * [`replica`] — the process-level isolation unit:
//!   [`replica::run_replica_worker`] (the child-side serving loop with
//!   between-layer heartbeats, per-request deadlines, parent-path
//!   fallback for invalid or lost threshold banks, and `--inject
//!   replica-*` faults) and [`replica::ReplicaProc`] (the
//!   supervisor-side child handle).
//!
//! The invariant everything here defends: **every admitted request
//! terminates in exactly one terminal [`proto::Frame`]** — never a hang,
//! never an unanswered client.

mod breaker;
mod frontdoor;
mod overload;
pub mod proto;
mod queue;
pub mod replica;
mod retry;

pub use breaker::{BreakerConfig, CircuitBreaker, Route};
pub use frontdoor::{
    ConnFault, FrontDoor, FrontDoorConfig, FrontDoorReport, FrontDoorStopper,
};
pub use overload::{OverloadConfig, OverloadController, CRITICAL_GRACE};
pub use queue::BoundedQueue;
pub use replica::{
    ReplicaFault, ReplicaProc, ReplicaState, ReplicaWorkerConfig, SideChannel,
};
pub use retry::RetryPolicy;
