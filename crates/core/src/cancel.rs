//! Wall-clock deadlines.
//!
//! The resource-governance layer threads a [`Deadline`] through
//! [`crate::ExecConfig`] into every bulk path: the shard executor polls
//! it at chunk boundaries ([`crate::exec::try_run_tasks`]), Dinic polls
//! per BFS/DFS phase, the ILP search polls per node batch, and the
//! pairwise/stream drivers poll between bag pairs. A poll that fires
//! surfaces as [`crate::CoreError::Aborted`] carrying an [`AbortReason`],
//! which the session layer converts into a graceful
//! `Decision::Unknown` — never a hang, never a hard kill.
//!
//! Polling is cheap by construction: an unlimited deadline (the default
//! everywhere) is one `Option` test, an armed one is one monotonic clock
//! read. Poll sites sit at *chunk* and *phase* granularity, off the
//! per-row hot loops.

use std::time::{Duration, Instant};

/// Why a computation stopped without reaching an answer.
///
/// Carried by [`crate::CoreError::Aborted`] and surfaced by the session
/// layer next to `Decision::Unknown` in text, JSON, and the exit-code
/// contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The wall-clock deadline of the operation expired.
    DeadlineExceeded,
    /// The exact-search node budget was exhausted before the search
    /// concluded (the cyclic branch's anytime answer).
    NodeBudget,
}

impl AbortReason {
    /// Stable machine-readable name (the JSON `abort_reason` value).
    pub const fn as_str(&self) -> &'static str {
        match self {
            AbortReason::DeadlineExceeded => "deadline_exceeded",
            AbortReason::NodeBudget => "node_budget",
        }
    }

    /// Human-readable phrase for text reports.
    pub const fn describe(&self) -> &'static str {
        match self {
            AbortReason::DeadlineExceeded => "deadline exceeded",
            AbortReason::NodeBudget => "node budget exhausted",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// A poll-based abort condition: an optional wall-clock expiry.
///
/// The default ([`Deadline::NONE`]) never fires and costs one `Option`
/// test per poll.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline {
    expires: Option<Instant>,
}

impl Deadline {
    /// The unlimited deadline: [`Deadline::poll`] never fires.
    pub const NONE: Deadline = Deadline { expires: None };

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            expires: Instant::now().checked_add(budget),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(expires: Instant) -> Self {
        Deadline {
            expires: Some(expires),
        }
    }

    /// Checks the abort condition: `Some(reason)` once the expiry has
    /// passed, `None` otherwise.
    #[inline]
    pub fn poll(&self) -> Option<AbortReason> {
        let at = self.expires?;
        // An injected failpoint deadline trips any *armed* deadline
        // (test-only; ungoverned Deadline::NONE paths stay unlimited).
        #[cfg(feature = "fault-injection")]
        if crate::fault::deadline_injected() {
            return Some(AbortReason::DeadlineExceeded);
        }
        (Instant::now() >= at).then_some(AbortReason::DeadlineExceeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fires() {
        assert_eq!(Deadline::NONE.poll(), None);
        assert_eq!(Deadline::default(), Deadline::NONE);
        assert_eq!(Deadline::default().poll(), None);
    }

    #[test]
    fn expired_deadline_fires() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert_eq!(d.poll(), Some(AbortReason::DeadlineExceeded));
        let far = Deadline::after(Duration::from_secs(3600));
        assert_eq!(far.poll(), None);
    }
}
