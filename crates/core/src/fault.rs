//! Std-only failpoints for chaos testing (the `fault-injection` feature).
//!
//! A **failpoint site** is a named call to [`fire`] placed on an
//! interesting code path — at a seal's entry, inside a join's merge
//! worker, the witness fill's shard task, the stream update. Without the `fault-injection` feature every site compiles to
//! an empty inlined function: zero overhead, nothing to configure.
//!
//! With the feature enabled, a test can *arm* a site:
//!
//! * `FaultAction::Panic` — the Nth hit of the site panics, exercising
//!   the executor's panic containment and every caller's
//!   leave-operands-untouched invariant;
//! * `FaultAction::InjectDeadline` — the Nth hit trips a process-global
//!   flag that makes every [`crate::Deadline::poll`] report
//!   [`crate::AbortReason::DeadlineExceeded`], exercising the
//!   deadline-abort paths without waiting on a real clock.
//!
//! Registered sites (kept in sync with the chaos suite and ROADMAP):
//!
//! | site | path |
//! |---|---|
//! | `bag::seal` | [`crate::Bag::try_seal_with`] and [`crate::Bag::from_arena`] entry, on the calling thread |
//! | `bag::reseal_delta::merge` | a delta's successor merge ([`crate::StagedDelta::build`]), one executor task on the calling thread |
//! | `join::merge::shard` | merge-join shard task ([`crate::join::bag_join_merge_with`]), at every thread count |
//! | `join::hash::shard` | hash-join probe shard task ([`crate::join::bag_join_hash_with`]), at every thread count |
//! | `witness::fill` | keyed-sweep shard task of each witness-chain step, two-bag fills included (`bagcons::acyclic`) |
//! | `stream::update` | consistency-stream update entry |
//!
//! Arming is process-global (sites are hit from worker threads), so
//! tests that arm failpoints must serialize on `test_lock` — the chaos
//! suite does.

#[cfg(feature = "fault-injection")]
mod armed {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// What an armed failpoint does when its trigger count is reached.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultAction {
        /// Panic with a message naming the site.
        Panic,
        /// Trip the global injected-deadline flag (see
        /// [`super::deadline_injected`]).
        InjectDeadline,
    }

    #[derive(Clone, Copy, Debug)]
    struct Arm {
        action: FaultAction,
        /// Fires on the Nth hit (1-based); earlier hits pass through.
        nth: u64,
        hits: u64,
    }

    fn registry() -> MutexGuard<'static, HashMap<&'static str, Arm>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Arm>>> = OnceLock::new();
        REGISTRY
            .get_or_init(Default::default)
            .lock()
            // A panic *is* the product here; the map stays consistent.
            .unwrap_or_else(PoisonError::into_inner)
    }

    static DEADLINE_INJECTED: AtomicBool = AtomicBool::new(false);

    /// True once an [`FaultAction::InjectDeadline`] failpoint fired;
    /// cleared by [`reset`].
    pub fn deadline_injected() -> bool {
        DEADLINE_INJECTED.load(Ordering::Relaxed)
    }

    /// Arms `site` to perform `action` on its `nth` hit (1-based) after
    /// this call. Re-arming a site resets its hit count.
    pub fn arm(site: &'static str, action: FaultAction, nth: u64) {
        registry().insert(
            site,
            Arm {
                action,
                nth: nth.max(1),
                hits: 0,
            },
        );
    }

    /// Disarms every site and clears the injected-deadline flag.
    pub fn reset() {
        registry().clear();
        DEADLINE_INJECTED.store(false, Ordering::Relaxed);
    }

    /// Failpoint hit. Panics (or trips the deadline flag) when `site` is
    /// armed and this is its Nth hit.
    pub fn fire(site: &'static str) {
        let action = {
            let mut reg = registry();
            let Some(arm) = reg.get_mut(site) else {
                return;
            };
            arm.hits += 1;
            if arm.hits != arm.nth {
                return;
            }
            arm.action
        };
        match action {
            FaultAction::Panic => panic!("failpoint {site} armed to panic"),
            FaultAction::InjectDeadline => DEADLINE_INJECTED.store(true, Ordering::Relaxed),
        }
    }

    /// Serializes tests that arm failpoints (arming is process-global).
    pub fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Default::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{arm, deadline_injected, fire, reset, test_lock, FaultAction};

/// Failpoint hit; a no-op without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fire(_site: &str) {}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn nth_hit_panics_and_reset_disarms() {
        let _guard = test_lock();
        reset();
        arm("test::site", FaultAction::Panic, 2);
        fire("test::site"); // first hit passes
        let err = std::panic::catch_unwind(|| fire("test::site")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("test::site"), "got: {msg}");
        reset();
        fire("test::site"); // disarmed: no panic
    }

    #[test]
    fn deadline_injection_trips_polls() {
        let _guard = test_lock();
        reset();
        arm("test::deadline", FaultAction::InjectDeadline, 1);
        assert_eq!(crate::Deadline::NONE.poll(), None);
        fire("test::deadline");
        assert!(deadline_injected());
        // An unlimited deadline stays unlimited; an armed one trips.
        assert_eq!(crate::Deadline::NONE.poll(), None);
        let d = crate::Deadline::after(std::time::Duration::from_secs(3600));
        assert_eq!(d.poll(), Some(crate::AbortReason::DeadlineExceeded));
        reset();
        assert_eq!(d.poll(), None);
    }
}
