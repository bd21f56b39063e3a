//! Chaos suite: drives delta streams with failpoints armed and asserts
//! post-recovery decisions are bit-identical to undisturbed runs.
//!
//! Only builds with `--features fault-injection` (see `[[test]]` in the
//! root manifest); CI's `chaos` job runs it at threads 1, 2, and 4.
//!
//! Faults come in two flavors (see [`bagcons_core::fault`]):
//!
//! * [`FaultAction::Panic`] on executor-task sites exercises worker
//!   containment: the panic must surface as
//!   [`CoreError::WorkerPanicked`] with the operands rolled back —
//!   never as a wrong decision.
//! * [`FaultAction::InjectDeadline`] on any site trips every subsequent
//!   `Deadline::poll`, exercising the deadline-abort paths
//!   (graceful `Decision::Unknown` degradation) without waiting on a
//!   real clock. It needs a real armed deadline to bite, so every
//!   session here carries a one-hour budget that never expires on its
//!   own.
//!
//! Recovery protocol after a tripped fault: disarm, then — if the delta
//! rolled back (atomic apply-stage failure) — re-apply it, or — if it
//! committed — run a no-op update so the stream re-decides. Either way
//! the resulting decision trace must equal the undisturbed run's.
//!
//! Arming is process-global, so every test serializes on
//! [`bagcons_core::fault::test_lock`] and silences the panic hook while
//! on-purpose panics fly.

use bagcons::session::{Decision, Session, SessionError};
use bagcons_core::fault::{self, FaultAction};
use bagcons_core::{AbortReason, Attr, Bag, CoreError, DeltaSet, ExecConfig, Schema, Value};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Thread counts under test (1 is the sequential fallback).
const THREADS: [usize; 3] = [1, 2, 4];

/// Fault scenarios: site × action. Panic is limited to sites that fire
/// inside executor tasks (contained by `catch_unwind`) or before any
/// state mutation (`stream::update` entry). The `witness::fill` site is
/// exercised through `Session::witness` below instead.
const SCENARIOS: [(&str, FaultAction); 4] = [
    ("bag::reseal_delta::merge", FaultAction::Panic),
    ("stream::update", FaultAction::Panic),
    ("bag::reseal_delta::merge", FaultAction::InjectDeadline),
    ("stream::update", FaultAction::InjectDeadline),
];

fn schema(ids: &[u32]) -> Schema {
    Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
}

/// An overlapping pair (A-B ⋈ B-C) plus a disjoint singleton, all with
/// equal totals so the stream opens consistent.
fn fixture() -> Vec<Bag> {
    vec![
        Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2), (&[1, 1][..], 3)]).unwrap(),
        Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 7][..], 2), (&[1, 8][..], 3)]).unwrap(),
        Bag::from_u64s(schema(&[3]), [(&[9u64][..], 5)]).unwrap(),
    ]
}

/// Forces sharding on the tiny fixture (so task-site failpoints fire)
/// and arms a real one-hour deadline (so injected expiries bite).
fn session(threads: usize) -> Session {
    Session::builder()
        .exec(
            ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1)
                .build()
                .unwrap(),
        )
        .deadline(Duration::from_secs(3600))
        .build()
        .unwrap()
}

/// Silences the default panic-to-stderr hook until dropped (armed
/// failpoints panic on purpose).
fn quiet_panics() -> impl Drop {
    type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;
    struct Restore(Option<Hook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(hook) = self.0.take() {
                std::panic::set_hook(hook);
            }
        }
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    Restore(Some(prev))
}

/// A delta script: per step, a bag index and positive row bumps (rows
/// drawn from a small domain so support-changing and in-place edits
/// both occur).
type Script = Vec<(usize, Vec<(u64, u64, u64)>)>;

fn script_strategy() -> impl Strategy<Value = Script> {
    proptest::collection::vec(
        (
            0usize..3,
            proptest::collection::vec((0u64..3, 0u64..3, 1u64..4), 1..3),
        ),
        1..5,
    )
}

fn make_delta(bags: &[std::sync::Arc<Bag>], bag: usize, edits: &[(u64, u64, u64)]) -> DeltaSet {
    let mut d = DeltaSet::new(bags[bag].schema().clone());
    for &(a, b, k) in edits {
        let row: Vec<u64> = if bags[bag].schema().arity() == 1 {
            vec![a]
        } else {
            vec![a, b]
        };
        d.bump_u64s(&row, k as i64).unwrap();
    }
    d
}

/// One (decision, abort reason) entry per stream state: the opening one,
/// then one per script step.
type Trace = Vec<(Decision, Option<AbortReason>)>;

fn undisturbed(threads: usize, script: &Script) -> (Trace, Option<Bag>) {
    let s = session(threads);
    let mut stream = s.open_stream(fixture()).unwrap();
    let mut trace = vec![(stream.decision(), stream.abort_reason())];
    for (bag, edits) in script {
        let d = make_delta(stream.bags(), *bag, edits);
        let out = stream.update(*bag, &d).unwrap();
        trace.push((out.decision, out.abort_reason));
    }
    let witness = match stream.decision() {
        Decision::Consistent => stream.witness().unwrap().cloned(),
        _ => None,
    };
    (trace, witness)
}

/// Runs the same script with `site` armed; whenever the fault trips
/// (panic, typed error, or degraded outcome), disarms and recovers, and
/// records the *post-recovery* state for that step.
fn disturbed(
    threads: usize,
    script: &Script,
    site: &'static str,
    action: FaultAction,
    nth: u64,
) -> (Trace, Option<Bag>) {
    let s = session(threads);
    let mut stream = s.open_stream(fixture()).unwrap();
    let mut trace = vec![(stream.decision(), stream.abort_reason())];
    fault::arm(site, action, nth);
    for (bag, edits) in script {
        let d = make_delta(stream.bags(), *bag, edits);
        let before = stream.bags()[*bag].unary_size();
        let bump: u128 = edits.iter().map(|e| u128::from(e.2)).sum();
        let result = catch_unwind(AssertUnwindSafe(|| stream.update(*bag, &d)));
        let clean = matches!(&result, Ok(Ok(out)) if out.abort_reason.is_none());
        let out = if clean {
            result.unwrap().unwrap()
        } else {
            if let Ok(Err(e)) = &result {
                assert!(
                    matches!(
                        e,
                        SessionError::Core(
                            CoreError::Aborted(_) | CoreError::WorkerPanicked { .. }
                        )
                    ),
                    "fault must surface typed, got: {e}"
                );
            }
            fault::reset();
            // Atomic apply-stage failures roll the delta back; a post-apply
            // expiry commits it and only degrades that step's decision.
            let committed = stream.bags()[*bag].unary_size() == before + bump;
            let recovery = if committed {
                DeltaSet::new(stream.bags()[*bag].schema().clone())
            } else {
                d
            };
            stream
                .update(*bag, &recovery)
                .expect("recovery update is clean")
        };
        trace.push((out.decision, out.abort_reason));
    }
    fault::reset();
    let witness = match stream.decision() {
        Decision::Consistent => stream.witness().unwrap().cloned(),
        _ => None,
    };
    (trace, witness)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: for every scenario, thread count, and
    /// delta script, the post-recovery decision trace and final witness
    /// are bit-identical to an undisturbed run's.
    #[test]
    fn faults_never_change_post_recovery_decisions(
        script in script_strategy(),
        scenario in 0usize..SCENARIOS.len(),
        nth in 1u64..6,
    ) {
        let _serial = fault::test_lock();
        fault::reset();
        let _quiet = quiet_panics();
        let (site, action) = SCENARIOS[scenario];
        for threads in THREADS {
            let base = undisturbed(threads, &script);
            let got = disturbed(threads, &script, site, action, nth);
            prop_assert_eq!(
                &base,
                &got,
                "threads={} site={} action={:?} nth={}",
                threads,
                site,
                action,
                nth
            );
        }
    }
}

/// A worker panic inside the acyclic witness chain's group fill surfaces
/// as `WorkerPanicked` from `Session::witness`, and the same inputs
/// rebuild clean once disarmed. `Session::check` builds no witness, so
/// the armed site never fires there.
#[test]
fn worker_panic_in_witness_is_typed_and_retryable() {
    let _serial = fault::test_lock();
    fault::reset();
    let _quiet = quiet_panics();
    for threads in THREADS {
        let s = session(threads);
        let bags = fixture();
        let refs: Vec<&Bag> = bags.iter().collect();
        let base = s.witness(&refs).unwrap().check;
        assert_eq!(base.decision, Decision::Consistent);

        fault::arm("witness::fill", FaultAction::Panic, 1);
        let checked = s.check(&refs).unwrap();
        assert_eq!(checked.decision, base.decision, "threads={threads}");
        assert!(checked.witness.is_none());
        match s.witness(&refs) {
            Err(SessionError::Core(CoreError::WorkerPanicked { message, .. })) => {
                assert!(message.contains("witness::fill"), "message = {message:?}");
            }
            other => panic!("threads={threads}: expected WorkerPanicked, got {other:?}"),
        }
        fault::reset();
        let again = s.witness(&refs).unwrap().check;
        assert_eq!(again.decision, base.decision, "threads={threads}");
        assert_eq!(again.witness, base.witness, "threads={threads}");
    }
}

/// An injected deadline in the group fill of the acyclic chain degrades
/// `Session::witness` to `Decision::Unknown` with the deadline reason,
/// and the same inputs rebuild to the base witness once disarmed.
#[test]
fn injected_deadline_in_witness_fill_degrades_witness() {
    let _serial = fault::test_lock();
    fault::reset();
    for threads in THREADS {
        let s = session(threads);
        let bags = fixture();
        let refs: Vec<&Bag> = bags.iter().collect();
        let base = s.witness(&refs).unwrap().check;
        assert_eq!(base.decision, Decision::Consistent);

        fault::arm("witness::fill", FaultAction::InjectDeadline, 1);
        let out = s.witness(&refs).unwrap().check;
        assert_eq!(out.decision, Decision::Unknown, "threads={threads}");
        assert_eq!(
            out.abort_reason,
            Some(AbortReason::DeadlineExceeded),
            "threads={threads}"
        );
        assert!(out.witness.is_none(), "threads={threads}");
        fault::reset();
        let again = s.witness(&refs).unwrap().check;
        assert_eq!(again.decision, base.decision, "threads={threads}");
        assert_eq!(again.witness, base.witness, "threads={threads}");
    }
}

/// Like [`fixture`] but inserted in descending row order, which defeats
/// the sorted-append fast path: these bags arrive unsealed, so the
/// opening seal really runs (and its failpoint really fires).
fn unsealed_fixture() -> Vec<Bag> {
    let mut r = Bag::new(schema(&[0, 1]));
    r.insert([Value(1), Value(1)], 3).unwrap();
    r.insert([Value(0), Value(0)], 2).unwrap();
    let mut s = Bag::new(schema(&[1, 2]));
    s.insert([Value(1), Value(8)], 3).unwrap();
    s.insert([Value(0), Value(7)], 2).unwrap();
    assert!(!r.is_sealed() && !s.is_sealed());
    vec![r, s]
}

/// An injected deadline during the opening seal fails `open_stream`
/// cleanly; once disarmed the same fixture opens consistent.
#[test]
fn seal_abort_fails_open_cleanly_and_reopens() {
    let _serial = fault::test_lock();
    fault::reset();
    for threads in THREADS {
        let s = session(threads);
        fault::arm("bag::seal", FaultAction::InjectDeadline, 1);
        match s.open_stream(unsealed_fixture()) {
            Err(SessionError::Core(CoreError::Aborted(AbortReason::DeadlineExceeded))) => {}
            Err(other) => panic!("threads={threads}: expected deadline abort, got {other:?}"),
            Ok(_) => panic!("threads={threads}: expected deadline abort, got a stream"),
        }
        fault::reset();
        let stream = s.open_stream(unsealed_fixture()).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent, "threads={threads}");
    }
}

/// An injected deadline mid-merge rolls `apply_delta_with` back
/// atomically: same bag bytes, and the identical delta applies clean
/// after disarming.
#[test]
fn injected_deadline_mid_merge_is_atomic() {
    let _serial = fault::test_lock();
    fault::reset();
    for threads in THREADS {
        let s = session(threads);
        let mut stream = s.open_stream(fixture()).unwrap();
        let snapshot = stream.bags()[0].clone();
        // (0, 1) sorts between the existing rows, so the reseal cannot
        // take the sorted-append fast path and the merge task runs
        let mut d = DeltaSet::new(stream.bags()[0].schema().clone());
        d.bump_u64s(&[0, 1], 1).unwrap();

        fault::arm("bag::reseal_delta::merge", FaultAction::InjectDeadline, 1);
        match stream.update(0, &d) {
            Err(SessionError::Core(CoreError::Aborted(AbortReason::DeadlineExceeded))) => {
                assert_eq!(stream.bags()[0], snapshot, "threads={threads}: rollback");
                assert_eq!(stream.decision(), Decision::Consistent);
            }
            // the merge may finish before its next poll: then the delta
            // commits and the expiry degrades the decision instead
            Ok(out) => assert!(out.abort_reason.is_some(), "threads={threads}"),
            other => panic!("threads={threads}: unexpected {other:?}"),
        }
        fault::reset();
        let committed = stream.bags()[0].unary_size() == snapshot.unary_size() + 1;
        let recovery = if committed {
            DeltaSet::new(stream.bags()[0].schema().clone())
        } else {
            d
        };
        let out = stream.update(0, &recovery).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent, "threads={threads}");
    }
}
