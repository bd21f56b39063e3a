//! Chaos suite for the daemon: arms fault-injection failpoints under a
//! live connection and asserts containment — a panicking request answers
//! `err internal` and closes only that session, an injected deadline
//! degrades to `status=3`, and in both cases the daemon keeps serving
//! deterministic decisions afterwards.
//!
//! Only builds with `--features fault-injection` (see `[[test]]` in the
//! root manifest). Arming is process-global, so each test serializes on
//! [`bagcons_core::fault::test_lock`].

mod serve_util;

use bagcons_core::fault::{self, FaultAction};
use serve_util::TestServer;

/// Silences the default panic-to-stderr hook until dropped (armed
/// failpoints panic on purpose). A guard dropped while its thread
/// unwinds from a failed assertion leaves the hook alone: `set_hook`
/// panics when called from a panicking thread, and that second panic
/// would abort the process and hide the assertion's message.
fn quiet_panics() -> impl Drop {
    type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;
    struct Restore(Option<Hook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if std::thread::panicking() {
                return;
            }
            if let Some(hook) = self.0.take() {
                std::panic::set_hook(hook);
            }
        }
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    Restore(Some(prev))
}

/// A panic inside one request is contained: the client gets
/// `err internal`, its session closes, the connection and the daemon
/// both keep serving — and because `stream::update` fires before any
/// mutation, a re-opened session sees unchanged state.
#[test]
fn panicking_request_is_contained() {
    let _lock = fault::test_lock();
    fault::reset();
    let _quiet = quiet_panics();

    let server = TestServer::start(None);
    let mut c = server.client();
    assert!(c.request("open fixture").starts_with("ok open "));

    fault::arm("stream::update", FaultAction::Panic, 1);
    let resp = c.request("0 0 0 : 1");
    fault::reset();
    assert_eq!(resp, "err internal: request panicked; session closed");

    // Same connection, still served; session gone, state unchanged.
    assert_eq!(c.request("ping"), "ok pong");
    assert!(c.request("check").starts_with("err usage:"));
    let reopened = c.request("open fixture");
    assert!(reopened.contains("gen=0"), "{reopened}");
    assert!(reopened.contains("decision=consistent"), "{reopened}");
    assert!(c.request("0 0 0 : 1").starts_with("status=1 "));

    // Other connections never noticed.
    let mut c2 = server.client();
    assert!(c2.request("open fixture").starts_with("ok open "));
    assert!(c2.request("check").starts_with("status=0 "));
    server.stop();
}

/// An injected deadline expiry degrades the request to `status=3` with
/// an abort reason; after disarming, a `sync` restores deterministic
/// service on the same connection.
#[test]
fn injected_deadline_degrades_to_unknown() {
    let _lock = fault::test_lock();
    fault::reset();

    let server = TestServer::start(None);
    let mut c = server.client();
    // The injected expiry only bites when a real deadline is armed; one
    // hour never expires on its own.
    assert_eq!(c.request("timeout 3600000"), "ok timeout ms=3600000");
    assert!(c.request("open fixture").starts_with("ok open "));

    fault::arm("stream::update", FaultAction::InjectDeadline, 1);
    let resp = c.request("0 0 0 : 1");
    fault::reset();
    assert!(resp.starts_with("status=3 "), "{resp}");
    assert!(resp.contains("deadline exceeded"), "{resp}");

    // Recovery on the same session: re-pin and replay deterministically.
    let synced = c.request("sync");
    assert!(
        synced.starts_with("ok sync dataset=fixture gen=0 "),
        "{synced}"
    );
    assert!(synced.contains("decision=consistent"), "{synced}");
    assert!(c.request("0 0 0 : 1").starts_with("status=1 "));
    assert!(c.request("0 0 0 : -1").starts_with("status=0 "));
    server.stop();
}

/// A bulk that fails changes nothing, whatever is armed inside it: the
/// session keeps its decision, and committing it publishes the rows it
/// had, which a reader decides as such.
#[test]
fn failed_bulk_leaves_the_session_and_its_commit_unchanged() {
    let _lock = fault::test_lock();
    fault::reset();
    let _quiet = quiet_panics();

    let server = TestServer::start(Some(1));
    let mut writer = server.client();
    assert!(writer.request("open fixture").starts_with("ok open "));

    // The first delta would drop row (0, 0) of bag 0, which needs a
    // successor bag; the second underflows. Every delta is checked
    // before any successor is built, so no merge runs and the armed
    // panic never fires.
    fault::arm("bag::reseal_delta::merge", FaultAction::Panic, 2);
    let resp = writer.request("bulk 0 0 0 : -2; 1 0 7 : -10");
    fault::reset();
    assert!(resp.starts_with("err update: "), "{resp}");
    assert!(writer.request("check").starts_with("status=0 "));

    let committed = writer.request("commit");
    assert_eq!(committed, "ok commit dataset=fixture gen=1");
    let mut reader = server.client();
    let opened = reader.request("open fixture");
    assert!(opened.contains("gen=1"), "{opened}");
    assert!(opened.contains("decision=consistent"), "{opened}");
    assert!(reader.request("check").starts_with("status=0 "));
    server.stop();
}
