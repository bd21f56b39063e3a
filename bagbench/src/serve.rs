//! `serve_mixed`: writes beside reads against a `bagcons serve` daemon.
//!
//! The daemon preloads a snapshot of a `planted_family` over `path(6)`
//! (witness support = domain = 2^14). Two closed-loop clients, one
//! connection each, repeat a 50-request cycle: one re-`open`, 31
//! `check`s, four `+1`/`-1` toggles of a row of the last bag, six `bulk`
//! requests that add and later remove one whole witness tuple across all
//! five bags (an existing tuple repairs in place, a client-private fresh
//! tuple reseals), and four `commit`s issued only in consistent states.
//! A commit that loses the race (`err conflict`) is answered with `sync`,
//! a replay of the client's uncommitted edits, and a new commit. Each
//! client touches only its own tuples, so every reply's decision is
//! predicted and checked.
//!
//! The clients meet at every commit point: client 0 commits, then client
//! 1, then both go on. Without the rendezvous a client whose `sync` is
//! slow can lose every race to one that commits between cheap requests,
//! and how often commits conflict — each conflict costs a full stream
//! rebuild — would vary from run to run. With it the conflicts are
//! fixed: seven of every eight commits. The re-`open`s take turns too:
//! client 1 opens once client 0's open is answered, because two stream
//! builds at once on a small host time the scheduler more than the build.

use crate::calib::{Calib, Timed};
use crate::inputs::{self, project, ServeInputs};
use crate::proc::{Bagcons, Client, Daemon};
use crate::trace::Tracer;
use crate::{session, stats, Ctx, Ledger, Report, SETUP_REPS};
use bagcons::protocol::parse_delta_edit;
use bagcons::session::Decision;
use bagcons::stream::ConsistencyStream;
use bagcons_core::{Bag, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// In-process, one `check` takes well under a microsecond; each replayed
/// check runs this many times inside its span so the span is not
/// dominated by the tracer's own bookkeeping.
const CHECK_REPS: u32 = 16;
const DATASET: &str = "d";

/// One request of the cycle. Tuple slots `0..3` are added and later
/// removed within the cycle; which slots are fresh alternates by cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Open,
    Check,
    TogglePlus,
    ToggleMinus,
    Add(usize),
    Remove(usize),
    Commit,
}

use Step::*;

/// The 50-request cycle. Toggles never span a bulk or a commit, so
/// commits and bulks always happen in consistent states.
const CYCLE: [Step; 50] = [
    Open,
    Add(0),
    Check,
    Check,
    Check,
    TogglePlus,
    Check,
    Check,
    ToggleMinus,
    Check,
    Check,
    Check,
    Commit,
    Remove(0),
    Check,
    Check,
    Check,
    TogglePlus,
    Check,
    ToggleMinus,
    Check,
    Check,
    Add(1),
    Check,
    Check,
    Commit,
    Remove(1),
    Check,
    Check,
    TogglePlus,
    Check,
    Check,
    ToggleMinus,
    Check,
    Add(2),
    Check,
    Check,
    Check,
    Commit,
    Check,
    TogglePlus,
    Check,
    Check,
    ToggleMinus,
    Check,
    Remove(2),
    Check,
    Check,
    Check,
    Commit,
];

/// A client's private rows.
struct Plan {
    /// Bag schemas, in dataset order.
    bags: Vec<bagcons_core::Schema>,
    witness_schema: bagcons_core::Schema,
    /// Two existing witness tuples, over the witness schema.
    existing: [Vec<Value>; 2],
    /// A tuple on values outside the generated domain.
    fresh: Vec<Value>,
    /// The row of the last bag the toggles bump.
    toggle: Vec<u64>,
}

impl Plan {
    fn new(inp: &ServeInputs, client: usize, seed: u64, domain: u64) -> Plan {
        let rows = inp.witness.sorted_rows();
        // Disjoint index ranges keep the clients' tuples apart.
        let share = rows.len() / CLIENTS;
        let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E_0000 + client as u64));
        let mut pick = || rows[client * share + rng.gen_range(0..share)].0.to_vec();
        let existing = [pick(), pick()];
        let fresh = vec![Value(domain + 1 + client as u64); inp.witness.schema().arity()];
        let bags: Vec<_> = inp.bags.iter().map(|b| b.schema().clone()).collect();
        let last = bags.last().expect("five bags").clone();
        let toggle = project(&existing[0], inp.witness.schema(), &last);
        Plan {
            bags,
            witness_schema: inp.witness.schema().clone(),
            existing,
            fresh,
            toggle,
        }
    }

    /// The tuple of `slot` in cycle `cycle`: slots alternate between an
    /// existing tuple (in-place repair) and the fresh one (reseal), and
    /// the pattern flips every cycle so both kinds get half the bulks.
    fn tuple(&self, cycle: usize, slot: usize) -> (&[Value], bool) {
        let fresh = (cycle + slot) % 2 == 1;
        if fresh {
            (&self.fresh, true)
        } else {
            (&self.existing[slot / 2], false)
        }
    }

    /// The deltas that add (`sign` = 1) or remove (`-1`) `tuple`.
    fn tuple_edits(&self, tuple: &[Value], sign: i64) -> Vec<(usize, Vec<u64>, i64)> {
        self.bags
            .iter()
            .enumerate()
            .map(|(b, schema)| (b, project(tuple, &self.witness_schema, schema), sign))
            .collect()
    }

    fn toggle_edit(&self, sign: i64) -> (usize, Vec<u64>, i64) {
        (self.bags.len() - 1, self.toggle.clone(), sign)
    }
}

fn delta_line((bag, row, delta): &(usize, Vec<u64>, i64)) -> String {
    let vals: Vec<String> = row.iter().map(u64::to_string).collect();
    format!("{bag} {} : {delta:+}", vals.join(" "))
}

fn bulk_line(edits: &[(usize, Vec<u64>, i64)]) -> String {
    let parts: Vec<String> = edits.iter().map(delta_line).collect();
    format!("bulk {}", parts.join("; "))
}

/// What one client saw: request round trips, each with the probe of
/// its cycle.
#[derive(Default)]
struct ClientLog {
    check: Timed,
    toggle_plus: Timed,
    delta: Timed,
    bulk_inplace: Timed,
    bulk_reseal: Timed,
    open: Timed,
    commit: Timed,
    /// Requests sent, by verb.
    requests: BTreeMap<&'static str, usize>,
    conflicts: usize,
    ledger: Ledger,
}

impl ClientLog {
    fn send(
        &mut self,
        c: &mut Client,
        verb: &'static str,
        line: &str,
    ) -> Result<(String, f64), String> {
        *self.requests.entry(verb).or_default() += 1;
        c.request(line)
    }

    /// Records a decision reply against the predicted status.
    fn expect_status(&mut self, reply: &str, want: u8, what: &str) {
        let got = reply
            .strip_prefix("status=")
            .and_then(|r| r.split(' ').next())
            .and_then(|s| s.parse::<u8>().ok());
        self.ledger.record(if got == Some(want) {
            Ok(())
        } else {
            Err(format!("{what}: expected status={want}, got {reply:?}"))
        });
    }

    /// Records an `ok <verb> ... status=0` reply.
    fn expect_ok_consistent(&mut self, reply: &str, verb: &str) {
        let ok = reply.starts_with(&format!("ok {verb} ")) && reply.ends_with(" status=0");
        self.ledger.record(if ok {
            Ok(())
        } else {
            Err(format!("{verb}: unexpected reply {reply:?}"))
        });
    }
}

/// Net uncommitted edits, keyed by (bag, row).
type Pending = BTreeMap<(usize, Vec<u64>), i64>;

fn note(pending: &mut Pending, edits: &[(usize, Vec<u64>, i64)]) {
    for (bag, row, d) in edits {
        let e = pending.entry((*bag, row.clone())).or_default();
        *e += d;
        if *e == 0 {
            pending.remove(&(*bag, row.clone()));
        }
    }
}

/// A rendezvous of the clients that a failing client breaks, so its
/// peer never waits forever.
#[derive(Default)]
struct Lockstep {
    /// (clients arrived, rendezvous count, broken)
    state: Mutex<(usize, u64, bool)>,
    cv: Condvar,
}

impl Lockstep {
    fn wait(&self) -> Result<(), String> {
        let broken = || "the other client failed".to_string();
        let mut g = self
            .state
            .lock()
            .expect("no client panics holding the lock");
        if g.2 {
            return Err(broken());
        }
        let round = g.1;
        g.0 += 1;
        if g.0 == CLIENTS {
            g.0 = 0;
            g.1 += 1;
            self.cv.notify_all();
            return Ok(());
        }
        while g.1 == round && !g.2 {
            g = self.cv.wait(g).expect("no client panics holding the lock");
        }
        if g.1 == round {
            Err(broken())
        } else {
            Ok(())
        }
    }

    fn abandon(&self) {
        self.state
            .lock()
            .expect("no client panics holding the lock")
            .2 = true;
        self.cv.notify_all();
    }
}

/// When the clients started measuring (after one warm-up cycle), and
/// whether they should stop; client 0 decides at each cycle boundary.
struct Clock {
    budget: std::time::Duration,
    measured_from: Mutex<Option<Instant>>,
    stop: AtomicBool,
    /// The probes for requests sent from here on.
    probes: Mutex<Probes>,
    /// Measured wall time between quiet points, each with its probe.
    segments: Mutex<Timed>,
    /// The daemon's resident set after each measured cycle, in MB.
    rss_mb: Mutex<Vec<f64>>,
}

const POISONED: &str = "no client panics holding the clock";

/// The references requests are timed against, in ms: the kernel probe of
/// [`Calib`], and the median round trip of a line through [`echo`].
/// A `check` does microseconds of work, so its round trip is mostly the
/// host waking the daemon's thread and then the client's, which drifts
/// between runs by up to twice (10 against 20 µs) with the kernel probe
/// unmoved; the echo takes the same path without the program.
#[derive(Clone, Copy, Default)]
struct Probes {
    kernel_ms: f64,
    echo_ms: f64,
}

/// Round trips per echo probe; the probe is their median.
const ECHO_TRIPS: usize = 15;

/// Echoes lines on the first connection to `listener` until it closes.
/// Gives up if no connection arrives within ten seconds, so a client
/// that failed before connecting cannot leave it waiting.
fn echo(listener: TcpListener) {
    let deadline = Instant::now() + Duration::from_secs(10);
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return,
        }
    };
    let Ok(read) = stream.try_clone() else {
        return;
    };
    if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let (mut reader, mut writer) = (BufReader::new(read), stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if writer.write_all(line.as_bytes()).is_err() => return,
            Ok(_) => {}
        }
    }
}

/// Client 0's probing. At every quiet point — a cycle boundary or a
/// commit point, where client 1 waits and the daemon is idle — it times
/// the segment since the last quiet point and takes fresh probes.
struct Prober {
    calib: Calib,
    echo: Client,
    since: Instant,
}

impl Prober {
    fn new(clock: &Clock, echo_addr: &str) -> Result<Prober, String> {
        let mut prober = Prober {
            calib: Calib::new(),
            echo: Client::connect(echo_addr)?,
            since: Instant::now(),
        };
        let echo_ms = prober.echo_ms()?;
        *clock.probes.lock().expect(POISONED) = Probes {
            kernel_ms: prober.calib.last_ms(),
            echo_ms,
        };
        Ok(prober)
    }

    /// The median of [`ECHO_TRIPS`] round trips through the echo.
    fn echo_ms(&mut self) -> Result<f64, String> {
        let mut trips = Vec::with_capacity(ECHO_TRIPS);
        for _ in 0..ECHO_TRIPS {
            let (reply, ms) = self.echo.request("echo")?;
            if reply != "echo" {
                return Err(format!("echo answered {reply:?}"));
            }
            trips.push(ms);
        }
        Ok(stats::median(&trips).expect("ECHO_TRIPS > 0"))
    }

    /// Records the segment that just ended if `measured`, and probes.
    fn quiet_point(&mut self, clock: &Clock, measured: bool) -> Result<(), String> {
        let mut probes = clock.probes.lock().expect(POISONED);
        if measured {
            let ms = self.since.elapsed().as_secs_f64() * 1e3;
            clock
                .segments
                .lock()
                .expect(POISONED)
                .push(ms, probes.kernel_ms);
        }
        *probes = Probes {
            kernel_ms: self.calib.refresh(),
            echo_ms: self.echo_ms()?,
        };
        self.since = Instant::now();
        Ok(())
    }
}

/// Client `id`'s cycles: one warm-up cycle, then cycles until client 0
/// sees the budget spent. On any error the rendezvous is broken so the
/// other client stops too.
fn client_loop(
    daemon: &Daemon,
    echo_addr: &str,
    plan: &Plan,
    id: usize,
    meet: &Lockstep,
    clock: &Clock,
) -> Result<ClientLog, String> {
    let out = client_cycles(daemon, echo_addr, plan, id, meet, clock);
    if out.is_err() {
        meet.abandon();
    }
    out
}

fn client_cycles(
    daemon: &Daemon,
    echo_addr: &str,
    plan: &Plan,
    id: usize,
    meet: &Lockstep,
    clock: &Clock,
) -> Result<ClientLog, String> {
    let mut c = Client::connect(&daemon.addr)?;
    let mut log = ClientLog::default();
    let mut pending = Pending::new();
    let mut prober = match id {
        0 => Some(Prober::new(clock, echo_addr)?),
        _ => None,
    };
    for cycle in 0.. {
        meet.wait()?;
        if let Some(prober) = &mut prober {
            let now = Instant::now();
            if cycle >= 2 {
                let rss = daemon.rss_mb()?;
                clock.rss_mb.lock().expect(POISONED).push(rss);
            }
            let mut from = clock.measured_from.lock().expect(POISONED);
            if cycle == 1 {
                *from = Some(now);
            }
            let spent = from.is_some_and(|f| now >= f + clock.budget);
            clock.stop.store(spent, Ordering::SeqCst);
            prober.quiet_point(clock, cycle >= 2)?;
        }
        meet.wait()?;
        if clock.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut probes = *clock.probes.lock().expect(POISONED);
        if cycle == 1 {
            // The warm-up cycle's samples go; its checks stay counted.
            log = ClientLog {
                ledger: std::mem::take(&mut log.ledger),
                ..ClientLog::default()
            };
        }
        let mut toggled = false;
        for step in CYCLE {
            match step {
                Open => {
                    // Client 0 opens while client 1 waits, then client 1
                    // opens beside client 0's next requests.
                    if id == 1 {
                        meet.wait()?;
                    }
                    let (reply, ms) = log.send(&mut c, "open", &format!("open {DATASET}"))?;
                    log.expect_ok_consistent(&reply, "open");
                    log.open.push(ms, probes.kernel_ms);
                    if id == 0 {
                        meet.wait()?;
                    }
                }
                Check => {
                    let (reply, ms) = log.send(&mut c, "check", "check")?;
                    log.expect_status(&reply, u8::from(toggled), "check");
                    log.check.push(ms, probes.echo_ms);
                }
                TogglePlus | ToggleMinus => {
                    let sign = if step == TogglePlus { 1 } else { -1 };
                    let edit = plan.toggle_edit(sign);
                    let (reply, ms) = log.send(&mut c, "delta", &delta_line(&edit))?;
                    toggled = step == TogglePlus;
                    log.expect_status(&reply, u8::from(toggled), "toggle");
                    log.delta.push(ms, probes.kernel_ms);
                    if toggled {
                        log.toggle_plus.push(ms, probes.kernel_ms);
                    }
                    note(&mut pending, &[edit]);
                }
                Add(slot) | Remove(slot) => {
                    let sign = if matches!(step, Add(_)) { 1 } else { -1 };
                    let (tuple, fresh) = plan.tuple(cycle, slot);
                    let edits = plan.tuple_edits(tuple, sign);
                    let (reply, ms) = log.send(&mut c, "bulk", &bulk_line(&edits))?;
                    log.expect_status(&reply, 0, "bulk");
                    if fresh {
                        log.bulk_reseal.push(ms, probes.kernel_ms);
                    } else {
                        log.bulk_inplace.push(ms, probes.kernel_ms);
                    }
                    note(&mut pending, &edits);
                }
                Commit => {
                    // Both finish the segment; client 0 probes and
                    // commits, then client 1 commits.
                    meet.wait()?;
                    if let Some(prober) = &mut prober {
                        prober.quiet_point(clock, cycle >= 1)?;
                        probes = *clock.probes.lock().expect(POISONED);
                    }
                    if id == 1 {
                        meet.wait()?;
                        probes = *clock.probes.lock().expect(POISONED);
                    }
                    let t = Instant::now();
                    commit(&mut c, &mut log, &mut pending)?;
                    log.commit
                        .push(t.elapsed().as_secs_f64() * 1e3, probes.kernel_ms);
                    if id == 0 {
                        meet.wait()?;
                    }
                    meet.wait()?;
                }
            }
        }
    }
    let (reply, _) = c.request("quit")?;
    log.ledger.record(if reply == "ok bye" {
        Ok(())
    } else {
        Err(format!("quit answered {reply:?}"))
    });
    Ok(log)
}

/// `commit`, answering an `err conflict` with `sync`, a replay of the
/// uncommitted edits, and another `commit`. Commits take turns, so the
/// second attempt cannot conflict.
fn commit(c: &mut Client, log: &mut ClientLog, pending: &mut Pending) -> Result<(), String> {
    for _ in 0..2 {
        let (reply, _) = log.send(c, "commit", "commit")?;
        if reply.starts_with("ok commit ") {
            log.ledger.record(Ok(()));
            pending.clear();
            return Ok(());
        }
        if !reply.starts_with("err conflict:") {
            log.ledger.record(Err(format!("commit answered {reply:?}")));
            return Ok(());
        }
        log.ledger.record(Ok(()));
        log.conflicts += 1;
        let (reply, _) = log.send(c, "sync", "sync")?;
        log.expect_ok_consistent(&reply, "sync");
        if !pending.is_empty() {
            let edits: Vec<(usize, Vec<u64>, i64)> = pending
                .iter()
                .map(|((bag, row), d)| (*bag, row.clone(), *d))
                .collect();
            let (reply, _) = log.send(c, "replay", &bulk_line(&edits))?;
            log.expect_status(&reply, 0, "replay");
        }
    }
    log.ledger
        .record(Err("commit conflicted after sync".to_string()));
    Ok(())
}

fn generate(ctx: &mut Ctx, report: &mut Report) -> Result<(ServeInputs, Vec<Plan>), String> {
    let inp = inputs::serve(&ctx.scale, ctx.seed, &ctx.dir).map_err(|e| e.to_string())?;
    report.param("family", "planted_family(path(6))");
    report.param("witness_support", ctx.scale.serve_support);
    report.param("domain", ctx.scale.serve_support);
    report.param("max_mult", ctx.scale.path_max_mult);
    report.param("clients", CLIENTS);
    report.param("loop", "closed, one connection per client");
    let mut args = vec![Path::new("save"), inp.snapshot.as_path()];
    args.extend(inp.texts.iter().map(|p| p.as_path()));
    let run = ctx
        .bin
        .run("snapshot", &args)
        .map_err(|e| format!("snapshot save: {e}"))?;
    ctx.ledger.record(if run.code == 0 {
        crate::verify::loads_as(&inp.snapshot, &inp.bags)
    } else {
        Err(format!("snapshot save exited {}", run.code))
    });
    let domain = ctx.scale.serve_support as u64;
    let plans = (0..CLIENTS)
        .map(|c| Plan::new(&inp, c, ctx.seed, domain))
        .collect();
    Ok((inp, plans))
}

/// Spawns `reps` daemons, shutting all but the last down cleanly;
/// returns the survivor, the spawn → preload → `ping` times, and each
/// daemon's peak resident set in MB after one lone `open` once it
/// answered `ping`: what holding the dataset and building one stream
/// costs, free of the clients' timing.
fn start_daemon(
    bin: &Bagcons,
    inp: &ServeInputs,
    reps: usize,
    ledger: &mut Ledger,
) -> Result<(Daemon, Vec<f64>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut rss_mb = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let (daemon, s) = bin.serve(DATASET, &inp.snapshot)?;
        times.push(s);
        let mut c = Client::connect(&daemon.addr)?;
        let (reply, _) = c.request(&format!("open {DATASET}"))?;
        ledger.record(
            if reply.starts_with("ok open ") && reply.ends_with(" status=0") {
                Ok(())
            } else {
                Err(format!("set-up open answered {reply:?}"))
            },
        );
        rss_mb.push(daemon.peak_rss_mb()?);
        c.request("quit")?;
        if i + 1 < reps {
            ledger.record(daemon.shutdown());
        } else {
            last = Some(daemon);
        }
    }
    Ok((last.expect("at least one set-up"), times, rss_mb))
}

/// What the clients measured, merged.
struct Driven {
    log: ClientLog,
    /// Measured wall time, in segments between quiet points.
    segments: Timed,
    /// The daemon's resident set after each measured cycle, in MB.
    rss_mb: Vec<f64>,
}

/// Both clients against `daemon` for a warm-up cycle and then `budget`.
fn drive(daemon: &Daemon, plans: &[Plan], budget: std::time::Duration) -> Result<Driven, String> {
    let meet = Lockstep::default();
    let clock = Clock {
        budget,
        measured_from: Mutex::new(None),
        stop: AtomicBool::new(false),
        probes: Mutex::new(Probes::default()),
        segments: Mutex::new(Timed::default()),
        rss_mb: Mutex::new(Vec::new()),
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind echo: {e}"))?;
    let echo_addr = listener
        .local_addr()
        .map_err(|e| format!("echo address: {e}"))?
        .to_string();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        s.spawn(move || echo(listener));
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(id, plan)| {
                let (meet, clock, echo_addr) = (&meet, &clock, echo_addr.as_str());
                s.spawn(move || client_loop(daemon, echo_addr, plan, id, meet, clock))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let segments = clock.segments.into_inner().expect(POISONED);
    let rss_mb = clock.rss_mb.into_inner().expect(POISONED);
    let mut all = ClientLog::default();
    for log in logs {
        let log = log?;
        all.check.extend(log.check);
        all.toggle_plus.extend(log.toggle_plus);
        all.delta.extend(log.delta);
        all.bulk_inplace.extend(log.bulk_inplace);
        all.bulk_reseal.extend(log.bulk_reseal);
        all.open.extend(log.open);
        all.commit.extend(log.commit);
        for (verb, n) in log.requests {
            *all.requests.entry(verb).or_default() += n;
        }
        all.conflicts += log.conflicts;
        all.ledger.absorb(log.ledger);
    }
    Ok(Driven {
        log: all,
        segments,
        rss_mb,
    })
}

pub fn end_to_end(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (inp, plans) = generate(ctx, &mut report)?;
    let (daemon, setup, loaded_rss_mb) = start_daemon(&ctx.bin, &inp, SETUP_REPS, &mut ctx.ledger)?;
    report.setup(&setup);
    report.median("rss_mb", &loaded_rss_mb);
    let Driven {
        log,
        segments,
        rss_mb,
    } = drive(&daemon, &plans, ctx.budget)?;
    if let Some(m) = stats::median(&rss_mb) {
        report.param("rss_between_cycles_p50_mb", m);
    }
    let peak = daemon.peak_rss_mb();
    ctx.ledger.record(daemon.shutdown());
    ctx.ledger.absorb(log.ledger);
    let total: usize = log.requests.values().sum();
    report.throughput(total, &[&segments]);
    report.median_probes("check_p50", &log.check);
    report.median_probes("refute_p50", &log.toggle_plus);
    report.median_probes("heavy_p50", &log.open);
    report.param("daemon_peak_rss_mb", peak?);
    for (verb, n) in &log.requests {
        report.param(*verb, n);
    }
    report.param("commit_conflicts", log.conflicts);
    Ok(report)
}

/// The in-process counterpart of one client cycle, each request its own
/// operation: the stream call the daemon makes for it, nothing else.
fn replay(t: &mut Tracer, bags: &[Arc<Bag>], plan: &Plan, cycle: usize, ledger: &mut Ledger) {
    let s = session();
    let mut stream: Option<ConsistencyStream> = None;
    let mut toggled = false;
    let expect = |ledger: &mut Ledger, got: Decision, inconsistent: bool, what: &str| {
        let want = if inconsistent {
            Decision::Inconsistent
        } else {
            Decision::Consistent
        };
        ledger.record(if got == want {
            Ok(())
        } else {
            Err(format!("in-process {what} decided {got:?}"))
        });
    };
    for step in CYCLE {
        if step == Open {
            let opened = t.op("open", |t| {
                t.span("consistency.stream.open", || {
                    s.open_stream_shared(bags.to_vec())
                })
            });
            let st = opened.expect("stream opens");
            expect(ledger, st.decision(), false, "open");
            stream = Some(st);
            continue;
        }
        let st = stream.as_mut().expect("cycles start with open");
        let edits: Vec<(usize, Vec<u64>, i64)> = match step {
            TogglePlus => vec![plan.toggle_edit(1)],
            ToggleMinus => vec![plan.toggle_edit(-1)],
            Add(slot) => plan.tuple_edits(plan.tuple(cycle, slot).0, 1),
            Remove(slot) => plan.tuple_edits(plan.tuple(cycle, slot).0, -1),
            Open | Check | Commit => Vec::new(),
        };
        let parsed: Vec<_> = edits
            .iter()
            .map(|e| {
                parse_delta_edit(&delta_line(e), 1, st.bags())
                    .expect("generated deltas parse")
                    .expect("one delta per line")
            })
            .collect();
        let (kind, span) = match step {
            Check => ("check", "consistency.stream.check"),
            TogglePlus | ToggleMinus => ("delta", "consistency.stream.update_inplace"),
            Add(slot) | Remove(slot) if plan.tuple(cycle, slot).1 => {
                ("bulk_reseal", "consistency.stream.update_reseal")
            }
            Add(_) | Remove(_) => ("bulk_inplace", "consistency.stream.update_inplace"),
            Commit => continue,
            Open => unreachable!("handled above"),
        };
        let out = t
            .op(kind, |t| {
                let out = t.span(span, || match step {
                    TogglePlus | ToggleMinus => st.update(parsed[0].0, &parsed[0].1),
                    Check => {
                        for _ in 1..CHECK_REPS {
                            std::hint::black_box(st.update_batch(&[]).expect("check succeeds"));
                        }
                        st.update_batch(&[])
                    }
                    _ => st.update_batch(&parsed),
                });
                if let Ok(o) = &out {
                    t.count("consistency.stream.pairs_repaired", o.pairs_repaired as f64);
                    t.count("consistency.stream.pairs_rebuilt", o.pairs_rebuilt as f64);
                }
                out
            })
            .expect("stream update succeeds");
        if matches!(step, TogglePlus | ToggleMinus) {
            toggled = step == TogglePlus;
        }
        expect(ledger, out.decision, toggled, kind);
    }
}

pub fn traced(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (inp, plans) = generate(ctx, &mut report)?;
    let start = Instant::now();

    // The daemon half: client-observed latency per verb.
    let (daemon, ..) = start_daemon(&ctx.bin, &inp, 1, &mut ctx.ledger)?;
    let Driven {
        mut log, segments, ..
    } = drive(&daemon, &plans, ctx.budget / 2)?;
    ctx.ledger.record(daemon.shutdown());
    ctx.ledger.absorb(std::mem::take(&mut log.ledger));
    let total: usize = log.requests.values().sum();
    let wall_s = segments.ms().iter().sum::<f64>() / 1e3;
    report.set("serve.rps", total as f64 / wall_s, total);
    for (name, verb) in [
        ("serve.requests.check", "check"),
        ("serve.requests.delta", "delta"),
        ("serve.requests.bulk", "bulk"),
        ("serve.requests.open", "open"),
        ("serve.requests.commit", "commit"),
        ("serve.requests.sync", "sync"),
    ] {
        report.set(name, log.requests.get(verb).copied().unwrap_or(0) as f64, 1);
    }
    report.set("serve.commit_conflicts", log.conflicts as f64, 1);
    let commits = log.requests.get("commit").copied().unwrap_or(0);
    // Each conflict costs one extra commit request.
    let logical = commits.saturating_sub(log.conflicts);
    report.set(
        "serve.conflict_ratio",
        log.conflicts as f64 / logical.max(1) as f64,
        logical,
    );
    let writes: Vec<f64> = log
        .delta
        .ms()
        .iter()
        .chain(log.bulk_inplace.ms())
        .chain(log.bulk_reseal.ms())
        .copied()
        .collect();
    report.median("serve.check_p50_ms", log.check.ms());
    report.median("serve.write_p50_ms", &writes);
    report.median("serve.open_p50_ms", log.open.ms());
    report.median("serve.commit_p50_ms", log.commit.ms());
    for (name, samples) in [
        ("serve.check_tail_ms", log.check.ms()),
        ("serve.write_tail_ms", &writes),
    ] {
        if let Some((pct, v)) = stats::tail(samples) {
            report.set(name, v, samples.len());
            report.param(
                if name == "serve.check_tail_ms" {
                    "check_tail_pct"
                } else {
                    "write_tail_pct"
                },
                pct,
            );
        }
    }

    // The in-process half: the same requests through the stream.
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let bags: Vec<Arc<Bag>> = on.op("preload", |t| {
        let mut s = session();
        let bags = t
            .span("snap.open", || s.load_path(&inp.snapshot))
            .expect("snapshot loads");
        let bytes = std::fs::metadata(&inp.snapshot).map_or(0, |m| m.len());
        t.count("snap.bytes", bytes as f64);
        bags.into_iter().map(Arc::new).collect()
    });
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let mut cycle = 0;
    while on_ms.is_empty() || !ctx.out_of_time(start) {
        for (tracer, times) in [(&mut on, &mut on_ms), (&mut off, &mut off_ms)] {
            let t0 = Instant::now();
            replay(
                tracer,
                &bags,
                &plans[cycle % CLIENTS],
                cycle,
                &mut ctx.ledger,
            );
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        cycle += 1;
    }
    on.write_jsonl(&ctx.spans_path())
        .map_err(|e| format!("write spans: {e}"))?;

    let t = &on;
    report.span_median(t, "snap.open_ms", "preload", "snap.open", 1.0);
    report.count_median(t, "snap.bytes", "preload", "snap.bytes");
    report.span_median(
        t,
        "consistency.stream.open_ms",
        "open",
        "consistency.stream.open",
        1.0,
    );
    report.span_median(
        t,
        "consistency.stream.check_us",
        "check",
        "consistency.stream.check",
        1e3 / f64::from(CHECK_REPS),
    );
    report.span_median(
        t,
        "consistency.stream.update_inplace_us",
        "delta",
        "consistency.stream.update_inplace",
        1e3,
    );
    report.count_median(
        t,
        "consistency.stream.pairs_repaired",
        "delta",
        "consistency.stream.pairs_repaired",
    );
    report.span_median(
        t,
        "consistency.stream.update_reseal_us",
        "bulk_reseal",
        "consistency.stream.update_reseal",
        1e3,
    );
    report.count_median(
        t,
        "consistency.stream.pairs_rebuilt",
        "bulk_reseal",
        "consistency.stream.pairs_rebuilt",
    );

    // serve.overhead_us: client-observed latency minus the in-process op.
    let per_call = |kind: &str| -> Vec<f64> {
        let reps = if kind == "check" {
            f64::from(CHECK_REPS)
        } else {
            1.0
        };
        t.op_ms(kind).into_iter().map(|ms| ms / reps).collect()
    };
    for (name, client, kind) in [
        ("serve.overhead_us.check", log.check.ms(), "check"),
        ("serve.overhead_us.delta", log.delta.ms(), "delta"),
        (
            "serve.overhead_us.bulk_inplace",
            log.bulk_inplace.ms(),
            "bulk_inplace",
        ),
        (
            "serve.overhead_us.bulk_reseal",
            log.bulk_reseal.ms(),
            "bulk_reseal",
        ),
        ("serve.overhead_us.open", log.open.ms(), "open"),
    ] {
        let ops = per_call(kind);
        if let (Some(c), Some(o)) = (stats::median(client), stats::median(&ops)) {
            report.set(name, (c - o) * 1e3, client.len().min(ops.len()));
        }
    }
    report.finish_trace(&on, &on_ms, &off_ms);
    Ok(report)
}
