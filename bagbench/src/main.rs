//! `bagbench` — the repository's benchmark.
//!
//! ```text
//! bagbench --bin <bagcons> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bagbench --bin <bagcons> --selftest
//! ```
//!
//! Run it through `bagbench/run.sh`, which builds the release `bagcons`
//! binary and this package from source first. Workloads:
//!
//! * `acyclic_cli` — `bagcons check|witness` processes on a
//!   `planted_family` over `path(6)` (Theorem 4's polynomial branch);
//! * `cyclic_cli` — one `bagcons check` process per instance of a fixed
//!   suite of planted, bumped, and Tseitin-gadget cycles (the exact
//!   search);
//! * `serve_mixed` — two closed-loop clients of a `bagcons serve` daemon
//!   mixing checks, deltas, bulk writes, re-opens, and commits.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! of [`END_TO_END`]; with `--trace 1` the per-layer metrics of
//! [`PER_LAYER`], from a run that replays the same inputs in-process with
//! a span around every call into a layer's public function. A per-layer
//! metric reads 0 when the workload bypasses that layer. The line before
//! it records the run's provenance.

mod acyclic;
mod calib;
mod cyclic;
mod inputs;
mod json;
mod proc;
mod serve;
mod stats;
mod trace;
mod verify;

use inputs::Scale;
use json::{quote, Json};
use proc::Bagcons;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed regression as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload. Latencies are
/// medians in probes, the wall time of the reference kernel timed beside
/// each operation ([`calib`]), which cancels the host's own changes of
/// speed; `serve_mixed`'s `check_p50` is in round trips of a loopback
/// echo instead, as its requests are mostly wake-ups ([`serve`]). The
/// raw medians in ms are in the provenance line. What each measures per
/// workload:
///
/// | metric | acyclic_cli | cyclic_cli | serve_mixed |
/// |---|---|---|---|
/// | `setup_s` | `snapshot save` of the family | `snapshot save` of every instance | daemon spawn → preload → first `ping` |
/// | `ops_per_kprobe` | CLI processes | instances decided | requests, both clients |
/// | `check_p50` | `check` on the consistent text | `check` on planted instances | `check` request |
/// | `refute_p50` | `check` on the bumped text | `check` on bumped and Tseitin instances | `+1` toggle (flips to inconsistent) |
/// | `heavy_p50` | `witness` from the snapshot | one pass over the whole suite | `open` (stream build) |
/// | `rss_mb` | peak of the largest CLI process | peak of the largest CLI process | daemon's peak after preload and one lone `open` (its resident set between cycles and its peak at the end in the provenance line) |
///
/// `ops_per_kprobe` is operations per thousand probes of the time they
/// took (per wall second in the provenance line as `ops_per_s`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_kprobe", "1/kprobe", "higher", 0.25),
    e2e("check_p50", "probe", "lower", 0.25),
    e2e("refute_p50", "probe", "lower", 0.25),
    e2e("heavy_p50", "probe", "lower", 0.25),
    e2e("rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics of the traced run. Times are per operation: the
/// median over operations of the summed self time of the layer's spans.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.io.parse_seal_ms", "ms", "lower"),
    layer("core.io.rows", "count", "lower"),
    layer("snap.open_ms", "ms", "lower"),
    layer("snap.bytes", "bytes", "lower"),
    layer("hypergraph.schema_us", "us", "lower"),
    layer("consistency.pairwise.screen_ms", "ms", "lower"),
    layer("consistency.pairwise.pairs", "count", "lower"),
    layer("consistency.acyclic.witness_ms", "ms", "lower"),
    layer("consistency.acyclic.witness_rows", "count", "lower"),
    layer("consistency.acyclic.rows_per_input_row", "ratio", "lower"),
    layer("consistency.pair_witness_ms", "ms", "lower"),
    layer("consistency.pair_witness_pairs", "count", "lower"),
    layer("consistency.report.render_ms", "ms", "lower"),
    layer("consistency.report.bytes", "bytes", "lower"),
    layer("consistency.session.check_ms", "ms", "lower"),
    layer("consistency.session.witness_ms", "ms", "lower"),
    layer("cli.overhead_ms", "ms", "lower"),
    layer("lp.ilp.search_ms", "ms", "lower"),
    layer("lp.ilp.search_nodes", "count", "lower"),
    layer("lp.ilp.nodes_per_ms", "1/ms", "higher"),
    layer("lp.ilp.decided_ratio", "ratio", "higher"),
    layer("consistency.stream.open_ms", "ms", "lower"),
    layer("consistency.stream.check_us", "us", "lower"),
    layer("consistency.stream.update_inplace_us", "us", "lower"),
    layer("consistency.stream.pairs_repaired", "count", "lower"),
    layer("consistency.stream.update_reseal_us", "us", "lower"),
    layer("consistency.stream.pairs_rebuilt", "count", "lower"),
    layer("serve.overhead_us.check", "us", "lower"),
    layer("serve.overhead_us.delta", "us", "lower"),
    layer("serve.overhead_us.bulk_inplace", "us", "lower"),
    layer("serve.overhead_us.bulk_reseal", "us", "lower"),
    layer("serve.overhead_us.open", "us", "lower"),
    layer("serve.requests.check", "count", "higher"),
    layer("serve.requests.delta", "count", "higher"),
    layer("serve.requests.bulk", "count", "higher"),
    layer("serve.requests.open", "count", "higher"),
    layer("serve.requests.commit", "count", "higher"),
    layer("serve.requests.sync", "count", "lower"),
    layer("serve.commit_conflicts", "count", "lower"),
    layer("serve.conflict_ratio", "ratio", "lower"),
    layer("serve.rps", "1/s", "higher"),
    layer("serve.check_p50_ms", "ms", "lower"),
    layer("serve.check_tail_ms", "ms", "lower"),
    layer("serve.write_p50_ms", "ms", "lower"),
    layer("serve.write_tail_ms", "ms", "lower"),
    layer("serve.open_p50_ms", "ms", "lower"),
    layer("serve.commit_p50_ms", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.uncovered_ratio", "ratio", "lower"),
    layer("trace.check_accounted_ratio", "ratio", "higher"),
    layer("trace.spans", "count", "lower"),
];

pub const WORKLOADS: &[&str] = &["acyclic_cli", "cyclic_cli", "serve_mixed"];

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Counts attempted and failed operations; keeps the first few failure
/// messages for stderr.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    /// Records one operation; `Err` is a failure with its reason.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(msg);
            }
        }
    }

    /// Adds another ledger's operations to this one.
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 10usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// Everything one workload run needs.
pub struct Ctx {
    pub bin: Bagcons,
    pub seed: u64,
    pub budget: Duration,
    pub scale: Scale,
    /// Work directory for this run's generated files.
    pub dir: PathBuf,
    pub ledger: Ledger,
}

impl Ctx {
    /// Where a traced run writes its spans: beside the work directory,
    /// which is removed when the run ends.
    pub fn spans_path(&self) -> PathBuf {
        self.dir.with_extension("spans.jsonl")
    }

    pub fn out_of_time(&self, start: std::time::Instant) -> bool {
        start.elapsed() >= self.budget
    }
}

/// What a workload run reports: metric values, the sample count behind
/// each, and its generator parameters.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, usize>,
    pub params: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// The median of `values` under `name`, if there are any.
    pub fn median(&mut self, name: &'static str, values: &[f64]) {
        if let Some(m) = stats::median(values) {
            self.set(name, m, values.len());
        }
    }

    /// `setup_s`: the median of the run's set-ups, each in the parameters.
    pub fn setup(&mut self, setup_s: &[f64]) {
        self.median("setup_s", setup_s);
        let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.6}")).collect();
        self.param("setup_each_s", each.join(","));
    }

    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) {
        self.params.push((key.into(), value.to_string()));
    }

    /// `name` = the median of `timed` in probes; its raw median in ms goes
    /// to the parameters as `<name>_ms`.
    pub fn median_probes(&mut self, name: &'static str, timed: &calib::Timed) {
        self.median(name, timed.in_probes());
        if let Some(ms) = stats::median(timed.ms()) {
            self.param(format!("{name}_ms"), ms);
        }
    }

    /// `ops_per_kprobe`: `ops` operations per thousand probes of the
    /// time `busy` took; per second of it in the parameters.
    pub fn throughput(&mut self, ops: usize, busy: &[&calib::Timed]) {
        let probes: f64 = busy.iter().flat_map(|t| t.in_probes().iter()).sum();
        let ms: f64 = busy.iter().flat_map(|t| t.ms().iter()).sum();
        self.set("ops_per_kprobe", ops as f64 * 1e3 / probes, ops);
        self.param("ops_per_s", ops as f64 * 1e3 / ms);
    }

    /// The median probe of the run, for the parameters.
    pub fn probe(&mut self, calib: &calib::Calib) {
        self.param("probe_p50_ms", calib.median_ms());
    }

    /// `name` = `scale` × the median over operations of kind `kind` of
    /// the span `span`'s summed self time in ms.
    pub fn span_median(
        &mut self,
        tracer: &trace::Tracer,
        name: &'static str,
        kind: &str,
        span: &str,
        scale: f64,
    ) {
        let per_op: Vec<f64> = tracer
            .per_op_ms(kind, span)
            .into_iter()
            .map(|ms| ms * scale)
            .collect();
        self.median(name, &per_op);
    }

    /// `name` = the median over operations of kind `kind` of the count
    /// `count`.
    pub fn count_median(
        &mut self,
        tracer: &trace::Tracer,
        name: &'static str,
        kind: &str,
        count: &str,
    ) {
        self.median(name, &tracer.per_op_count(kind, count));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The metrics every traced run reports about the tracing itself:
    /// overhead from the traced (`on_ms`) and untraced (`off_ms`) replay
    /// times, and the share of operation time outside layer spans.
    pub fn finish_trace(&mut self, on: &trace::Tracer, on_ms: &[f64], off_ms: &[f64]) {
        if let (Some(traced), Some(untraced)) = (stats::median(on_ms), stats::median(off_ms)) {
            self.set(
                "trace.overhead_pct",
                (traced - untraced) / untraced * 100.0,
                on_ms.len().min(off_ms.len()),
            );
        }
        let uncovered = on.uncovered_ratios();
        let worst = uncovered.values().copied().fold(0.0, f64::max);
        self.set("trace.uncovered_ratio", worst, on_ms.len());
        let by_kind: Vec<String> = uncovered
            .iter()
            .map(|(kind, r)| format!("{kind}={r:.4}"))
            .collect();
        self.param("uncovered_by_op", by_kind.join(","));
        self.set("trace.spans", on.span_count() as f64, 1);
    }
}

/// `bagcons`' default node budget for the exact search.
const CLI_DEFAULT_BUDGET: u64 = 50_000_000;

/// An in-process session configured as the CLI configures its own.
pub fn session() -> bagcons::session::Session {
    bagcons::session::Session::builder()
        .threads(proc::THREADS)
        .budget(CLI_DEFAULT_BUDGET)
        .build()
        .expect("two threads is a valid configuration")
}

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bin: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--bin" => args.bin = PathBuf::from(&value),
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.bin.as_os_str().is_empty() {
        return Err("--bin <path to bagcons> is required".to_string());
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(ctx: &mut Ctx, workload: &str, trace: bool) -> Result<Report, String> {
    match (workload, trace) {
        ("acyclic_cli", false) => acyclic::end_to_end(ctx),
        ("acyclic_cli", true) => acyclic::traced(ctx),
        ("cyclic_cli", false) => cyclic::end_to_end(ctx),
        ("cyclic_cli", true) => cyclic::traced(ctx),
        ("serve_mixed", false) => serve::end_to_end(ctx),
        ("serve_mixed", true) => serve::traced(ctx),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Runs one workload in a fresh work directory under `.bench_work/`,
/// removed afterwards.
fn measure(
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
) -> Result<(Report, Ledger), String> {
    let dir = PathBuf::from(".bench_work").join(format!(
        "{workload}-{seed}-{}-{}",
        u8::from(trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut ctx = Ctx {
        bin: Bagcons::new(bin.to_path_buf()),
        seed,
        budget: Duration::from_secs(seconds),
        scale,
        dir: dir.clone(),
        ledger: Ledger::default(),
    };
    let report = run_workload(&mut ctx, workload, trace);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((report?, ctx.ledger))
}

/// The metrics line: every metric of `defs`, in table order. A per-layer
/// metric the workload did not set is a bypassed layer and reads 0.
fn result_line(report: &Report, ledger: &Ledger, defs: &[MetricDef]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match (report.metrics.get(def.name), def.bound) {
            (Some(&v), _) => v,
            (None, None) => 0.0,
            (None, Some(_)) => {
                return Err(format!("end-to-end metric {} was not measured", def.name))
            }
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(def.name),
            quote(def.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0 && ledger.attempted > 0,
        ledger.attempted.max(1),
        ledger.failed,
        fields.join(", ")
    ))
}

/// The commit of a git checkout in the working directory, if there is
/// one (benchmark checkouts usually are not repositories).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// A hash over the program's sources and manifests, identifying the code
/// under test when there is no git metadata.
fn source_fingerprint() -> String {
    use std::hash::{DefaultHasher, Hash, Hasher};
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = DefaultHasher::new();
    for f in &files {
        f.hash(&mut h);
        std::fs::read(f).unwrap_or_default().hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

fn provenance_line(args: &Args, report: &Report, ledger: &Ledger) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params: Vec<String> = report
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", quote(k)))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"git_commit\": {}, \"source_fingerprint\": {}, \
         \"failed_ratio\": {}, \"params\": {{{}}}, \"samples\": {{{}}}}}}}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        proc::THREADS,
        quote(&git_commit()),
        quote(&source_fingerprint()),
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        params.join(", "),
        samples.join(", ")
    )
}

/// Runs every workload at tiny scale in both modes and checks that each
/// declared metric is emitted with the unit `BENCHMARK.json` gives it,
/// that end-to-end values are positive, and that no operation failed.
fn selftest(bin: &Path) -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t))?;
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = declared
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json lacks {key}"))?;
        if listed.len() != defs.len() {
            return Err(format!(
                "{key}: BENCHMARK.json lists {} metrics, the benchmark {}",
                listed.len(),
                defs.len()
            ));
        }
        for (entry, def) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str);
            if field("name") != Some(def.name)
                || field("unit") != Some(def.unit)
                || field("better") != Some(def.better)
                || entry.get("bound").and_then(Json::as_f64) != def.bound
            {
                return Err(format!("{key}: BENCHMARK.json disagrees on {}", def.name));
            }
        }
    }
    let listed_workloads: Vec<&str> = declared
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if listed_workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {listed_workloads:?} != {WORKLOADS:?}"
        ));
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (report, ledger) = measure(bin, workload, 7, 1, trace, Scale::tiny())?;
            let defs = if trace { PER_LAYER } else { END_TO_END };
            let line = result_line(&report, &ledger, defs)?;
            let parsed = Json::parse(&line)?;
            let metrics = parsed.get("metrics").ok_or("no metrics")?;
            for def in defs {
                let m = metrics
                    .get(def.name)
                    .ok_or(format!("{workload}: {} missing", def.name))?;
                if m.get("unit").and_then(Json::as_str) != Some(def.unit) {
                    return Err(format!("{workload}: {} has the wrong unit", def.name));
                }
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                if def.bound.is_some()
                    && value.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
                {
                    return Err(format!(
                        "{workload}: {} = {value} is not positive",
                        def.name
                    ));
                }
            }
            if ledger.failed != 0 {
                return Err(format!(
                    "{workload} (trace {}): {} of {} operations failed: {:?}",
                    u8::from(trace),
                    ledger.failed,
                    ledger.attempted,
                    ledger.messages
                ));
            }
            eprintln!(
                "selftest {workload} trace={}: {} ops, failed_ratio 0",
                u8::from(trace),
                ledger.attempted
            );
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bagbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selftest {
        match selftest(&args.bin) {
            Ok(()) => eprintln!("selftest passed"),
            Err(e) => {
                eprintln!("bagbench selftest: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome = measure(
        &args.bin,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::full(),
    )
    .and_then(|(report, ledger)| {
        let defs = if args.trace { PER_LAYER } else { END_TO_END };
        let line = result_line(&report, &ledger, defs)?;
        Ok((report, ledger, line))
    });
    match outcome {
        Ok((report, ledger, line)) => {
            for msg in &ledger.messages {
                eprintln!("bagbench: failed: {msg}");
            }
            println!("{}", provenance_line(&args, &report, &ledger));
            println!("{line}");
        }
        Err(e) => {
            eprintln!("bagbench: {e}");
            std::process::exit(1);
        }
    }
}
