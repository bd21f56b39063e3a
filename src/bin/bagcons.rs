//! `bagcons` — command-line interface to the bag-consistency library,
//! a thin shell around [`bagcons::session::Session`].
//!
//! ```text
//! bagcons check [opts] <FILE>...          decide global consistency (dichotomy)
//! bagcons witness [opts] <FILE>...        print a witness bag, if one exists
//! bagcons diagnose [opts] <FILE>...       explain inconsistencies tuple-by-tuple
//! bagcons pairwise [opts] <FILE> <FILE>   cross-validate Lemma 2's five tests
//! bagcons schema [opts] <FILE>...         analyze the schema hypergraph
//! bagcons counterexample [opts] <FILE>... emit a pairwise-consistent but
//!                                         globally-inconsistent family over the
//!                                         same (cyclic) schema
//! bagcons watch [opts] <FILE>...          incremental mode: read multiplicity
//!                                         deltas from stdin, one per line, and
//!                                         re-emit a decision per delta
//! bagcons serve [opts] [<FILE>...]        long-lived daemon: host named datasets
//!                                         with copy-on-write generations and one
//!                                         delta-stream session per connection
//! bagcons snapshot save <OUT> <FILE>...   write the datasets as one binary
//!                                         snapshot (sealed arenas, content-hashed
//!                                         sections; loads with no re-parse/re-sort)
//! bagcons snapshot info <FILE>            print a snapshot's header + section table
//! bagcons snapshot verify <FILE>          check every section hash and decode
//!
//! options:
//!   --threads N         worker threads, 1..=256 (default: one per core, capped at 8)
//!   --budget N          node budget for the cyclic exact search
//!                       (default 50000000)
//!   --timeout MS        wall-clock budget in milliseconds for each decision:
//!                       `check`, `witness`, each delta under `watch`, each
//!                       decision under `serve`; on expiry the decision
//!                       degrades to `unknown` (exit 3 / status 3) instead of
//!                       hanging. `diagnose`, `pairwise`, `schema` and
//!                       `counterexample` ignore it
//!   --format text|json  output format (default text)
//!
//! serve options:
//!   --listen ADDR         TCP listen address (default 127.0.0.1:0;
//!                         the bound address is printed on startup)
//!   --unix PATH           unix-domain socket path (unix only)
//!   --name NAME           dataset name for the preloaded FILEs
//!                         (default "default")
//!   --worker-budget N     max concurrent decision computations
//!                         (default: host parallelism)
//!   --max-connections N   connection cap (default 64)
//!   --data-dir DIR        allowlist root for client-supplied `load`/`save`
//!                         paths (canonicalized; escapes answer `err usage:`)
//! ```
//!
//! Each FILE holds one bag in the tabular text format of
//! [`bagcons_core::io`] (header `A B #`, rows `1 2 : 3`,
//! `%`-comments) **or** a binary snapshot written by `bagcons snapshot
//! save` (auto-detected by magic bytes; a snapshot may carry several
//! bags). `watch` additionally reads delta lines
//! `<bag-index> <values...> : <±delta>` from stdin (0-based index in
//! FILE order, values in the bag's schema order, `: delta` defaulting
//! to `+1`) and re-decides incrementally after each one: every bag pair
//! keeps its keyed marginal difference on the shared attributes, and an
//! edit updates one key per pair instead of rebuilding from scratch. A
//! `batch` line opens a delta group that is applied — and decided — as
//! one atomic update on the matching `end` line.
//! Exit codes: 0 = yes/ok, 1 = no, 2 = usage or input error, 3 =
//! undecided (search budget exhausted or timeout expired); `watch` exits
//! with the code of its final decision.
//!
//! `serve` turns the same delta-stream loop into a daemon (see
//! [`bagcons_serve`]): clients speak a line protocol over TCP or a unix
//! socket (`open`, delta lines, `batch`…`end`, `check`, `sync`,
//! `commit`, …), readers share immutable dataset generations, and a
//! writer publishes the next generation copy-on-write. SIGINT/SIGTERM
//! (or a client's `shutdown`) drain in-flight requests before exit.

use bagcons::report::{Render, ReportFormat};
use bagcons::session::{Decision, Session, SessionError};
use bagcons_core::CoreError;
use std::process::ExitCode;

/// Default node budget for the cyclic branch's exact search.
const DEFAULT_BUDGET: u64 = 50_000_000;

struct Cli {
    cmd: String,
    files: Vec<String>,
    threads: Option<usize>,
    budget: u64,
    timeout: Option<std::time::Duration>,
    format: ReportFormat,
    // serve-only options
    listen: Option<String>,
    unix: Option<String>,
    name: String,
    worker_budget: Option<usize>,
    max_connections: Option<usize>,
    data_dir: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            return usage();
        }
    };

    // serve builds its own sessions (one per connection, via the
    // daemon's shared loader), so it branches before the CLI session;
    // snapshot subcommands manage files, not decisions.
    if cli.cmd == "serve" {
        return cmd_serve(&cli);
    }
    if cli.cmd == "snapshot" {
        return cmd_snapshot(&cli);
    }

    let mut builder = Session::builder().budget(cli.budget);
    if let Some(threads) = cli.threads {
        builder = builder.threads(threads);
    }
    if let Some(timeout) = cli.timeout {
        builder = builder.deadline(timeout);
    }
    let mut session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    // One typed loading path for every file argument: text bags parse
    // through the session interner and seal; snapshot files (detected
    // by magic bytes) decode directly, possibly several bags per file.
    let mut bags = Vec::new();
    for path in &cli.files {
        match session.load_path(path) {
            Ok(loaded) => bags.extend(loaded),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if cli.cmd == "watch" {
        // watch owns the bags: the stream mutates them delta by delta.
        return cmd_watch(&session, bags, cli.format);
    }
    let refs: Vec<&bagcons_core::Bag> = bags.iter().collect();

    match cli.cmd.as_str() {
        "check" => cmd_check(&session, &refs, cli.format),
        "witness" => cmd_witness(&session, &refs, cli.format),
        "diagnose" => cmd_diagnose(&session, &refs, cli.format),
        "pairwise" => cmd_pairwise(&session, &refs, cli.format),
        "schema" => cmd_schema(&session, &refs, cli.format),
        "counterexample" => cmd_counterexample(&session, &refs, cli.format),
        other => {
            eprintln!("error: unknown command {other:?}");
            usage()
        }
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut threads = None;
    let mut budget = DEFAULT_BUDGET;
    let mut timeout = None;
    let mut format = ReportFormat::Text;
    let mut listen = None;
    let mut unix = None;
    let mut name = "default".to_string();
    let mut worker_budget = None;
    let mut max_connections = None;
    let mut data_dir = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let value = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value")),
            }
        };
        match flag {
            "--threads" => {
                threads = Some(
                    value(&mut it)?
                        .parse::<usize>()
                        .map_err(|_| "--threads expects an unsigned integer".to_string())?,
                );
            }
            "--budget" => {
                budget = value(&mut it)?
                    .parse::<u64>()
                    .map_err(|_| "--budget expects an unsigned integer".to_string())?;
            }
            "--timeout" => {
                let ms = value(&mut it)?
                    .parse::<u64>()
                    .map_err(|_| "--timeout expects milliseconds".to_string())?;
                timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--format" => {
                format = value(&mut it)?.parse::<ReportFormat>()?;
            }
            "--listen" => listen = Some(value(&mut it)?),
            "--unix" => unix = Some(value(&mut it)?),
            "--name" => name = value(&mut it)?,
            "--worker-budget" => {
                worker_budget = Some(
                    value(&mut it)?
                        .parse::<usize>()
                        .map_err(|_| "--worker-budget expects an unsigned integer".to_string())?,
                );
            }
            "--max-connections" => {
                max_connections =
                    Some(value(&mut it)?.parse::<usize>().map_err(|_| {
                        "--max-connections expects an unsigned integer".to_string()
                    })?);
            }
            "--data-dir" => data_dir = Some(value(&mut it)?),
            f if f.starts_with("--") => return Err(format!("unknown option {f}")),
            _ => positional.push(arg.clone()),
        }
    }
    let mut positional = positional.into_iter();
    let cmd = positional.next().ok_or(String::new())?;
    let files: Vec<String> = positional.collect();
    // serve can start with an empty registry (clients `load` at runtime);
    // every other command needs at least one bag file.
    if files.is_empty() && cmd != "serve" {
        return Err(String::new());
    }
    Ok(Cli {
        cmd,
        files,
        threads,
        budget,
        timeout,
        format,
        listen,
        unix,
        name,
        worker_budget,
        max_connections,
        data_dir,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bagcons <check|witness|diagnose|pairwise|schema|counterexample|watch|serve|snapshot> \
         [--threads N] [--budget N] [--timeout MS] [--format text|json] <FILE>...\n\
         FILEs hold bags in tabular text form (`A B #` header, `1 2 : 3` rows) or\n\
         binary snapshots written by `bagcons snapshot save` (auto-detected).\n\
         watch reads `<bag-index> <values...> : <±delta>` lines from stdin and\n\
         re-emits a decision per delta (incremental re-check; `: +1` default);\n\
         `batch` ... `end` groups deltas into one atomic update.\n\
         serve hosts datasets over TCP/unix sockets ([--listen ADDR] [--unix PATH]\n\
         [--name NAME] [--worker-budget N] [--max-connections N] [--data-dir DIR]);\n\
         FILEs, if any, are preloaded as dataset NAME.\n\
         snapshot save <OUT> <FILE>... | snapshot info <FILE> | snapshot verify <FILE>."
    );
    ExitCode::from(2)
}

/// Prints a rendering, newline-terminating exactly once.
fn emit(rendered: &str) {
    if rendered.ends_with('\n') {
        print!("{rendered}");
    } else {
        println!("{rendered}");
    }
}

fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

fn cmd_check(session: &Session, refs: &[&bagcons_core::Bag], format: ReportFormat) -> ExitCode {
    match session.check(refs) {
        Ok(outcome) => {
            emit(&outcome.render(format, session.names()));
            ExitCode::from(outcome.decision.exit_code())
        }
        Err(e) => fail(e),
    }
}

fn cmd_witness(session: &Session, refs: &[&bagcons_core::Bag], format: ReportFormat) -> ExitCode {
    match session.witness(refs) {
        Ok(outcome) => {
            let code = outcome.check.decision.exit_code();
            match (format, outcome.check.decision) {
                // legacy text behavior: failures explain themselves on
                // stderr so stdout stays parseable-bag-or-empty
                (ReportFormat::Text, Decision::Consistent) => emit(&outcome.text(session.names())),
                (ReportFormat::Text, _) => eprintln!("{}", outcome.text(session.names())),
                (ReportFormat::Json, _) => emit(&outcome.json(session.names())),
            }
            ExitCode::from(code)
        }
        Err(e) => fail(e),
    }
}

fn cmd_diagnose(session: &Session, refs: &[&bagcons_core::Bag], format: ReportFormat) -> ExitCode {
    match session.diagnose(refs) {
        Ok(outcome) => {
            emit(&outcome.render(format, session.names()));
            ExitCode::from(u8::from(!outcome.diagnosis.is_pairwise_consistent()))
        }
        Err(e) => fail(e),
    }
}

fn cmd_pairwise(session: &Session, refs: &[&bagcons_core::Bag], format: ReportFormat) -> ExitCode {
    let [r, s] = refs else {
        eprintln!("error: pairwise needs exactly two bag files");
        return ExitCode::from(2);
    };
    match session.pairwise_report(r, s) {
        Ok(outcome) => {
            emit(&outcome.render(format, session.names()));
            ExitCode::from(u8::from(!outcome.report.marginals_equal))
        }
        Err(SessionError::Core(CoreError::Aborted(reason))) => {
            eprintln!("undecided: {reason}");
            ExitCode::from(3)
        }
        Err(e) => fail(e),
    }
}

fn cmd_schema(session: &Session, refs: &[&bagcons_core::Bag], format: ReportFormat) -> ExitCode {
    let outcome = session.schema_report(refs);
    emit(&outcome.render(format, session.names()));
    ExitCode::SUCCESS
}

fn cmd_watch(session: &Session, bags: Vec<bagcons_core::Bag>, format: ReportFormat) -> ExitCode {
    use std::io::BufRead;

    let mut stream = match session.open_stream(bags) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    // One opening line so consumers know the starting state, then one
    // line per delta.
    match format {
        ReportFormat::Text => println!(
            "open: {} ({} bags, {} branch)",
            stream.decision().as_str(),
            stream.bags().len(),
            stream.branch().as_str()
        ),
        ReportFormat::Json => println!(
            "{{\"report\":\"open\",\"decision\":\"{}\",\"branch\":\"{}\",\"bags\":{}}}",
            stream.decision().as_str(),
            stream.branch().as_str(),
            stream.bags().len()
        ),
    }
    let stdin = std::io::stdin();
    // `batch` ... `end` groups deltas into one atomic update: pair
    // repair (and the decision) run once on `end` instead of per line.
    let mut batch: Option<Vec<(usize, bagcons_core::DeltaSet)>> = None;
    for (i, line) in stdin.lock().lines().enumerate() {
        let line_no = i + 1;
        let line = match line {
            Ok(l) => l,
            Err(e) => return fail(format!("stdin: {e}")),
        };
        match line.split('%').next().unwrap_or("").trim() {
            "batch" => {
                if batch.is_some() {
                    return fail(format!(
                        "stdin line {line_no}: batch already open (finish it with `end`)"
                    ));
                }
                batch = Some(Vec::new());
                continue;
            }
            "end" => {
                let Some(edits) = batch.take() else {
                    return fail(format!(
                        "stdin line {line_no}: no open batch (start one with `batch`)"
                    ));
                };
                match stream.update_batch(&edits) {
                    Ok(outcome) => emit(&outcome.render(format, session.names())),
                    Err(e) => return fail(format!("stdin line {line_no}: {e}")),
                }
                continue;
            }
            _ => {}
        }
        // Shared grammar with the daemon:
        // parsing, the range check, and DeltaSet assembly all live in
        // bagcons::protocol, so every front end rejects the same input
        // with the same words.
        let (index, set) = match bagcons::protocol::parse_delta_edit(&line, line_no, stream.bags())
        {
            Ok(Some(edit)) => edit,
            Ok(None) => continue,
            // The message names the line already.
            Err(e) => return fail(format!("stdin {e}")),
        };
        if let Some(edits) = batch.as_mut() {
            edits.push((index, set));
            continue;
        }
        match stream.update(index, &set) {
            Ok(outcome) => emit(&outcome.render(format, session.names())),
            Err(e) => return fail(format!("stdin line {line_no}: {e}")),
        }
    }
    if batch.is_some() {
        return fail("stdin ended with an open batch (missing `end`)");
    }
    ExitCode::from(stream.decision().exit_code())
}

fn cmd_serve(cli: &Cli) -> ExitCode {
    let mut opts = bagcons_serve::ServeOptions::default();
    if let Some(addr) = &cli.listen {
        opts.tcp = Some(addr.clone());
    } else if cli.unix.is_some() {
        // --unix without --listen means unix-only.
        opts.tcp = None;
    }
    opts.unix = cli.unix.as_ref().map(std::path::PathBuf::from);
    opts.threads = cli.threads;
    opts.budget = Some(cli.budget);
    opts.timeout = cli.timeout;
    opts.worker_budget = cli.worker_budget;
    if let Some(cap) = cli.max_connections {
        opts.max_connections = cap;
    }
    opts.data_dir = cli.data_dir.as_ref().map(std::path::PathBuf::from);
    let server = match bagcons_serve::Server::bind(opts) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if !cli.files.is_empty() {
        match server.preload(&cli.name, &cli.files) {
            Ok(bags) => eprintln!("loaded dataset {:?} ({bags} bags)", cli.name),
            Err(e) => return fail(e),
        }
    }
    // SIGINT/SIGTERM request the same graceful drain as the `shutdown`
    // command: stop accepting, finish in-flight requests, then exit.
    #[cfg(unix)]
    bagcons_serve::server::install_signal_handlers();
    // After the preload, so that start-up allocates as it always has.
    bagcons_serve::server::tune_allocator();
    if let Some(addr) = server.local_addr() {
        println!("listening on {addr}");
    }
    if let Some(path) = &cli.unix {
        println!("listening on unix:{path}");
    }
    // Piped stdout is block-buffered: supervisors wait for this line to
    // learn the bound port, so push it out before blocking in run().
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// `bagcons snapshot save|info|verify`: write, describe, or fully
/// validate a binary snapshot. Lives outside the decision session —
/// `save` builds its own loader session; `info`/`verify` never build
/// one.
fn cmd_snapshot(cli: &Cli) -> ExitCode {
    let Some((action, rest)) = cli.files.split_first() else {
        eprintln!("error: snapshot needs an action (save|info|verify)");
        return ExitCode::from(2);
    };
    match action.as_str() {
        "save" => {
            let Some((out, inputs)) = rest.split_first() else {
                eprintln!("error: snapshot save needs an output file and at least one input");
                return ExitCode::from(2);
            };
            if inputs.is_empty() {
                eprintln!("error: snapshot save needs at least one input file");
                return ExitCode::from(2);
            }
            let mut builder = Session::builder().budget(cli.budget);
            if let Some(threads) = cli.threads {
                builder = builder.threads(threads);
            }
            let mut session = match builder.build() {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            let mut bags = Vec::new();
            for path in inputs {
                match session.load_path(path) {
                    Ok(loaded) => bags.extend(loaded),
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            let refs: Vec<&bagcons_core::Bag> = bags.iter().collect();
            if let Err(e) = session.write_snapshot(out, &refs) {
                return fail(format!("{out}: {e}"));
            }
            eprintln!("wrote {out} ({} bags)", bags.len());
            ExitCode::SUCCESS
        }
        "info" | "verify" => {
            let [file] = rest else {
                eprintln!("error: snapshot {action} needs exactly one file");
                return ExitCode::from(2);
            };
            let bytes = match std::fs::read(file) {
                Ok(b) => b,
                Err(e) => return fail(format!("cannot read {file}: {e}")),
            };
            let result = if action == "verify" {
                bagcons_snap::verify(&bytes)
            } else {
                bagcons_snap::inspect(&bytes)
            };
            let info = match result {
                Ok(info) => info,
                Err(e) => {
                    // Corruption is a "no" answer, not a usage error.
                    eprintln!("invalid snapshot {file}: {e}");
                    return ExitCode::from(1);
                }
            };
            match cli.format {
                ReportFormat::Text => {
                    println!(
                        "snapshot {file}: version={} bytes={} bags={} pairs={} flows={}{}",
                        info.version,
                        info.file_len,
                        info.bag_count,
                        info.pair_count,
                        if info.has_flows { "yes" } else { "no" },
                        if action == "verify" {
                            " verified=yes"
                        } else {
                            ""
                        },
                    );
                    for s in &info.sections {
                        println!(
                            "  section {} index={} offset={} len={} hash={:016x}",
                            s.name, s.index, s.offset, s.len, s.hash
                        );
                    }
                }
                ReportFormat::Json => {
                    use bagcons::report::Json;
                    let mut j = Json::new();
                    j.begin_object();
                    j.field_str("report", "snapshot");
                    j.field_str("action", action);
                    j.field_str("file", file);
                    j.field_u64("version", u64::from(info.version));
                    j.field_u64("bytes", info.file_len);
                    j.field_u64("bags", u64::from(info.bag_count));
                    j.field_u64("pairs", u64::from(info.pair_count));
                    j.field_bool("flows", info.has_flows);
                    j.field_bool("verified", action == "verify");
                    j.key("sections");
                    j.begin_array();
                    for s in &info.sections {
                        j.begin_object();
                        j.field_str("kind", s.name);
                        j.field_u64("index", u64::from(s.index));
                        j.field_u64("offset", s.offset);
                        j.field_u64("len", s.len);
                        j.field_str("hash", &format!("{:016x}", s.hash));
                        j.end_object();
                    }
                    j.end_array();
                    j.end_object();
                    println!("{}", j.finish());
                }
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown snapshot action {other:?} (save|info|verify)");
            ExitCode::from(2)
        }
    }
}

fn cmd_counterexample(
    session: &Session,
    refs: &[&bagcons_core::Bag],
    format: ReportFormat,
) -> ExitCode {
    match session.counterexample(refs) {
        Ok(outcome) => {
            emit(&outcome.render(format, session.names()));
            ExitCode::from(u8::from(outcome.family.is_none()))
        }
        Err(e) => fail(e),
    }
}
