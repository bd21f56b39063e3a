//! The daemon: listeners, the accept loop, per-connection request
//! handling, admission control, and graceful shutdown.
//!
//! Thread model (std-only, no async runtime): one accept loop thread
//! (the caller of [`Server::run`]) polling non-blocking listeners, plus
//! one thread per live connection. Connections read with a short socket
//! timeout so they observe the shutdown flag between requests without
//! any request ever being cut mid-flight: shutdown stops the accept
//! loop, lets each connection finish and flush the request it is
//! serving, then joins every connection thread.

use crate::protocol::{self, Command};
use crate::registry::{Dataset, Registry};
use bagcons::report::ReportFormat;
use bagcons::session::{Session, SessionError};
use bagcons::stream::ConsistencyStream;
use bagcons_core::{AttrNames, Bag, DeltaSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Largest number of deltas one `batch … end` group may queue; past it
/// the daemon answers `err busy` (bounded per-session queues are part of
/// the admission-control contract).
pub const MAX_BATCH: usize = 4096;

/// How often idle connections and the accept loop wake to poll the
/// shutdown flag. Latency-only: correctness never depends on it.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// TCP listen address (e.g. `127.0.0.1:0`); `None` for unix-only.
    pub tcp: Option<String>,
    /// Unix-domain socket path (`None` for TCP-only; ignored off unix).
    pub unix: Option<std::path::PathBuf>,
    /// Worker-thread cap per decision (session `threads`).
    pub threads: Option<usize>,
    /// Node budget for the cyclic branch's exact search.
    pub budget: Option<u64>,
    /// Default per-request wall-clock budget (sessions can override it
    /// with the `timeout` command).
    pub timeout: Option<Duration>,
    /// Global decision-permit count (the worker budget); `None` sizes it
    /// to the host parallelism so N connections cannot oversubscribe the
    /// executor.
    pub worker_budget: Option<usize>,
    /// Connection cap; excess connections are refused with `err busy`.
    pub max_connections: usize,
    /// Allowlist root for client-supplied dataset paths (`load`/`save`):
    /// when set, paths are canonicalized and must fall under this
    /// directory — violations answer `err usage:` (filesystem failures
    /// during the resolution answer `err io:` instead). `None` (the
    /// default) trusts paths as before, for operator-driven deployments.
    /// Operator preloads ([`Server::preload`]) always bypass the check.
    pub data_dir: Option<PathBuf>,
}

impl ServeOptions {
    /// A session under these options (thread count and node budget) and
    /// `timeout`: the loader's and every connection's.
    fn session(&self, timeout: Option<Duration>) -> Result<Session, SessionError> {
        let mut b = Session::builder();
        if let Some(threads) = self.threads {
            b = b.threads(threads);
        }
        if let Some(nodes) = self.budget {
            b = b.budget(nodes);
        }
        if let Some(t) = timeout {
            b = b.deadline(t);
        }
        Ok(b.build()?)
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
            threads: None,
            budget: None,
            timeout: None,
            worker_budget: None,
            max_connections: 64,
            data_dir: None,
        }
    }
}

/// A counting semaphore bounding concurrent decision computations
/// daemon-wide (connections hold a permit only while a decision-bearing
/// request runs; waiters queue in wakeup order).
#[derive(Debug)]
pub struct WorkerBudget {
    permits: Mutex<usize>,
    available: Condvar,
}

impl WorkerBudget {
    /// A budget of `permits` concurrent decisions (floored at 1).
    pub fn new(permits: usize) -> Self {
        WorkerBudget {
            permits: Mutex::new(permits.max(1)),
            available: Condvar::new(),
        }
    }

    /// Blocks until a permit is free; the guard returns it on drop.
    pub fn acquire(&self) -> WorkerPermit<'_> {
        let mut permits = self.permits.lock().expect("budget lock poisoned");
        while *permits == 0 {
            permits = self.available.wait(permits).expect("budget lock poisoned");
        }
        *permits -= 1;
        WorkerPermit { budget: self }
    }
}

/// RAII permit from [`WorkerBudget::acquire`].
pub struct WorkerPermit<'a> {
    budget: &'a WorkerBudget,
}

impl Drop for WorkerPermit<'_> {
    fn drop(&mut self) {
        let mut permits = self.budget.permits.lock().expect("budget lock poisoned");
        *permits += 1;
        self.budget.available.notify_one();
    }
}

/// Set asynchronously by the process signal handlers (unix only); the
/// accept loop treats it exactly like the `shutdown` request.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_shutdown_signal(_signum: i32) {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request a graceful drain (the
/// same path as the `shutdown` command). Process-global; meant for the
/// CLI entry point, not for embedded/test servers.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

/// Makes glibc keep freed heap memory for reuse instead of returning it
/// to the kernel after each request. Process-global; meant for the CLI
/// entry point once the preload is done, like
/// [`install_signal_handlers`]. Returns whether glibc took both
/// settings (always `false` off glibc, where nothing is changed).
///
/// A session's first edit after `open`, `sync` or `commit` copies the
/// bags and pair states it shares with a generation, and the copies it
/// replaced are freed when that generation is dropped: a few hundred KiB
/// per block, every few requests. Under glibc's defaults those frees
/// trim the heaps or unmap the blocks, and the next copies fault their
/// pages back in: about 200,000 minor faults per 30 s run of the
/// `serve_mixed` benchmark, against about 40 with the thresholds fixed
/// (the daemon then faults only while its heaps grow). A fault costs
/// whatever the host charges for a fresh page at that moment, so that
/// share of each request varied from run to run. Setting the trim
/// threshold turns off glibc's sliding mmap threshold, so that one is
/// fixed too; at 1 MiB a stream built at `open` peaks no higher than
/// under the defaults, which a threshold above the growing pair tables
/// would not.
pub fn tune_allocator() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // Below this size glibc serves an allocation from its heaps, at
        // or above it from a fresh `mmap` that `free` unmaps again.
        const MMAP_THRESHOLD: i32 = 1 << 20;
        // Free memory glibc keeps at the top of a heap before it hands
        // the pages back to the kernel.
        const TRIM_THRESHOLD: i32 = 64 << 20;
        // SAFETY: mallopt only updates glibc's allocator parameters,
        // under the allocator's own lock.
        unsafe {
            let mmap = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
            let trim = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD);
            mmap == 1 && trim == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    registry: Registry,
    /// One loader for all datasets so attribute names intern identically
    /// across files loaded by different connections.
    loader: Mutex<Session>,
    budget: WorkerBudget,
    shutdown: AtomicBool,
    connections: AtomicUsize,
    opts: ServeOptions,
}

/// Typed path-authorization failure: a policy violation is a usage
/// error; a filesystem failure during resolution is an I/O error — the
/// two answer distinct `err` kinds so clients can tell a confinement
/// refusal from a missing file.
enum AuthError {
    Usage(String),
    Io(String),
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }

    /// Resolves a client-supplied path against the `--data-dir`
    /// allowlist. Without a configured data dir the path passes through
    /// untouched. With one, relative paths resolve under it, the result
    /// is canonicalized (the parent, for write targets that do not exist
    /// yet), and anything escaping the root — `..` hops, absolute paths
    /// elsewhere, symlinks out — is rejected as [`AuthError::Usage`]
    /// (`err usage:`), while filesystem failures along the way (a
    /// missing file, an unreadable directory) are [`AuthError::Io`]
    /// (`err io:`).
    fn authorize(&self, raw: &str, for_write: bool) -> Result<PathBuf, AuthError> {
        let Some(root) = &self.opts.data_dir else {
            return Ok(PathBuf::from(raw));
        };
        let root = root
            .canonicalize()
            .map_err(|e| AuthError::Io(format!("data dir {}: {e}", root.display())))?;
        let raw_path = Path::new(raw);
        // `..` hops are a confinement violation lexically — reject them
        // before touching the filesystem, so an escape to a nonexistent
        // path is still `usage`, not `io`.
        if raw_path
            .components()
            .any(|c| matches!(c, std::path::Component::ParentDir))
        {
            return Err(AuthError::Usage(format!("{raw:?} escapes the data dir")));
        }
        let joined = if raw_path.is_absolute() {
            raw_path.to_path_buf()
        } else {
            root.join(raw_path)
        };
        let real = if for_write {
            // The target may not exist yet; canonicalize its parent and
            // keep the (plain) file name.
            let file_name = joined
                .file_name()
                .filter(|n| *n != ".." && *n != ".")
                .ok_or_else(|| AuthError::Usage(format!("{raw:?} is not a file path")))?
                .to_os_string();
            joined
                .parent()
                .ok_or_else(|| AuthError::Usage(format!("{raw:?} is not a file path")))?
                .canonicalize()
                .map_err(|e| AuthError::Io(format!("{raw:?}: {e}")))?
                .join(file_name)
        } else {
            joined
                .canonicalize()
                .map_err(|e| AuthError::Io(format!("{raw:?}: {e}")))?
        };
        if !real.starts_with(&root) {
            return Err(AuthError::Usage(format!("{raw:?} escapes the data dir")));
        }
        Ok(real)
    }

    /// Loads dataset files through the shared loader — text bags parse
    /// and seal, snapshots decode directly (kind auto-detected by magic
    /// bytes; a snapshot file may carry several bags) — then registers
    /// the lot as a dataset. The error carries the `err` kind to answer
    /// with: filesystem failures are `io`, everything else `load`.
    fn load_dataset(
        &self,
        name: &str,
        files: &[PathBuf],
    ) -> Result<Arc<Dataset>, (&'static str, String)> {
        let mut bags: Vec<Arc<Bag>> = Vec::with_capacity(files.len());
        {
            let mut loader = self.loader.lock().expect("loader lock poisoned");
            for path in files {
                let loaded = loader.load_path(path).map_err(|e| {
                    let kind = match &e {
                        SessionError::Io(_) => "io",
                        _ => "load",
                    };
                    (kind, format!("{}: {e}", path.display()))
                })?;
                bags.extend(loaded.into_iter().map(Arc::new));
            }
        }
        self.registry
            .insert(name, bags)
            .map_err(|_| ("load", format!("dataset {name:?} already exists")))
    }
}

/// A handle for requesting shutdown from outside the accept loop.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting, finish in-flight
    /// requests, join connection threads. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl ClientStream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn try_clone(&self) -> io::Result<ClientStream> {
        Ok(match self {
            ClientStream::Tcp(s) => ClientStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            ClientStream::Unix(s) => ClientStream::Unix(s.try_clone()?),
        })
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// Timeout-tolerant line framing: buffers raw reads and yields complete
/// lines, surviving reads that time out mid-line (the poll that lets
/// idle connections observe shutdown).
struct LineReader {
    stream: ClientStream,
    buf: Vec<u8>,
    start: usize,
}

impl LineReader {
    fn new(stream: ClientStream) -> Self {
        LineReader {
            stream,
            buf: Vec::with_capacity(1024),
            start: 0,
        }
    }

    /// The next complete line (without the terminator), `None` on EOF or
    /// when shutdown is observed while idle between requests.
    fn next_line(&mut self, shared: &Shared) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + pos;
                let mut line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
                if line.ends_with('\r') {
                    line.pop();
                }
                self.start = end + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: serve a final unterminated line, if any.
                    if self.start < self.buf.len() {
                        let line = String::from_utf8_lossy(&self.buf[self.start..]).into_owned();
                        self.buf.clear();
                        self.start = 0;
                        return Ok(Some(line));
                    }
                    return Ok(None);
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle poll tick. A request is "in flight" only once
                    // its full line has arrived, so closing here never
                    // cuts one off.
                    if shared.is_shutdown() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// This connection's open session: the stream plus the generation it was
/// opened from (the CAS parent for `commit`).
struct OpenSession {
    dataset: Arc<Dataset>,
    parent_seq: u64,
    stream: ConsistencyStream,
}

/// Per-connection state.
struct Conn {
    session: Session,
    format: ReportFormat,
    timeout: Option<Duration>,
    open: Option<OpenSession>,
    batch: Option<Vec<(usize, DeltaSet)>>,
    /// Empty name table for rendering (update outcomes render without
    /// attribute names; dataset files intern through the shared loader).
    names: AttrNames,
    /// Running request count, used as the "line number" in delta
    /// diagnostics.
    requests: usize,
}

/// What the dispatcher wants done with a response.
enum Action {
    /// No response owed (blank line, comment, queued batch delta).
    Silent,
    /// Write one response line, keep serving.
    Reply(String),
    /// Write one response line, then close this connection.
    CloseConn(String),
    /// Write one response line, then drain the whole daemon.
    ShutdownDaemon(String),
}

fn handle_command(conn: &mut Conn, shared: &Shared, cmd: Command) -> Action {
    let fmt = conn.format;
    let err = |kind: &str, msg: &str| Action::Reply(protocol::error_response(fmt, kind, msg));
    match cmd {
        Command::Ping => Action::Reply(protocol::ok_response(fmt, "pong", &[])),
        Command::Quit => Action::CloseConn(protocol::ok_response(fmt, "bye", &[])),
        Command::Shutdown => Action::ShutdownDaemon(protocol::ok_response(fmt, "shutdown", &[])),
        Command::Format(f) => {
            conn.format = f;
            Action::Reply(protocol::ok_response(
                f,
                "format",
                &[(
                    "format",
                    match f {
                        ReportFormat::Text => "text".to_string(),
                        ReportFormat::Json => "json".to_string(),
                    },
                )],
            ))
        }
        Command::Timeout(t) => {
            conn.timeout = t;
            match shared.opts.session(t) {
                Ok(s) => conn.session = s,
                Err(e) => return err("internal", &e.to_string()),
            }
            if let Some(open) = &mut conn.open {
                open.stream.set_time_budget(t);
            }
            let ms = match t {
                Some(t) => t.as_millis().to_string(),
                None => "none".to_string(),
            };
            Action::Reply(protocol::ok_response(fmt, "timeout", &[("ms", ms)]))
        }
        Command::Load { name, files } => {
            let mut paths = Vec::with_capacity(files.len());
            for file in &files {
                match shared.authorize(file, false) {
                    Ok(p) => paths.push(p),
                    Err(AuthError::Usage(msg)) => return err("usage", &msg),
                    Err(AuthError::Io(msg)) => return err("io", &msg),
                }
            }
            match shared.load_dataset(&name, &paths) {
                Ok(ds) => {
                    let generation = ds.current();
                    Action::Reply(protocol::ok_response(
                        fmt,
                        "load",
                        &[
                            ("dataset", name),
                            ("gen", generation.seq.to_string()),
                            ("bags", generation.bags.len().to_string()),
                        ],
                    ))
                }
                Err((kind, msg)) => err(kind, &msg),
            }
        }
        Command::Save { name, file } => {
            let Some(dataset) = shared.registry.get(&name) else {
                return err("save", &format!("unknown dataset {name:?}"));
            };
            let path = match shared.authorize(&file, true) {
                Ok(p) => p,
                Err(AuthError::Usage(msg)) => return err("usage", &msg),
                Err(AuthError::Io(msg)) => return err("io", &msg),
            };
            let generation = dataset.current();
            let refs: Vec<&Bag> = generation.bags.iter().map(|b| b.as_ref()).collect();
            let written = {
                let loader = shared.loader.lock().expect("loader lock poisoned");
                loader.write_snapshot(&path, &refs)
            };
            match written {
                Ok(()) => Action::Reply(protocol::ok_response(
                    fmt,
                    "save",
                    &[
                        ("dataset", name),
                        ("gen", generation.seq.to_string()),
                        ("bags", generation.bags.len().to_string()),
                        ("file", path.display().to_string()),
                    ],
                )),
                // A filesystem failure writing the snapshot is `err io:`
                // (the path was authorized; the disk said no), distinct
                // from `err save:` semantic failures.
                Err(SessionError::Io(e)) => err("io", &e.to_string()),
                Err(SessionError::Snap(bagcons_snap::SnapError::Io(e))) => {
                    err("io", &e.to_string())
                }
                Err(e) => err("save", &e.to_string()),
            }
        }
        Command::List => {
            let rendered: Vec<String> = shared
                .registry
                .list()
                .into_iter()
                .map(|(name, seq, bags)| format!("{name}:gen={seq}:bags={bags}"))
                .collect();
            Action::Reply(protocol::ok_response(
                fmt,
                "list",
                &[("datasets", rendered.join(","))],
            ))
        }
        Command::Open(name) => {
            let Some(dataset) = shared.registry.get(&name) else {
                return err("open", &format!("unknown dataset {name:?}"));
            };
            let generation = dataset.current();
            let _permit = shared.budget.acquire();
            match generation.fork(&conn.session) {
                Ok(stream) => {
                    let reply = protocol::ok_response(
                        fmt,
                        "open",
                        &[
                            ("dataset", name),
                            ("gen", generation.seq.to_string()),
                            ("bags", generation.bags.len().to_string()),
                            ("decision", stream.decision().as_str().to_string()),
                            ("branch", stream.branch().as_str().to_string()),
                            ("status", stream.decision().exit_code().to_string()),
                        ],
                    );
                    conn.open = Some(OpenSession {
                        dataset,
                        parent_seq: generation.seq,
                        stream,
                    });
                    conn.batch = None;
                    Action::Reply(reply)
                }
                Err(e) => err("open", &e.to_string()),
            }
        }
        Command::Sync => {
            let Some(open) = conn.open.as_mut() else {
                return err("usage", "no open session (use `open <dataset>`)");
            };
            let generation = open.dataset.current();
            let _permit = shared.budget.acquire();
            match generation.fork(&conn.session) {
                Ok(stream) => {
                    open.parent_seq = generation.seq;
                    open.stream = stream;
                    conn.batch = None;
                    let open = conn.open.as_ref().expect("just synced");
                    Action::Reply(protocol::ok_response(
                        fmt,
                        "sync",
                        &[
                            ("dataset", open.dataset.name().to_string()),
                            ("gen", generation.seq.to_string()),
                            ("decision", open.stream.decision().as_str().to_string()),
                            ("branch", open.stream.branch().as_str().to_string()),
                            ("status", open.stream.decision().exit_code().to_string()),
                        ],
                    ))
                }
                Err(e) => err("sync", &e.to_string()),
            }
        }
        Command::Commit => {
            let Some(open) = conn.open.as_mut() else {
                return err("usage", "no open session (use `open <dataset>`)");
            };
            let _permit = shared.budget.acquire();
            match open.dataset.publish(open.parent_seq, &open.stream) {
                Ok(generation) => {
                    open.parent_seq = generation.seq;
                    Action::Reply(protocol::ok_response(
                        fmt,
                        "commit",
                        &[
                            ("dataset", open.dataset.name().to_string()),
                            ("gen", generation.seq.to_string()),
                        ],
                    ))
                }
                Err(current) => err(
                    "conflict",
                    &format!(
                        "dataset {:?} is at gen {current}, session opened at gen {} \
                         (sync to retry)",
                        open.dataset.name(),
                        open.parent_seq
                    ),
                ),
            }
        }
        Command::Check => {
            let Some(open) = conn.open.as_mut() else {
                return err("usage", "no open session (use `open <dataset>`)");
            };
            let _permit = shared.budget.acquire();
            match open.stream.update_batch(&[]) {
                Ok(out) => Action::Reply(protocol::decision_response(fmt, &out, &conn.names)),
                Err(SessionError::Core(bagcons_core::CoreError::Aborted(reason))) => {
                    Action::Reply(protocol::aborted_response(fmt, reason))
                }
                Err(e) => err("check", &e.to_string()),
            }
        }
        Command::BatchBegin => {
            if conn.open.is_none() {
                return err("usage", "no open session (use `open <dataset>`)");
            }
            if conn.batch.is_some() {
                return err("protocol", "batch already open (finish it with `end`)");
            }
            conn.batch = Some(Vec::new());
            Action::Silent
        }
        Command::BatchEnd => {
            let Some(edits) = conn.batch.take() else {
                return err("protocol", "no open batch (start one with `batch`)");
            };
            let open = conn.open.as_mut().expect("batch implies open session");
            let _permit = shared.budget.acquire();
            match open.stream.update_batch(&edits) {
                Ok(out) => Action::Reply(protocol::decision_response(fmt, &out, &conn.names)),
                Err(SessionError::Core(bagcons_core::CoreError::Aborted(reason))) => {
                    Action::Reply(protocol::aborted_response(fmt, reason))
                }
                Err(e) => err("update", &e.to_string()),
            }
        }
        Command::Delta(raw) => {
            let Some(open) = conn.open.as_mut() else {
                return err("usage", "no open session (use `open <dataset>`)");
            };
            // One shared grammar with the `watch` CLI and the worker
            // transport: parsing, the bag-index range check, and the
            // DeltaSet assembly all live in `bagcons::protocol`.
            let (index, set) = match bagcons::protocol::parse_delta_edit(
                &raw,
                conn.requests,
                open.stream.bags(),
            ) {
                Ok(Some(edit)) => edit,
                // parse_command only routes nonempty digit-led lines
                // here
                Ok(None) => return Action::Silent,
                Err(msg) => return err("protocol", &msg),
            };
            if let Some(batch) = conn.batch.as_mut() {
                if batch.len() >= MAX_BATCH {
                    return err(
                        "busy",
                        &format!("batch exceeds {MAX_BATCH} deltas; `end` it first"),
                    );
                }
                batch.push((index, set));
                return Action::Silent;
            }
            let _permit = shared.budget.acquire();
            match open.stream.update(index, &set) {
                Ok(out) => Action::Reply(protocol::decision_response(fmt, &out, &conn.names)),
                Err(SessionError::Core(bagcons_core::CoreError::Aborted(reason))) => {
                    Action::Reply(protocol::aborted_response(fmt, reason))
                }
                Err(e) => err("update", &e.to_string()),
            }
        }
        Command::Bulk(deltas) => {
            let Some(open) = conn.open.as_mut() else {
                return err("usage", "no open session (use `open <dataset>`)");
            };
            if conn.batch.is_some() {
                return err(
                    "protocol",
                    "bulk inside an open batch (finish it with `end`)",
                );
            }
            if deltas.len() > MAX_BATCH {
                return err("busy", &format!("bulk exceeds {MAX_BATCH} deltas"));
            }
            // All-or-nothing: every delta parses before any applies, so a
            // malformed payload never half-commits.
            let mut edits: Vec<(usize, DeltaSet)> = Vec::with_capacity(deltas.len());
            for (offset, raw) in deltas.iter().enumerate() {
                match bagcons::protocol::parse_delta_edit(
                    raw,
                    conn.requests + offset,
                    open.stream.bags(),
                ) {
                    Ok(Some(edit)) => edits.push(edit),
                    Ok(None) => {}
                    Err(msg) => return err("protocol", &msg),
                }
            }
            let _permit = shared.budget.acquire();
            match open.stream.update_batch(&edits) {
                Ok(out) => Action::Reply(protocol::decision_response(fmt, &out, &conn.names)),
                Err(SessionError::Core(bagcons_core::CoreError::Aborted(reason))) => {
                    Action::Reply(protocol::aborted_response(fmt, reason))
                }
                Err(e) => err("update", &e.to_string()),
            }
        }
        Command::Close => {
            conn.open = None;
            conn.batch = None;
            Action::Reply(protocol::ok_response(fmt, "close", &[]))
        }
    }
}

fn handle_line(conn: &mut Conn, shared: &Shared, line: &str) -> Action {
    conn.requests += 1;
    match protocol::parse_command(line) {
        Ok(Some(cmd)) => handle_command(conn, shared, cmd),
        Ok(None) => Action::Silent,
        Err(msg) => Action::Reply(protocol::error_response(conn.format, "protocol", &msg)),
    }
}

fn serve_connection(shared: Arc<Shared>, stream: ClientStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream);
    let mut conn = match shared.opts.session(shared.opts.timeout) {
        Ok(session) => Conn {
            session,
            format: ReportFormat::Text,
            timeout: shared.opts.timeout,
            open: None,
            batch: None,
            names: AttrNames::new(),
            requests: 0,
        },
        Err(_) => return,
    };
    while let Ok(Some(line)) = reader.next_line(&shared) {
        // Containment: a panic inside one request (e.g. an armed
        // failpoint) answers `err internal`, drops only this
        // connection's session, and the daemon keeps serving.
        let action = match catch_unwind(AssertUnwindSafe(|| handle_line(&mut conn, &shared, &line)))
        {
            Ok(action) => action,
            Err(_) => {
                conn.open = None;
                conn.batch = None;
                Action::Reply(protocol::error_response(
                    conn.format,
                    "internal",
                    "request panicked; session closed",
                ))
            }
        };
        let (reply, done) = match action {
            Action::Silent => (None, false),
            Action::Reply(r) => (Some(r), false),
            Action::CloseConn(r) => (Some(r), true),
            Action::ShutdownDaemon(r) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                (Some(r), true)
            }
        };
        if let Some(mut reply) = reply {
            // One write per response: a trailing-newline write of its
            // own would sit in Nagle's buffer behind a delayed ACK.
            reply.push('\n');
            if writer
                .write_all(reply.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
        }
        if done || shared.is_shutdown() {
            break;
        }
    }
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<ClientStream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Replies are single small writes; leaving Nagle on
                // stalls every request/response round-trip behind a
                // delayed ACK (~40ms each way).
                let _ = s.set_nodelay(true);
                Ok(ClientStream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(ClientStream::Unix(s))
            }
        }
    }
}

/// The daemon. [`Server::bind`] claims the sockets, [`Server::run`]
/// serves until shutdown; see the [crate docs](crate) for the protocol.
pub struct Server {
    listeners: Vec<Listener>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<std::path::PathBuf>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the configured listeners (at least one of `tcp`/`unix` must
    /// be set) and builds the shared state; serving starts with
    /// [`Server::run`]. Options no session accepts (a thread count of 0
    /// or past [`bagcons_core::ExecConfig::MAX_THREADS`]) are refused
    /// with [`io::ErrorKind::InvalidInput`] before anything binds.
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        // The loader is built under the daemon's options, so a setting
        // every connection's session would refuse stops the daemon here.
        let loader = opts
            .session(None)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        let mut unix_path = None;
        if let Some(addr) = &opts.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            tcp_addr = Some(listener.local_addr()?);
            listeners.push(Listener::Tcp(listener));
        }
        #[cfg(unix)]
        if let Some(path) = &opts.unix {
            // A stale socket file from a dead daemon would fail the bind.
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            listeners.push(Listener::Unix(std::os::unix::net::UnixListener::bind(
                path,
            )?));
            unix_path = Some(path.clone());
        }
        if listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs a TCP address or a unix socket path",
            ));
        }
        let worker_budget = opts
            .worker_budget
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
        Ok(Server {
            listeners,
            tcp_addr,
            unix_path,
            shared: Arc::new(Shared {
                registry: Registry::new(),
                loader: Mutex::new(loader),
                budget: WorkerBudget::new(worker_budget),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                opts,
            }),
        })
    }

    /// The bound TCP address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A clonable shutdown handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Loads bag files as a dataset before serving (the CLI's positional
    /// FILE arguments; same path as the `load` request).
    pub fn preload(&self, name: &str, files: &[String]) -> Result<usize, String> {
        // Operator paths: the `--data-dir` allowlist governs client
        // requests, not the process's own command line.
        let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
        let ds = self
            .shared
            .load_dataset(name, &paths)
            .map_err(|(_, msg)| msg)?;
        Ok(ds.current().bags.len())
    }

    /// Serves until shutdown is requested (a client's `shutdown`, a
    /// [`ServerHandle::shutdown`], or a signal), then drains: stops
    /// accepting, lets in-flight requests finish, joins every connection
    /// thread, and removes the unix socket file.
    pub fn run(self) -> io::Result<()> {
        for listener in &self.listeners {
            listener.set_nonblocking()?;
        }
        let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.is_shutdown() {
            let mut accepted = false;
            for listener in &self.listeners {
                match listener.accept() {
                    Ok(stream) => {
                        accepted = true;
                        let live = self.shared.connections.fetch_add(1, Ordering::SeqCst) + 1;
                        if live > self.shared.opts.max_connections {
                            self.shared.connections.fetch_sub(1, Ordering::SeqCst);
                            let mut stream = stream;
                            let _ = stream.write_all(
                                protocol::error_response(
                                    ReportFormat::Text,
                                    "busy",
                                    "connection limit reached",
                                )
                                .as_bytes(),
                            );
                            let _ = stream.write_all(b"\n");
                            continue;
                        }
                        let shared = Arc::clone(&self.shared);
                        threads.push(std::thread::spawn(move || {
                            serve_connection(shared, stream);
                        }));
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // A transient accept failure (e.g. a connection
                        // reset before accept) must not kill the daemon.
                    }
                }
            }
            if !accepted {
                std::thread::park_timeout(POLL_INTERVAL);
                threads.retain(|t| !t.is_finished());
            }
        }
        // Drain: every connection observes the flag at its next poll
        // tick, finishes the request it is serving, and exits.
        for t in threads {
            let _ = t.join();
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        #[cfg(not(unix))]
        let _ = &self.unix_path;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_budget_bounds_concurrency() {
        let budget = Arc::new(WorkerBudget::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (budget, peak, live) = (budget.clone(), peak.clone(), live.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _permit = budget.acquire();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn bind_requires_a_listener() {
        let opts = ServeOptions {
            tcp: None,
            unix: None,
            ..ServeOptions::default()
        };
        assert!(Server::bind(opts).is_err());
    }

    #[test]
    fn bind_rejects_invalid_thread_counts() {
        for threads in [0, bagcons_core::ExecConfig::MAX_THREADS + 1] {
            let opts = ServeOptions {
                threads: Some(threads),
                ..ServeOptions::default()
            };
            let Err(err) = Server::bind(opts) else {
                panic!("threads = {threads}: the daemon bound");
            };
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "threads = {threads}"
            );
        }
        let opts = ServeOptions {
            threads: Some(bagcons_core::ExecConfig::MAX_THREADS),
            ..ServeOptions::default()
        };
        assert!(Server::bind(opts).is_ok());
    }

    /// Minor page faults taken so far by the calling thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn thread_minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // Fields after the parenthesised command name: state is field 3,
        // minflt field 10.
        let rest = &stat[stat.rfind(')').unwrap() + 1..];
        rest.split_whitespace().nth(7).unwrap().parse().unwrap()
    }

    /// The daemon's churn in miniature: blocks the size of a copied pair
    /// table are filled and freed together, round after round. Under
    /// glibc's defaults each round's frees trim the heap and the next
    /// round faults every page back in; once tuned, only the first
    /// round faults.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn tuned_allocator_reuses_freed_blocks() {
        assert!(tune_allocator());
        const BLOCK: usize = 512 << 10;
        let round = || {
            let blocks: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; BLOCK]).collect();
            std::hint::black_box(&blocks);
        };
        round();
        let before = thread_minor_faults();
        for _ in 0..20 {
            round();
        }
        let faults = thread_minor_faults() - before;
        // Refilling freed pages would take 20 × 4 × 128 faults.
        assert!(faults < 128, "{faults} minor faults over 20 rounds");
    }
}
