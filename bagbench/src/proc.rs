//! Running the release `bagcons` binary: one-shot CLI processes, the
//! `serve` daemon, and their peak resident set sizes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Every `bagcons` invocation pins the worker-thread count, so results
/// do not depend on how many cores the host reports.
pub const THREADS: usize = 2;

/// One finished CLI process.
pub struct Run {
    pub code: i32,
    pub stdout: String,
    /// Wall time from spawn to exit, stdout fully drained.
    pub ms: f64,
}

/// The `bagcons` binary under test.
pub struct Bagcons {
    bin: PathBuf,
}

impl Bagcons {
    pub fn new(bin: PathBuf) -> Self {
        Bagcons { bin }
    }

    /// Runs `bagcons <cmd> --threads 2 <args...>` to completion.
    pub fn run(&self, cmd: &str, args: &[&Path]) -> std::io::Result<Run> {
        self.run_with(cmd, &[], args)
    }

    /// [`Bagcons::run`] with extra options before the file arguments.
    pub fn run_with(&self, cmd: &str, opts: &[&str], args: &[&Path]) -> std::io::Result<Run> {
        let t = Instant::now();
        let out = Command::new(&self.bin)
            .arg(cmd)
            .args(["--threads", &THREADS.to_string()])
            .args(opts)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(Run {
            code: out.status.code().unwrap_or(-1),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            ms,
        })
    }

    /// Starts `bagcons serve` on a free loopback port with `snapshot`
    /// preloaded as dataset `name`, and waits until it answers `ping`.
    /// Returns the daemon and the spawn-to-pong time in seconds.
    ///
    /// The client connects as soon as the port listens (the daemon binds
    /// before it preloads), so the connection is already queued when the
    /// accept loop starts and the time does not depend on where the
    /// loop's idle poll happens to be.
    pub fn serve(&self, name: &str, snapshot: &Path) -> Result<(Daemon, f64), String> {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("find a free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let t = Instant::now();
        let child = Command::new(&self.bin)
            .args([
                "serve",
                "--threads",
                &THREADS.to_string(),
                "--listen",
                &addr,
            ])
            .args(["--name", name])
            .arg(snapshot)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        // From here on the guard stops the child on every exit path.
        let mut daemon = Daemon {
            child: Some(child),
            addr,
        };
        let deadline = t + Duration::from_secs(30);
        let mut client = loop {
            match Client::connect(&daemon.addr) {
                Ok(c) => break c,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => {
                    let child = daemon.child.as_mut().expect("running daemon");
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("serve exited with {status} before listening"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        let (reply, _) = client.request("ping")?;
        let elapsed = t.elapsed().as_secs_f64();
        if reply != "ok pong" {
            return Err(format!("ping answered {reply:?}"));
        }
        let stdout = daemon
            .child
            .as_mut()
            .and_then(|c| c.stdout.take())
            .expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| format!("read serve banner: {e}"))?;
        if banner.trim() != format!("listening on {}", daemon.addr) {
            return Err(format!("unexpected serve banner {banner:?}"));
        }
        Ok((daemon, elapsed))
    }
}

/// A running `bagcons serve` child. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] is the clean path.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

impl Daemon {
    /// Peak resident set (`VmHWM`) so far, in megabytes.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.status_mb("VmHWM:")
    }

    /// Resident set (`VmRSS`) now, in megabytes.
    pub fn rss_mb(&self) -> Result<f64, String> {
        self.status_mb("VmRSS:")
    }

    /// A `kB` field of `/proc/<pid>/status`, in megabytes.
    fn status_mb(&self, field: &str) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("running daemon").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no {field} in /proc/{pid}/status"))
    }

    /// Sends `shutdown` and waits for the drain. Errors unless the daemon
    /// acknowledges and exits with status 0 within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr)?;
        let (reply, _) = client.request("shutdown")?;
        if reply != "ok shutdown" {
            return Err(format!("shutdown answered {reply:?}"));
        }
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("serve exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve did not drain within 10 s".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One line-protocol connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and waits for its one reply line. Returns
    /// the reply (without the newline) and the round trip in ms.
    pub fn request(&mut self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err(format!("daemon closed the connection after {line:?}"));
        }
        reply.truncate(reply.trim_end().len());
        Ok((reply, ms))
    }
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then
/// fourteen longs of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set of any terminated, waited-for child
/// process so far, in megabytes.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, which `getrusage` fills in and
    // does not retain.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    usage.ru_maxrss as f64 / 1024.0
}
