//! The line-oriented wire protocol: request parsing and response
//! rendering (see the [crate docs](crate) for the command table).
//!
//! Response rendering is **shared**, not serve-specific: the
//! `status=`/`err <kind>:`/`ok <verb>` shapes live in
//! [`bagcons::protocol`] (one parser/renderer pair for the `watch` CLI
//! and this daemon) and are
//! re-exported here verbatim, so the daemon's golden tests pin the one
//! canonical implementation. Only the request grammar — the command
//! table — is serve-only.

pub use bagcons::protocol::{aborted_response, decision_response, error_response, ok_response};

use bagcons::report::ReportFormat;
use std::time::Duration;

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Register a dataset from bag files (tabular text or binary
    /// snapshot, auto-detected by magic bytes).
    Load {
        /// Registry name for the dataset.
        name: String,
        /// Dataset files (text bags or snapshots).
        files: Vec<String>,
    },
    /// Export a dataset's current generation as a snapshot file.
    Save {
        /// Registry name of the dataset to export.
        name: String,
        /// Destination snapshot file.
        file: String,
    },
    /// Enumerate datasets.
    List,
    /// Open this connection's session on a dataset.
    Open(String),
    /// Re-pin the session to the dataset's current generation.
    Sync,
    /// Publish the session's bags as the next generation.
    Commit,
    /// Re-emit the session's decision.
    Check,
    /// Set the per-request wall-clock budget (`None` = unlimited).
    Timeout(Option<Duration>),
    /// Set the response format for this connection.
    Format(ReportFormat),
    /// Begin a delta batch.
    BatchBegin,
    /// Apply the pending batch and emit its one decision.
    BatchEnd,
    /// A whole delta batch in one framed line (`bulk <delta>[;<delta>]*`):
    /// one payload, one round trip, one decision. `batch`/`end` remain
    /// as the incremental aliases of the same operation.
    Bulk(Vec<String>),
    /// A raw delta line (`<bag> <vals...> : <±d>`), parsed downstream by
    /// [`bagcons::protocol::parse_delta_edit`].
    Delta(String),
    /// Close the session, keep the connection.
    Close,
    /// Close the connection.
    Quit,
    /// Drain and stop the daemon.
    Shutdown,
}

/// Parses one request line. `Ok(None)` for blank lines and `%` comments
/// (no response owed); `Err` is a protocol error to answer with
/// [`error_response`] — the connection stays open either way.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let stripped = line.split('%').next().unwrap_or("").trim();
    if stripped.is_empty() {
        return Ok(None);
    }
    let mut tokens = stripped.split_whitespace();
    let head = tokens.next().expect("nonempty line has a first token");
    let rest: Vec<&str> = tokens.collect();
    let bare = |cmd: Command| -> Result<Option<Command>, String> {
        if rest.is_empty() {
            Ok(Some(cmd))
        } else {
            Err(format!("{head} takes no arguments"))
        }
    };
    match head {
        "ping" => bare(Command::Ping),
        "list" => bare(Command::List),
        "sync" => bare(Command::Sync),
        "commit" => bare(Command::Commit),
        "check" => bare(Command::Check),
        "batch" => bare(Command::BatchBegin),
        "end" => bare(Command::BatchEnd),
        "close" => bare(Command::Close),
        "quit" => bare(Command::Quit),
        "shutdown" => bare(Command::Shutdown),
        "bulk" => {
            let payload = stripped["bulk".len()..].trim();
            if payload.is_empty() {
                return Err("bulk needs at least one delta (`bulk <delta>[;<delta>]*`)".to_string());
            }
            let deltas: Vec<String> = payload
                .split(';')
                .map(str::trim)
                .filter(|d| !d.is_empty())
                .map(str::to_string)
                .collect();
            if deltas.is_empty() {
                return Err("bulk needs at least one delta (`bulk <delta>[;<delta>]*`)".to_string());
            }
            Ok(Some(Command::Bulk(deltas)))
        }
        "load" => match rest.split_first() {
            Some((name, files)) if !files.is_empty() => Ok(Some(Command::Load {
                name: name.to_string(),
                files: files.iter().map(|f| f.to_string()).collect(),
            })),
            _ => Err("load needs a dataset name and at least one file".to_string()),
        },
        "save" => match rest.as_slice() {
            [name, file] => Ok(Some(Command::Save {
                name: name.to_string(),
                file: file.to_string(),
            })),
            _ => Err("save needs a dataset name and a destination file".to_string()),
        },
        "open" => match rest.as_slice() {
            [name] => Ok(Some(Command::Open(name.to_string()))),
            _ => Err("open needs exactly one dataset name".to_string()),
        },
        "timeout" => match rest.as_slice() {
            ["none"] => Ok(Some(Command::Timeout(None))),
            [ms] => ms
                .parse::<u64>()
                .map(|ms| Some(Command::Timeout(Some(Duration::from_millis(ms)))))
                .map_err(|_| "timeout expects milliseconds or `none`".to_string()),
            _ => Err("timeout needs exactly one argument".to_string()),
        },
        "format" => match rest.as_slice() {
            [fmt] => fmt
                .parse::<ReportFormat>()
                .map(|f| Some(Command::Format(f)))
                .map_err(|e| e.to_string()),
            _ => Err("format needs exactly one argument".to_string()),
        },
        _ if head.bytes().all(|b| b.is_ascii_digit()) => {
            Ok(Some(Command::Delta(stripped.to_string())))
        }
        _ => Err(format!("unknown command {head:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands_and_deltas() {
        assert_eq!(parse_command("  ping  ").unwrap(), Some(Command::Ping));
        assert_eq!(parse_command("% comment").unwrap(), None);
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(
            parse_command("open flights").unwrap(),
            Some(Command::Open("flights".to_string()))
        );
        assert_eq!(
            parse_command("load d a.bag b.bag").unwrap(),
            Some(Command::Load {
                name: "d".to_string(),
                files: vec!["a.bag".to_string(), "b.bag".to_string()],
            })
        );
        assert_eq!(
            parse_command("0 1 2 : -3").unwrap(),
            Some(Command::Delta("0 1 2 : -3".to_string()))
        );
        assert_eq!(
            parse_command("timeout 250").unwrap(),
            Some(Command::Timeout(Some(Duration::from_millis(250))))
        );
        assert_eq!(
            parse_command("timeout none").unwrap(),
            Some(Command::Timeout(None))
        );
        assert_eq!(
            parse_command("save d out.snap").unwrap(),
            Some(Command::Save {
                name: "d".to_string(),
                file: "out.snap".to_string(),
            })
        );
        assert!(parse_command("open").is_err());
        assert!(parse_command("ping extra").is_err());
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("load d").is_err());
        assert!(parse_command("save d").is_err());
        assert!(parse_command("save d a b").is_err());
    }

    #[test]
    fn parses_bulk_payloads() {
        assert_eq!(
            parse_command("bulk 0 1 2 : +3").unwrap(),
            Some(Command::Bulk(vec!["0 1 2 : +3".to_string()]))
        );
        assert_eq!(
            parse_command("bulk 0 1 2 : +3; 1 2 3 : -1 ;0 4 5 : +2").unwrap(),
            Some(Command::Bulk(vec![
                "0 1 2 : +3".to_string(),
                "1 2 3 : -1".to_string(),
                "0 4 5 : +2".to_string(),
            ]))
        );
        assert!(parse_command("bulk").is_err());
        assert!(parse_command("bulk ; ;").is_err());
    }

    #[test]
    fn error_response_is_single_line() {
        let text = error_response(ReportFormat::Text, "protocol", "bad\nline");
        assert_eq!(text, "err protocol: bad line");
        let json = error_response(ReportFormat::Json, "protocol", "x");
        assert!(json.contains("\"status\":2"), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn ok_response_renders_fields() {
        let text = ok_response(ReportFormat::Text, "open", &[("gen", "3".to_string())]);
        assert_eq!(text, "ok open gen=3");
        let json = ok_response(ReportFormat::Json, "open", &[("gen", "3".to_string())]);
        assert!(json.contains("\"verb\":\"open\""));
        assert!(json.contains("\"gen\":\"3\""));
    }
}
