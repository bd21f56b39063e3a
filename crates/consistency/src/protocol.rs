//! The line protocol shared by every delta-stream front end — one
//! parser/renderer pair for the `watch` CLI loop and the `bagcons serve`
//! daemon.
//!
//! Before this module, delta-line handling (`parse_delta_line` plus the
//! index range check and [`DeltaSet`] assembly), `err <kind>:` rendering,
//! and the `status=` decision framing were duplicated between
//! `src/bin/bagcons.rs` and `crates/serve/src/protocol.rs`, and the two
//! copies could drift. Everything response-shaped lives here now:
//!
//! * [`parse_delta_edit`] — one delta line → a ready-to-apply
//!   `(bag index, DeltaSet)` edit, with the range check every front end
//!   was hand-rolling.
//! * [`decision_response`] / [`aborted_response`] — the `status=<code>`
//!   text framing and the `"status":<code>` JSON splice over the
//!   library's [`Render`] output (the CLI exit-code contract on a wire).
//! * [`error_response`] — the `err <kind>: <msg>` shape.
//! * [`ok_response`] — the `ok <verb> k=v ...` acknowledgement shape.
//!
//! `crates/serve` re-exports these verbatim (its golden protocol tests
//! pin the shapes); the serve-only request grammar (`open`, `load`,
//! `bulk`, …) stays in `bagcons_serve::protocol`.

use crate::report::{Json, Render, ReportFormat};
use crate::stream::UpdateOutcome;
use bagcons_core::{AttrNames, Bag, DeltaSet};
use std::sync::Arc;

/// Parses one delta line (`<bag-index> <values...> : <±delta>`,
/// `%`-comments, blank lines) against the stream's bags into a
/// ready-to-apply edit. `Ok(None)` for lines that carry no delta; `Err`
/// is the message to surface, which names `line_no` once. The bag-index
/// range check and the schema-arity check (via
/// [`DeltaSet::bump`]) both happen here, so every front end rejects the
/// same malformed input with the same words.
pub fn parse_delta_edit(
    line: &str,
    line_no: usize,
    bags: &[Arc<Bag>],
) -> Result<Option<(usize, DeltaSet)>, String> {
    let (index, row, delta) = match bagcons_core::io::parse_delta_line(line, line_no) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let Some(bag) = bags.get(index) else {
        return Err(format!(
            "line {line_no}: bag index {index} out of range (0..{})",
            bags.len()
        ));
    };
    let mut set = DeltaSet::new(bag.schema().clone());
    set.bump(row, delta)
        .map_err(|e| format!("line {line_no}: {e}"))?;
    Ok(Some((index, set)))
}

/// Splices `"status":<code>` in as the first key of a one-line JSON
/// object (the decision/error renderings are all objects).
fn with_status(json: &str, status: u8) -> String {
    debug_assert!(json.starts_with('{') && json.len() > 2);
    format!("{{\"status\":{status},{}", &json[1..])
}

/// Renders one decision response: the update outcome with the CLI
/// exit-code contract mapped onto a `status` field (`status=<code> ...`
/// in text, a `"status"` first key in JSON).
pub fn decision_response(
    format: ReportFormat,
    outcome: &UpdateOutcome,
    names: &AttrNames,
) -> String {
    let status = outcome.decision.exit_code();
    match format {
        ReportFormat::Text => format!("status={status} {}", outcome.text(names)),
        ReportFormat::Json => with_status(&outcome.json(names), status),
    }
}

/// Renders the degraded form of a request whose deadline expired
/// **before** any state committed: the stream
/// rolled the request back, so there is no outcome to render, but the
/// client still gets the `status=3` / `abort_reason` contract rather
/// than an opaque error.
pub fn aborted_response(format: ReportFormat, reason: bagcons_core::AbortReason) -> String {
    match format {
        ReportFormat::Text => format!("status=3 unknown (aborted: {})", reason.describe()),
        ReportFormat::Json => {
            let mut j = Json::new();
            j.begin_object();
            j.field_u64("status", 3);
            j.field_str("report", "update");
            j.field_str("decision", "unknown");
            j.field_str("abort_reason", reason.as_str());
            j.end_object();
            j.finish()
        }
    }
}

/// Renders a structured error response (`status` 2 — the usage/input
/// error code). Never closes the connection by itself.
pub fn error_response(format: ReportFormat, kind: &str, message: &str) -> String {
    // Responses are line-framed: a multi-line message would desync the
    // client, so flatten it.
    let message = message.replace(['\n', '\r'], " ");
    match format {
        ReportFormat::Text => format!("err {kind}: {message}"),
        ReportFormat::Json => {
            let mut j = Json::new();
            j.begin_object();
            j.field_str("report", "error");
            j.field_u64("status", 2);
            j.field_str("kind", kind);
            j.field_str("message", &message);
            j.end_object();
            j.finish()
        }
    }
}

/// Renders a non-decision success response (`ok <verb> k=v ...` in text;
/// a `{"report":"ok","verb":...}` object in JSON, values as strings).
pub fn ok_response(format: ReportFormat, verb: &str, fields: &[(&str, String)]) -> String {
    match format {
        ReportFormat::Text => {
            let mut out = format!("ok {verb}");
            for (k, v) in fields {
                out.push(' ');
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
            out
        }
        ReportFormat::Json => {
            let mut j = Json::new();
            j.begin_object();
            j.field_str("report", "ok");
            j.field_str("verb", verb);
            for (k, v) in fields {
                j.field_str(k, v);
            }
            j.end_object();
            j.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, Schema};

    fn bags() -> Vec<Arc<Bag>> {
        let schema = Schema::from_attrs([Attr::new(0), Attr::new(1)]);
        let bag = Bag::from_u64s(schema, [(&[0u64, 1][..], 2)]).unwrap();
        vec![Arc::new(bag)]
    }

    #[test]
    fn delta_edits_parse_and_range_check() {
        let bags = bags();
        let (index, set) = parse_delta_edit("0 0 1 : +3", 1, &bags).unwrap().unwrap();
        assert_eq!(index, 0);
        assert_eq!(set.len(), 1);
        assert!(parse_delta_edit("% comment", 2, &bags).unwrap().is_none());
        assert!(parse_delta_edit("", 3, &bags).unwrap().is_none());
        let err = parse_delta_edit("7 0 1 : +1", 4, &bags).unwrap_err();
        assert_eq!(err, "line 4: bag index 7 out of range (0..1)");
        // Wrong arity surfaces from DeltaSet::bump.
        assert!(parse_delta_edit("0 1 : +1", 5, &bags).is_err());
    }
}
