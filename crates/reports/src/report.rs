//! Feedback reports (§2.5).
//!
//! "The final form of the data is a vector of integers, with position *i*
//! containing the number of times we observed that the *i*th predicate was
//! true" — plus "a flag indicating whether it completed successfully or was
//! aborted" (§3.3.1).  Ordering information is deliberately discarded to
//! keep reports compact and constant-size per execution.

use std::error::Error;
use std::fmt;

/// The binary outcome label attached to each report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The run completed successfully (class 0 in §3.3.2).
    Success,
    /// The run crashed or failed an assertion (class 1).
    Failure,
}

impl Label {
    /// The regression target: 0 for success, 1 for failure.
    pub fn as_target(self) -> f64 {
        match self {
            Label::Success => 0.0,
            Label::Failure => 1.0,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Success => f.write_str("success"),
            Label::Failure => f.write_str("failure"),
        }
    }
}

/// The nonzero entries of a dense counter vector as `(index, value)`
/// pairs in ascending index order.  Sparse sampling leaves almost every
/// counter zero (§2.5), so the server-side folds iterate these instead
/// of the vector.
pub fn nonzero(counters: &[u64]) -> impl Iterator<Item = (usize, u64)> + Clone + '_ {
    counters
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c != 0)
}

/// One execution's feedback report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Client-side run identifier (not interpreted by analyses).
    pub run_id: u64,
    /// Success or failure.
    pub label: Label,
    /// The counter vector, laid out per the program's site table.
    pub counters: Vec<u64>,
}

impl Report {
    /// Creates a report.
    pub fn new(run_id: u64, label: Label, counters: Vec<u64>) -> Self {
        Report {
            run_id,
            label,
            counters,
        }
    }

    /// Whether counter `i` was ever observed true in this run.
    pub fn observed(&self, i: usize) -> bool {
        self.counters.get(i).copied().unwrap_or(0) > 0
    }

    /// Number of counters in the report.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the report has no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Serializes to a single JSON line (the wire format), e.g.
    /// `{"run_id":42,"label":"Failure","counters":[1,0,7]}`.
    ///
    /// # Errors
    ///
    /// Infallible for well-formed reports; the `Result` is kept so call
    /// sites are insulated from future wire-format evolution.
    pub fn to_json(&self) -> Result<String, ReportParseError> {
        // Wire format matches the original serde output byte-for-byte:
        // field order run_id/label/counters, no whitespace.
        let mut s = String::with_capacity(48 + 4 * self.counters.len());
        s.push_str("{\"run_id\":");
        s.push_str(&self.run_id.to_string());
        s.push_str(",\"label\":\"");
        s.push_str(match self.label {
            Label::Success => "Success",
            Label::Failure => "Failure",
        });
        s.push_str("\",\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s.push_str("]}");
        Ok(s)
    }

    /// Parses a report from its JSON line form.  Tolerates whitespace and
    /// field reordering; unknown fields are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ReportParseError`] on malformed input.
    pub fn from_json(line: &str) -> Result<Self, ReportParseError> {
        let mut p = JsonParser::new(line);
        p.skip_ws();
        p.expect('{')?;
        let mut run_id: Option<u64> = None;
        let mut label: Option<Label> = None;
        let mut counters: Option<Vec<u64>> = None;
        loop {
            p.skip_ws();
            if p.eat('}') {
                break;
            }
            if run_id.is_some() || label.is_some() || counters.is_some() {
                p.expect(',')?;
                p.skip_ws();
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            match key.as_str() {
                "run_id" if run_id.is_none() => run_id = Some(p.integer()?),
                "label" if label.is_none() => {
                    label = Some(match p.string()?.as_str() {
                        "Success" => Label::Success,
                        "Failure" => Label::Failure,
                        other => {
                            return Err(ReportParseError::new(format!("unknown label {other:?}")))
                        }
                    })
                }
                "counters" if counters.is_none() => {
                    let mut v = Vec::new();
                    p.expect('[')?;
                    p.skip_ws();
                    if !p.eat(']') {
                        loop {
                            p.skip_ws();
                            v.push(p.integer()?);
                            p.skip_ws();
                            if p.eat(']') {
                                break;
                            }
                            p.expect(',')?;
                        }
                    }
                    counters = Some(v);
                }
                other => {
                    return Err(ReportParseError::new(format!(
                        "unexpected or duplicate field {other:?}"
                    )))
                }
            }
        }
        p.skip_ws();
        if !p.at_end() {
            return Err(ReportParseError::new("trailing data after report"));
        }
        Ok(Report {
            run_id: run_id.ok_or_else(|| ReportParseError::new("missing field \"run_id\""))?,
            label: label.ok_or_else(|| ReportParseError::new("missing field \"label\""))?,
            counters: counters
                .ok_or_else(|| ReportParseError::new("missing field \"counters\""))?,
        })
    }
}

/// Error from parsing a report's JSON line form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError {
    message: String,
}

impl ReportParseError {
    fn new(message: impl Into<String>) -> Self {
        ReportParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "report parse error: {}", self.message)
    }
}

impl Error for ReportParseError {}

/// A minimal cursor over the subset of JSON the wire format uses:
/// objects, arrays, unsigned integers, and plain (escape-free) strings.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c as u8) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ReportParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(ReportParseError::new(format!(
                "expected {c:?} at byte {}",
                self.pos
            )))
        }
    }

    fn string(&mut self) -> Result<String, ReportParseError> {
        self.expect('"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => {
                    return Err(ReportParseError::new(
                        "escape sequences are not part of the report wire format",
                    ))
                }
                Some(_) => self.pos += 1,
                None => return Err(ReportParseError::new("unterminated string")),
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ReportParseError::new("invalid utf-8 in string"))?
            .to_string();
        self.pos += 1; // closing quote
        Ok(s)
    }

    fn integer(&mut self) -> Result<u64, ReportParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ReportParseError::new(format!(
                "expected integer at byte {start}"
            )));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| ReportParseError::new("integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_as_targets() {
        assert_eq!(Label::Success.as_target(), 0.0);
        assert_eq!(Label::Failure.as_target(), 1.0);
        assert_eq!(Label::Failure.to_string(), "failure");
    }

    #[test]
    fn observed_counters() {
        let r = Report::new(1, Label::Success, vec![0, 3, 0]);
        assert!(!r.observed(0));
        assert!(r.observed(1));
        assert!(!r.observed(2));
        assert!(!r.observed(99), "out of range counts as unobserved");
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let r = Report::new(42, Label::Failure, vec![1, 0, 7]);
        let line = r.to_json().unwrap();
        assert!(line.contains("Failure"));
        let back = Report::from_json(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_is_exact_wire_format() {
        let r = Report::new(42, Label::Failure, vec![1, 0, 7]);
        assert_eq!(
            r.to_json().unwrap(),
            r#"{"run_id":42,"label":"Failure","counters":[1,0,7]}"#
        );
        let empty = Report::new(0, Label::Success, vec![]);
        assert_eq!(
            empty.to_json().unwrap(),
            r#"{"run_id":0,"label":"Success","counters":[]}"#
        );
        assert_eq!(Report::from_json(&empty.to_json().unwrap()).unwrap(), empty);
    }

    #[test]
    fn parser_tolerates_whitespace_and_field_order() {
        let line = r#" { "counters" : [ 1 , 2 ] , "label" : "Success" , "run_id" : 9 } "#;
        let r = Report::from_json(line).unwrap();
        assert_eq!(r, Report::new(9, Label::Success, vec![1, 2]));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(Report::from_json("{not json").is_err());
        assert!(Report::from_json(r#"{"run_id":1,"label":"Success"}"#).is_err());
        assert!(Report::from_json(r#"{"run_id":1,"label":"Meh","counters":[]}"#).is_err());
        assert!(
            Report::from_json(r#"{"run_id":1,"label":"Success","counters":[]} x"#).is_err(),
            "trailing garbage must be rejected"
        );
        assert!(
            Report::from_json(r#"{"run_id":1,"run_id":2,"label":"Success","counters":[]}"#)
                .is_err(),
            "duplicate fields must be rejected"
        );
    }
}
