//! The `PlantedBug` ground-truth manifest and its versioned JSONL codec.
//!
//! One line per corpus entry, hand-rolled JSON in the same
//! zero-dependency style as the report codec: a tolerant scanner that
//! accepts any field order and insignificant whitespace, and an emitter
//! that always writes fields in a fixed order so manifests are
//! byte-stable across runs.
//!
//! The codec writes schema **v2**: `"schema":2` first, and the
//! per-fault fields in a `"bugs"` array, one object per planted fault.
//! It still reads **v1**, the shape every manifest written before
//! multi-bug corpora existed has: one fault per entry, spelled as flat
//! fields (`operator`, `deterministic`, `trigger`, `true_counter`,
//! `true_predicate`) on the entry object.  A v1 line read and written
//! back comes out as v2 with the same faults.
//!
//! The decoder accepts both shapes regardless of declared version and
//! rejects any `schema` beyond 2, so older readers fail loudly on
//! manifests from the future instead of silently dropping faults.

use crate::CorpusError;
use std::fmt;
use std::io::{BufRead, Write};

/// The manifest schema version this codec writes.
pub const MANIFEST_SCHEMA: u32 = 2;

/// Which workload family a corpus entry was planted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A seeded `cbi-testgen` program.
    Testgen,
    /// The `ccrypt` benchmark analogue (EOF prompts disabled, so the
    /// planted bug is the only crash source).
    Ccrypt,
    /// The `bc` benchmark analogue (its organic heap-overrun crashes
    /// remain active alongside the planted bug).
    Bc,
}

impl Workload {
    /// Manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Workload::Testgen => "testgen",
            Workload::Ccrypt => "ccrypt",
            Workload::Bc => "bc",
        }
    }

    /// Parses the manifest spelling.
    fn from_str_opt(s: &str) -> Option<Workload> {
        match s {
            "testgen" => Some(Workload::Testgen),
            "ccrypt" => Some(Workload::Ccrypt),
            "bc" => Some(Workload::Bc),
            _ => None,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Ground truth for one planted fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Mutation operator name (see [`crate::Operator::name`]).
    pub operator: String,
    /// Whether a violation fails the run even without instrumentation.
    pub deterministic: bool,
    /// `"always"` if every validation trial failed, `"conditional"` if
    /// the fault depends on trial input.
    pub trigger: String,
    /// Counter index (in the `checks`-scheme layout) of the true
    /// predicate — the violated slot of the fault's bounds site.
    pub true_counter: usize,
    /// Human-readable name of the true predicate.
    pub true_predicate: String,
}

/// Ground truth for one corpus entry: shared program metadata plus one
/// or more planted faults.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedBug {
    /// Stable entry id (`tg-0007`, `mb-0003`, …); also names the source
    /// file.
    pub id: String,
    /// Workload family the faults were planted into.
    pub workload: Workload,
    /// Path of the mutated program, relative to the corpus directory.
    pub source: String,
    /// Site-table layout hash of the instrumented program, pinning
    /// every `true_counter` to a concrete layout.
    pub layout_hash: u64,
    /// Total counters in that layout.
    pub counters: usize,
    /// Trials per campaign (validation used these; evaluation replays
    /// them).
    pub trials: usize,
    /// Seed regenerating the trial inputs.
    pub trial_seed: u64,
    /// Failing runs among the uninstrumented baseline trials.
    pub baseline_failures: usize,
    /// The planted faults, in planting order.  Never empty; entries read
    /// from v1 lines have exactly one.
    pub faults: Vec<Fault>,
}

impl PlantedBug {
    /// The first planted fault — the only one for single-fault entries.
    pub fn primary(&self) -> &Fault {
        &self.faults[0]
    }

    /// True when every planted fault crashes uninstrumented runs.
    pub fn deterministic(&self) -> bool {
        self.faults.iter().all(|f| f.deterministic)
    }

    /// `+`-joined operator names of all faults (`off_by_one_index`
    /// alone for a single-fault entry).
    pub fn operator_label(&self) -> String {
        self.faults
            .iter()
            .map(|f| f.operator.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Counter indices of every fault's true predicate, planting order.
    pub fn true_counters(&self) -> Vec<usize> {
        self.faults.iter().map(|f| f.true_counter).collect()
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn str_field(out: &mut String, key: &str, val: &str, comma: bool) {
    if comma {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, val);
    out.push('"');
}

impl Fault {
    fn emit_fields(&self, out: &mut String) {
        str_field(out, "operator", &self.operator, false);
        out.push_str(&format!(",\"deterministic\":{}", self.deterministic));
        str_field(out, "trigger", &self.trigger, true);
        out.push_str(&format!(",\"true_counter\":{}", self.true_counter));
        str_field(out, "true_predicate", &self.true_predicate, true);
    }
}

impl PlantedBug {
    /// Encodes the record as a single schema-v2 JSON line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        assert!(!self.faults.is_empty(), "entry without faults");
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"schema\":{MANIFEST_SCHEMA}"));
        str_field(&mut out, "id", &self.id, true);
        str_field(&mut out, "workload", self.workload.as_str(), true);
        str_field(&mut out, "source", &self.source, true);
        out.push_str(&format!(",\"layout_hash\":{}", self.layout_hash));
        out.push_str(&format!(",\"counters\":{}", self.counters));
        out.push_str(&format!(",\"trials\":{}", self.trials));
        out.push_str(&format!(",\"trial_seed\":{}", self.trial_seed));
        out.push_str(&format!(
            ",\"baseline_failures\":{}",
            self.baseline_failures
        ));
        out.push_str(",\"bugs\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            f.emit_fields(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Decodes one JSON line; field order and whitespace are free, and
    /// both the v1 flat shape and the v2 `bugs` array are accepted.
    pub fn from_json(line: &str) -> Result<PlantedBug, String> {
        let mut p = Scanner::new(line);
        let mut schema = None;
        let mut id = None;
        let mut workload = None;
        let mut source = None;
        let mut layout_hash = None;
        let mut counters = None;
        let mut trials = None;
        let mut trial_seed = None;
        let mut baseline_failures = None;
        let mut faults: Vec<Fault> = Vec::new();
        // v1 flat fault fields, collected as they appear.
        let mut operator = None;
        let mut deterministic = None;
        let mut trigger = None;
        let mut true_counter = None;
        let mut true_predicate = None;
        p.expect('{')?;
        loop {
            p.skip_ws();
            if p.eat('}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            match key.as_str() {
                "schema" => schema = Some(p.number()? as u32),
                "id" => id = Some(p.string()?),
                "workload" => {
                    let w = p.string()?;
                    workload =
                        Some(Workload::from_str_opt(&w).ok_or(format!("unknown workload {w:?}"))?);
                }
                "source" => source = Some(p.string()?),
                "layout_hash" => layout_hash = Some(p.number()?),
                "counters" => counters = Some(p.number()? as usize),
                "trials" => trials = Some(p.number()? as usize),
                "trial_seed" => trial_seed = Some(p.number()?),
                "baseline_failures" => baseline_failures = Some(p.number()? as usize),
                "bugs" => {
                    p.expect('[')?;
                    p.skip_ws();
                    if !p.eat(']') {
                        loop {
                            faults.push(parse_fault(&mut p)?);
                            p.skip_ws();
                            if !p.eat(',') {
                                p.expect(']')?;
                                break;
                            }
                        }
                    }
                }
                "operator" => operator = Some(p.string()?),
                "deterministic" => deterministic = Some(p.boolean()?),
                "trigger" => trigger = Some(p.string()?),
                "true_counter" => true_counter = Some(p.number()? as usize),
                "true_predicate" => true_predicate = Some(p.string()?),
                other => return Err(format!("unknown field {other:?}")),
            }
            p.skip_ws();
            if !p.eat(',') {
                p.expect('}')?;
                break;
            }
        }
        let req = |name: &str| format!("missing field {name:?}");
        let flat_present = operator.is_some()
            || deterministic.is_some()
            || trigger.is_some()
            || true_counter.is_some()
            || true_predicate.is_some();
        if flat_present && !faults.is_empty() {
            return Err("entry mixes v1 flat fault fields with a v2 \"bugs\" array".to_string());
        }
        if flat_present {
            faults.push(Fault {
                operator: operator.ok_or_else(|| req("operator"))?,
                deterministic: deterministic.ok_or_else(|| req("deterministic"))?,
                trigger: trigger.ok_or_else(|| req("trigger"))?,
                true_counter: true_counter.ok_or_else(|| req("true_counter"))?,
                true_predicate: true_predicate.ok_or_else(|| req("true_predicate"))?,
            });
        }
        if faults.is_empty() {
            return Err("entry has no faults (neither flat fields nor \"bugs\")".to_string());
        }
        if let Some(schema) = schema.filter(|s| !(1..=MANIFEST_SCHEMA).contains(s)) {
            return Err(format!(
                "unsupported manifest schema {schema} (this reader understands 1..={MANIFEST_SCHEMA})"
            ));
        }
        Ok(PlantedBug {
            id: id.ok_or_else(|| req("id"))?,
            workload: workload.ok_or_else(|| req("workload"))?,
            source: source.ok_or_else(|| req("source"))?,
            layout_hash: layout_hash.ok_or_else(|| req("layout_hash"))?,
            counters: counters.ok_or_else(|| req("counters"))?,
            trials: trials.ok_or_else(|| req("trials"))?,
            trial_seed: trial_seed.ok_or_else(|| req("trial_seed"))?,
            baseline_failures: baseline_failures.ok_or_else(|| req("baseline_failures"))?,
            faults,
        })
    }
}

/// Parses one fault object from a v2 `bugs` array.
fn parse_fault(p: &mut Scanner<'_>) -> Result<Fault, String> {
    let mut operator = None;
    let mut deterministic = None;
    let mut trigger = None;
    let mut true_counter = None;
    let mut true_predicate = None;
    p.expect('{')?;
    loop {
        p.skip_ws();
        if p.eat('}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        match key.as_str() {
            "operator" => operator = Some(p.string()?),
            "deterministic" => deterministic = Some(p.boolean()?),
            "trigger" => trigger = Some(p.string()?),
            "true_counter" => true_counter = Some(p.number()? as usize),
            "true_predicate" => true_predicate = Some(p.string()?),
            other => return Err(format!("unknown fault field {other:?}")),
        }
        p.skip_ws();
        if !p.eat(',') {
            p.expect('}')?;
            break;
        }
    }
    let req = |name: &str| format!("missing fault field {name:?}");
    Ok(Fault {
        operator: operator.ok_or_else(|| req("operator"))?,
        deterministic: deterministic.ok_or_else(|| req("deterministic"))?,
        trigger: trigger.ok_or_else(|| req("trigger"))?,
        true_counter: true_counter.ok_or_else(|| req("true_counter"))?,
        true_predicate: true_predicate.ok_or_else(|| req("true_predicate"))?,
    })
}

/// Minimal JSON scanner over one manifest line.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Scanner {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape".to_string())?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unmodified.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<u64>()
            .map_err(|e| e.to_string())
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if self.bytes[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            Err(format!("expected boolean at byte {}", self.pos))
        }
    }
}

/// Writes a manifest, one JSON line per bug.
pub fn write_manifest<W: Write>(mut w: W, bugs: &[PlantedBug]) -> std::io::Result<()> {
    for bug in bugs {
        writeln!(w, "{}", bug.to_json())?;
    }
    Ok(())
}

/// Reads a manifest; blank lines are skipped.
pub fn read_manifest<R: BufRead>(r: R) -> Result<Vec<PlantedBug>, CorpusError> {
    let mut bugs = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        bugs.push(
            PlantedBug::from_json(&line).map_err(|message| CorpusError::Manifest {
                line: i + 1,
                message,
            })?,
        );
    }
    Ok(bugs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fault() -> Fault {
        Fault {
            operator: "off_by_one_index".to_string(),
            deterministic: true,
            trigger: "conditional".to_string(),
            true_counter: 12,
            true_predicate: "!(0 <= fault_t < len(buf))".to_string(),
        }
    }

    fn sample() -> PlantedBug {
        PlantedBug {
            id: "tg-0007".to_string(),
            workload: Workload::Testgen,
            source: "programs/tg-0007.mc".to_string(),
            layout_hash: u64::MAX - 3,
            counters: 40,
            trials: 48,
            trial_seed: 0xc0de,
            baseline_failures: 9,
            faults: vec![sample_fault()],
        }
    }

    fn sample_multi() -> PlantedBug {
        let mut second = sample_fault();
        second.operator = "dropped_bounds_check".to_string();
        second.deterministic = false;
        second.true_counter = 30;
        second.true_predicate = "!(0 <= fault_u < len(p))".to_string();
        PlantedBug {
            id: "mb-0001".to_string(),
            workload: Workload::Testgen,
            source: "programs/mb-0001.mc".to_string(),
            layout_hash: 77,
            counters: 64,
            trials: 96,
            trial_seed: 0xabad,
            baseline_failures: 11,
            faults: vec![sample_fault(), second],
        }
    }

    /// A v1 line — no `schema` field, flat fault fields in the order
    /// the pre-versioning codec wrote them — reads, and is written back
    /// as v2 with the same faults.
    #[test]
    fn v1_json_round_trip() {
        let v1 = "{\"id\":\"tg-0007\",\"workload\":\"testgen\",\
             \"operator\":\"off_by_one_index\",\"source\":\"programs/tg-0007.mc\",\
             \"deterministic\":true,\"trigger\":\"conditional\",\"true_counter\":12,\
             \"true_predicate\":\"!(0 <= fault_t < len(buf))\",\
             \"layout_hash\":18446744073709551612,\"counters\":40,\"trials\":48,\
             \"trial_seed\":49374,\"baseline_failures\":9}";
        let bug = PlantedBug::from_json(v1).unwrap();
        assert_eq!(bug, sample());
        let v2 = bug.to_json();
        assert_eq!(
            v2,
            "{\"schema\":2,\"id\":\"tg-0007\",\"workload\":\"testgen\",\
             \"source\":\"programs/tg-0007.mc\",\
             \"layout_hash\":18446744073709551612,\"counters\":40,\"trials\":48,\
             \"trial_seed\":49374,\"baseline_failures\":9,\
             \"bugs\":[{\"operator\":\"off_by_one_index\",\"deterministic\":true,\
             \"trigger\":\"conditional\",\"true_counter\":12,\
             \"true_predicate\":\"!(0 <= fault_t < len(buf))\"}]}"
        );
        assert_eq!(PlantedBug::from_json(&v2).unwrap().faults, bug.faults);
    }

    #[test]
    fn v2_json_round_trip() {
        let bug = sample_multi();
        let line = bug.to_json();
        assert!(line.starts_with("{\"schema\":2,"));
        assert!(line.contains("\"bugs\":[{"));
        assert_eq!(PlantedBug::from_json(&line).unwrap(), bug);
    }

    #[test]
    fn v1_and_v2_lines_coexist_in_one_manifest() {
        let v1 = sample();
        let v2 = sample_multi();
        let mut buf = Vec::new();
        write_manifest(&mut buf, &[v1.clone(), v2.clone()]).unwrap();
        let back = read_manifest(&buf[..]).unwrap();
        assert_eq!(back, vec![v1, v2]);
    }

    #[test]
    fn field_order_and_whitespace_are_free() {
        let line = r#" { "trials" : 48 , "id":"x", "workload":"bc",
            "operator":"bad_pointer_offset_4","source":"programs/x.mc",
            "deterministic":false,"trigger":"conditional","true_counter":3,
            "true_predicate":"!(0 <= fault_t < len(p))","layout_hash":1,
            "counters":9,"trial_seed":2,"baseline_failures":0 } "#
            .replace('\n', " ");
        let bug = PlantedBug::from_json(&line).unwrap();
        assert_eq!(bug.workload, Workload::Bc);
        assert_eq!(bug.trials, 48);
        assert_eq!(bug.primary().true_counter, 3);
    }

    #[test]
    fn accessors_summarize_the_fault_list() {
        let multi = sample_multi();
        assert_eq!(multi.primary().true_counter, 12);
        assert!(!multi.deterministic(), "one fault is non-deterministic");
        assert_eq!(
            multi.operator_label(),
            "off_by_one_index+dropped_bounds_check"
        );
        assert_eq!(multi.true_counters(), vec![12, 30]);
        assert!(sample().deterministic());
    }

    #[test]
    fn manifest_round_trip_preserves_order() {
        let mut a = sample();
        let mut b = sample();
        b.id = "cc-0000".to_string();
        b.workload = Workload::Ccrypt;
        a.faults[0].true_predicate = "weird \"quoted\" \\ name".to_string();
        let mut buf = Vec::new();
        write_manifest(&mut buf, &[a.clone(), b.clone()]).unwrap();
        let back = read_manifest(&buf[..]).unwrap();
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let text = format!("{}\n{{\"id\":}}\n", sample().to_json());
        let err = read_manifest(text.as_bytes()).unwrap_err();
        match err {
            CorpusError::Manifest { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn future_schema_is_rejected() {
        let line = sample_multi()
            .to_json()
            .replace("\"schema\":2", "\"schema\":3");
        let err = PlantedBug::from_json(&line).unwrap_err();
        assert!(err.contains("unsupported manifest schema 3"), "{err}");
    }

    #[test]
    fn mixed_flat_and_array_faults_are_rejected() {
        let line = sample_multi()
            .to_json()
            .replacen("\"id\"", "\"operator\":\"x\",\"id\"", 1);
        let err = PlantedBug::from_json(&line).unwrap_err();
        assert!(err.contains("mixes v1"), "{err}");
    }

    #[test]
    fn entry_without_faults_is_rejected() {
        let err = PlantedBug::from_json(
            "{\"schema\":2,\"id\":\"x\",\"workload\":\"testgen\",\"source\":\"s\",\
             \"layout_hash\":1,\"counters\":2,\"trials\":3,\"trial_seed\":4,\
             \"baseline_failures\":0,\"bugs\":[]}",
        )
        .unwrap_err();
        assert!(err.contains("no faults"), "{err}");
    }
}
