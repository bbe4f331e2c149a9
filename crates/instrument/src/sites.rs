//! Instrumentation sites and the counter layout of feedback reports.
//!
//! A *site* is one point in the program where an observation may be made:
//! a CCured-style safety check, a user assertion, a function-return sign
//! observation, or a scalar-pair comparison.  Each site owns a fixed group
//! of counters (2 for pass/fail checks, 3 for three-way comparisons), and a
//! run's report is the concatenation of all counter groups in site order —
//! the "vector of integers, with position *i* containing the number of
//! times we observed that the *i*th predicate was true" of §2.5.

use cbi_minic::Span;
use std::fmt;

/// Identifies one instrumentation site within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

/// What kind of observation a site makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A user-written `check(e)` assertion (§3.1); counters `[violated, ok]`.
    Assert,
    /// A synthesized CCured-style memory-safety check (§3.1);
    /// counters `[violated, ok]`.
    Bounds,
    /// Sign of a function call's return value (§3.2.1);
    /// counters `[negative, zero, positive]`.
    ReturnSign,
    /// Three-way comparison of two same-typed variables after an
    /// assignment (§3.3.1); counters `[lt, eq, gt]`.
    ScalarPair,
    /// Branch direction observation (CBI follow-on work; extension),
    /// realized through a sign observation of the condition;
    /// counters `[unreachable, false, true]`.
    Branch,
}

impl SiteKind {
    /// Number of counters this kind of site owns.
    pub fn arity(self) -> usize {
        match self {
            SiteKind::Assert | SiteKind::Bounds => 2,
            SiteKind::ReturnSign | SiteKind::ScalarPair | SiteKind::Branch => 3,
        }
    }

    /// Human-readable label for counter `which` of a site of this kind,
    /// given the site's subject text.
    fn describe(self, text: &str, which: usize) -> String {
        match (self, which) {
            (SiteKind::Assert, 0) | (SiteKind::Bounds, 0) => format!("!({text})"),
            (SiteKind::Assert, 1) | (SiteKind::Bounds, 1) => text.to_string(),
            (SiteKind::ReturnSign, 0) => format!("{text} < 0"),
            (SiteKind::ReturnSign, 1) => format!("{text} == 0"),
            (SiteKind::ReturnSign, 2) => format!("{text} > 0"),
            (SiteKind::ScalarPair, i) => {
                let op = ["<", "==", ">"][i];
                let mut parts = text.splitn(2, '\u{1}');
                let a = parts.next().unwrap_or(text);
                let b = parts.next().unwrap_or("?");
                format!("{a} {op} {b}")
            }
            (SiteKind::Branch, 0) => format!("({text}) < 0 [unreachable]"),
            (SiteKind::Branch, 1) => format!("!({text})"),
            (SiteKind::Branch, 2) => format!("({text})"),
            _ => unreachable!("counter index out of range for {self:?}"),
        }
    }
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SiteKind::Assert => "assert",
            SiteKind::Bounds => "bounds",
            SiteKind::ReturnSign => "returns",
            SiteKind::ScalarPair => "scalar-pairs",
            SiteKind::Branch => "branches",
        };
        f.write_str(s)
    }
}

/// One instrumentation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The site's id (index into the site table).
    pub id: SiteId,
    /// Name of the function containing the site.
    pub function: String,
    /// Source position of the instrumented construct.
    pub span: Span,
    /// Observation kind.
    pub kind: SiteKind,
    /// Subject text; for scalar pairs the two variable names separated by
    /// `\u{1}`, otherwise a rendered expression like `file_exists()`.
    pub text: String,
    /// First counter index owned by this site in the report vector.
    pub counter_base: usize,
}

impl Site {
    /// The human-readable predicate name of counter `which`, e.g.
    /// `storage.c-analogue:176 more_arrays(): indx > a_count`.
    pub fn predicate_name(&self, which: usize) -> String {
        format!(
            "{} {}(): {}",
            self.span,
            self.function,
            self.kind.describe(&self.text, which)
        )
    }
}

/// All sites of an instrumented program, in id order, plus the counter
/// layout of its reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteTable {
    sites: Vec<Site>,
    total_counters: usize,
}

impl SiteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SiteTable::default()
    }

    /// Registers a new site and returns its id.
    pub fn add(&mut self, function: &str, span: Span, kind: SiteKind, text: String) -> SiteId {
        let id = SiteId(self.sites.len() as u32);
        let site = Site {
            id,
            function: function.to_string(),
            span,
            kind,
            text,
            counter_base: self.total_counters,
        };
        self.total_counters += kind.arity();
        self.sites.push(site);
        id
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the table has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Total number of counters across all sites — the report vector length.
    pub fn total_counters(&self) -> usize {
        self.total_counters
    }

    /// The site with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0 as usize]
    }

    /// Iterates over all sites in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter()
    }

    /// Maps a counter index back to its site and within-site position.
    ///
    /// # Panics
    ///
    /// Panics if `counter` is out of range.
    fn counter_owner(&self, counter: usize) -> (&Site, usize) {
        assert!(counter < self.total_counters, "counter index out of range");
        // Sites have sorted counter_base; binary search for the owner.
        let idx = self
            .sites
            .partition_point(|s| s.counter_base <= counter)
            .checked_sub(1)
            .expect("counter below first base");
        let site = &self.sites[idx];
        (site, counter - site.counter_base)
    }

    /// The human-readable predicate name of a counter index.
    pub fn predicate_name(&self, counter: usize) -> String {
        let (site, which) = self.counter_owner(counter);
        site.predicate_name(which)
    }

    /// Sites grouped per function, for the static metrics of Table 1.
    #[cfg(test)]
    fn sites_in_function(&self, function: &str) -> usize {
        self.sites.iter().filter(|s| s.function == function).count()
    }

    /// A deterministic 64-bit fingerprint of the counter layout: every
    /// site's kind, position, subject, and counter base, plus the total
    /// counter count.  Two instrumented binaries share a hash exactly
    /// when their reports are interchangeable, so the wire codec in
    /// `cbi-reports` can reject mismatched report streams at the frame
    /// boundary (FNV-1a; stable across processes and platforms).
    pub fn layout_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let mut h = OFFSET;
        h = eat(h, &(self.total_counters as u64).to_le_bytes());
        for site in &self.sites {
            h = eat(h, &[site.kind.arity() as u8]);
            h = eat(h, site.kind.to_string().as_bytes());
            h = eat(h, &(site.counter_base as u64).to_le_bytes());
            h = eat(h, site.function.as_bytes());
            h = eat(h, &site.span.line.to_le_bytes());
            h = eat(h, &site.span.col.to_le_bytes());
            h = eat(h, site.text.as_bytes());
            h = eat(h, &[0xff]); // site separator
        }
        h
    }
}

/// Recognizes an instrumentation-site statement: a bare call to one of the
/// observation builtins (`__check`, `__cmp`, `__obs_sign`) whose first
/// argument is the literal site id.
///
/// Schemes insert sites in exactly this shape, and the sampling
/// transformation, the strip pass, and the weightless analysis all detect
/// them through this function.
pub fn site_stmt(stmt: &cbi_minic::Stmt) -> Option<SiteId> {
    use cbi_minic::{Builtin, Expr, Stmt};
    let Stmt::Expr { expr, .. } = stmt else {
        return None;
    };
    let Expr::Call { name, args, .. } = expr else {
        return None;
    };
    match Builtin::from_name(name) {
        Some(Builtin::ObsCheck | Builtin::ObsCmp | Builtin::ObsSign) => match args.first() {
            Some(Expr::Int { value, .. }) if *value >= 0 => Some(SiteId(*value as u32)),
            _ => None,
        },
        _ => None,
    }
}

impl<'a> IntoIterator for &'a SiteTable {
    type Item = &'a Site;
    type IntoIter = std::slice::Iter<'a, Site>;

    fn into_iter(self) -> Self::IntoIter {
        self.sites.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(line: u32) -> Span {
        Span::new(line, 1)
    }

    #[test]
    fn counter_layout_is_contiguous() {
        let mut t = SiteTable::new();
        let a = t.add("f", span(1), SiteKind::Assert, "p != null".into());
        let b = t.add("f", span(2), SiteKind::ScalarPair, "a\u{1}b".into());
        let c = t.add("g", span(3), SiteKind::ReturnSign, "h()".into());
        assert_eq!(t.site(a).counter_base, 0);
        assert_eq!(t.site(b).counter_base, 2);
        assert_eq!(t.site(c).counter_base, 5);
        assert_eq!(t.total_counters(), 8);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn counter_owner_round_trips() {
        let mut t = SiteTable::new();
        t.add("f", span(1), SiteKind::Assert, "x".into());
        t.add("f", span(2), SiteKind::ScalarPair, "a\u{1}b".into());
        let (s, w) = t.counter_owner(0);
        assert_eq!((s.id, w), (SiteId(0), 0));
        let (s, w) = t.counter_owner(1);
        assert_eq!((s.id, w), (SiteId(0), 1));
        let (s, w) = t.counter_owner(2);
        assert_eq!((s.id, w), (SiteId(1), 0));
        let (s, w) = t.counter_owner(4);
        assert_eq!((s.id, w), (SiteId(1), 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn counter_owner_rejects_out_of_range() {
        let mut t = SiteTable::new();
        t.add("f", span(1), SiteKind::Assert, "x".into());
        let _ = t.counter_owner(2);
    }

    #[test]
    fn predicate_names_match_paper_style() {
        let mut t = SiteTable::new();
        t.add(
            "more_arrays",
            span(176),
            SiteKind::ScalarPair,
            "indx\u{1}a_count".into(),
        );
        t.add(
            "traverse",
            span(320),
            SiteKind::ReturnSign,
            "file_exists()".into(),
        );
        assert_eq!(t.predicate_name(2), "176:1 more_arrays(): indx > a_count");
        assert_eq!(t.predicate_name(5), "320:1 traverse(): file_exists() > 0");
        assert_eq!(t.predicate_name(3), "320:1 traverse(): file_exists() < 0");
    }

    #[test]
    fn assert_counters_describe_violation_and_pass() {
        let mut t = SiteTable::new();
        t.add("f", span(9), SiteKind::Assert, "i < max".into());
        assert!(t.predicate_name(0).contains("!(i < max)"));
        assert!(t.predicate_name(1).contains("i < max"));
    }

    #[test]
    fn branch_counters() {
        let mut t = SiteTable::new();
        t.add("f", span(4), SiteKind::Branch, "x > 0".into());
        assert!(t.predicate_name(1).contains("!(x > 0)"));
        assert!(t.predicate_name(2).ends_with("(x > 0)"));
    }

    #[test]
    fn sites_in_function_counts() {
        let mut t = SiteTable::new();
        t.add("f", span(1), SiteKind::Assert, "a".into());
        t.add("g", span(2), SiteKind::Assert, "b".into());
        t.add("f", span(3), SiteKind::Assert, "c".into());
        assert_eq!(t.sites_in_function("f"), 2);
        assert_eq!(t.sites_in_function("g"), 1);
        assert_eq!(t.sites_in_function("h"), 0);
    }

    #[test]
    fn arities() {
        assert_eq!(SiteKind::Assert.arity(), 2);
        assert_eq!(SiteKind::Bounds.arity(), 2);
        assert_eq!(SiteKind::Branch.arity(), 3);
        assert_eq!(SiteKind::ReturnSign.arity(), 3);
        assert_eq!(SiteKind::ScalarPair.arity(), 3);
    }

    #[test]
    fn layout_hash_is_stable_and_discriminating() {
        let mut a = SiteTable::new();
        a.add("f", span(1), SiteKind::Assert, "x".into());
        a.add("g", span(2), SiteKind::ReturnSign, "h()".into());

        let mut b = SiteTable::new();
        b.add("f", span(1), SiteKind::Assert, "x".into());
        b.add("g", span(2), SiteKind::ReturnSign, "h()".into());
        assert_eq!(a.layout_hash(), b.layout_hash(), "same layout, same hash");

        // Any perturbation — site text, kind, position — changes the hash.
        let mut c = SiteTable::new();
        c.add("f", span(1), SiteKind::Assert, "y".into());
        c.add("g", span(2), SiteKind::ReturnSign, "h()".into());
        assert_ne!(a.layout_hash(), c.layout_hash());

        let mut d = SiteTable::new();
        d.add("f", span(1), SiteKind::Bounds, "x".into());
        d.add("g", span(2), SiteKind::ReturnSign, "h()".into());
        assert_ne!(a.layout_hash(), d.layout_hash());

        assert_ne!(SiteTable::new().layout_hash(), a.layout_hash());
    }

    #[test]
    fn iteration_in_id_order() {
        let mut t = SiteTable::new();
        t.add("f", span(1), SiteKind::Assert, "a".into());
        t.add("f", span(2), SiteKind::Assert, "b".into());
        let ids: Vec<u32> = t.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
        let ids2: Vec<u32> = (&t).into_iter().map(|s| s.id.0).collect();
        assert_eq!(ids2, ids);
    }
}
