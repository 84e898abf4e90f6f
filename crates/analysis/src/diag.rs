//! The unified diagnostics engine: severities, stable lint codes, source
//! locations, and text/JSON renderers.

use std::fmt;
use vliw_ir::{OpId, VReg};
use vliw_machine::ClusterId;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth surfacing, never wrong.
    Info,
    /// Suspicious but not demonstrably incorrect (e.g. imbalance).
    Warn,
    /// A violated invariant: the artifact is wrong.
    Error,
}

impl Severity {
    /// The canonical lowercase name (`info` / `warn` / `error`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::name`], for wire decoding.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The pipeline stage a finding belongs to. Carried on every
/// [`Diagnostic`] as a closed enum (not a free-form string) so diagnostics
/// survive a round trip through the vliw-serve wire/cache encoding intact:
/// [`Stage::parse`] is the exact inverse of [`Stage::name`], and the
/// canonical names are stable across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Structural verification of the input IR.
    Ir,
    /// Register component graph construction (§4.1).
    Rcg,
    /// Bank assignment / partitioning of the RCG.
    Partition,
    /// Copy insertion and the rebuilt clustered body.
    Copies,
    /// Per-bank register-pressure accounting.
    Pressure,
    /// Modulo scheduling (ideal or clustered).
    Schedule,
    /// Prelude/kernel/postlude flat-code expansion.
    Expand,
    /// Dynamic equivalence oracles (virtual or physical simulation).
    Sim,
    /// Alpha-canonicalization (normal form, structural hash, witness).
    Normal,
    /// Joint (II, slot, bank) solver claims (witness legality, bound
    /// consistency, optimality honesty).
    Joint,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::Ir,
        Stage::Rcg,
        Stage::Partition,
        Stage::Copies,
        Stage::Pressure,
        Stage::Schedule,
        Stage::Expand,
        Stage::Sim,
        Stage::Normal,
        Stage::Joint,
    ];

    /// The stable canonical name, e.g. `partition`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ir => "ir",
            Stage::Rcg => "rcg",
            Stage::Partition => "partition",
            Stage::Copies => "copies",
            Stage::Pressure => "pressure",
            Stage::Schedule => "schedule",
            Stage::Expand => "expand",
            Stage::Sim => "sim",
            Stage::Normal => "normal",
            Stage::Joint => "joint",
        }
    }

    /// Inverse of [`Stage::name`], for wire decoding.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Stable lint codes. The numeric part never changes meaning across
/// versions; renderers print `CODE slug`, e.g.
/// `BANK001 foreign-bank-operand-without-copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LintCode {
    /// A non-copy operation reads an operand whose register lives in a
    /// different bank than the operation's cluster, and no copy feeds it.
    Bank001,
    /// A register was assigned to a bank index outside the machine's
    /// cluster range.
    Bank002,
    /// Bank population is heavily imbalanced relative to cluster capacity
    /// while the balance penalty was enabled.
    Bank003,
    /// Per-bank MaxLive exceeds the configured bank capacity for a class.
    Pres002,
    /// A def/use pair of some operation has no positive (attraction) RCG
    /// edge.
    Rcg001,
    /// RCG adjacency is asymmetric (internal graph corruption).
    Rcg002,
    /// Two distinct registers defined in the same ideal-kernel row lack the
    /// repulsion edge §4.1 requires.
    Rcg003,
    /// An RCG edge exists that neither attraction (shared def/use
    /// operation) nor repulsion (same-row defs) justifies.
    Rcg004,
    /// Copy-network dataflow is broken: orphaned, duplicated, self, or
    /// class-changing copy.
    Copy004,
    /// The rebuilt clustered DDG misses the flow edge a kernel copy implies,
    /// or schedules the copy before its producer's latency elapses.
    Copy005,
    /// Flat-code expansion disagrees with the schedule's stage structure
    /// (prelude/kernel/postlude mismatch).
    Exp005,
    /// Clustered schedule violates a dependence modulo II.
    Sched001,
    /// Clustered schedule over-subscribes a resource row.
    Sched002,
    /// An operation landed on a cluster other than its pinned one.
    Sched003,
    /// Schedule shape or issue-time domain error.
    Sched004,
    /// The dynamic equivalence oracle (cycle-accurate simulation vs scalar
    /// reference) found a divergence.
    Sim006,
    /// The IR itself fails structural verification.
    Ir007,
    /// Canonicalizing the canonical form changed it (the normal-form
    /// rewrite is not a projection).
    Nrm001,
    /// Structural hash and alpha-equivalence disagree: an isomorphic
    /// variant changed the hash, a perturbed loop kept it, or a witness
    /// failed validation.
    Nrm002,
    /// The canonical form diverges from the original under the `vliw-sim`
    /// scalar reference oracle (canonicalization changed semantics).
    Nrm003,
    /// The joint solver's schedule witness is illegal: wrong shape for the
    /// clustered body, or it violates a dependence or resource constraint.
    Jnt001,
    /// The joint solver's claims are mutually inconsistent: the claimed II
    /// disagrees with the witness, exceeds the greedy II, or undercuts the
    /// reported lower bound.
    Jnt002,
    /// The solver claims optimality while its own lower bound leaves a gap
    /// below the claimed II.
    Jnt003,
}

impl LintCode {
    /// Every lint code the engine can emit. Wire decoders resolve codes
    /// through this table ([`LintCode::from_code`]); extending the enum
    /// without extending `ALL` breaks the `codes_round_trip` test.
    pub const ALL: [LintCode; 23] = [
        LintCode::Bank001,
        LintCode::Bank002,
        LintCode::Bank003,
        LintCode::Pres002,
        LintCode::Rcg001,
        LintCode::Rcg002,
        LintCode::Rcg003,
        LintCode::Rcg004,
        LintCode::Copy004,
        LintCode::Copy005,
        LintCode::Exp005,
        LintCode::Sched001,
        LintCode::Sched002,
        LintCode::Sched003,
        LintCode::Sched004,
        LintCode::Sim006,
        LintCode::Ir007,
        LintCode::Nrm001,
        LintCode::Nrm002,
        LintCode::Nrm003,
        LintCode::Jnt001,
        LintCode::Jnt002,
        LintCode::Jnt003,
    ];

    /// Inverse of [`LintCode::code`], for wire decoding.
    pub fn from_code(code: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.code() == code)
    }

    /// The stable short code, e.g. `BANK001`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::Bank001 => "BANK001",
            LintCode::Bank002 => "BANK002",
            LintCode::Bank003 => "BANK003",
            LintCode::Pres002 => "PRES002",
            LintCode::Rcg001 => "RCG001",
            LintCode::Rcg002 => "RCG002",
            LintCode::Rcg003 => "RCG003",
            LintCode::Rcg004 => "RCG004",
            LintCode::Copy004 => "COPY004",
            LintCode::Copy005 => "COPY005",
            LintCode::Exp005 => "EXP005",
            LintCode::Sched001 => "SCHED001",
            LintCode::Sched002 => "SCHED002",
            LintCode::Sched003 => "SCHED003",
            LintCode::Sched004 => "SCHED004",
            LintCode::Sim006 => "SIM006",
            LintCode::Ir007 => "IR007",
            LintCode::Nrm001 => "NRM001",
            LintCode::Nrm002 => "NRM002",
            LintCode::Nrm003 => "NRM003",
            LintCode::Jnt001 => "JNT001",
            LintCode::Jnt002 => "JNT002",
            LintCode::Jnt003 => "JNT003",
        }
    }

    /// The human-readable slug, e.g. `foreign-bank-operand-without-copy`.
    pub fn slug(self) -> &'static str {
        match self {
            LintCode::Bank001 => "foreign-bank-operand-without-copy",
            LintCode::Bank002 => "bank-index-out-of-range",
            LintCode::Bank003 => "bank-population-imbalance",
            LintCode::Pres002 => "maxlive-exceeds-bank-capacity",
            LintCode::Rcg001 => "missing-attraction-edge-for-def-use-pair",
            LintCode::Rcg002 => "asymmetric-rcg-adjacency",
            LintCode::Rcg003 => "missing-repulsion-edge-for-same-cycle-defs",
            LintCode::Rcg004 => "spurious-rcg-edge",
            LintCode::Copy004 => "copy-dataflow-break",
            LintCode::Copy005 => "copy-latency-edge-missing",
            LintCode::Exp005 => "prelude-kernel-postlude-stage-mismatch",
            LintCode::Sched001 => "dependence-violated-modulo-ii",
            LintCode::Sched002 => "resource-row-over-subscribed",
            LintCode::Sched003 => "op-on-wrong-cluster",
            LintCode::Sched004 => "schedule-shape-error",
            LintCode::Sim006 => "dynamic-oracle-divergence",
            LintCode::Ir007 => "ir-verification-failure",
            LintCode::Nrm001 => "canonical-form-not-idempotent",
            LintCode::Nrm002 => "hash-equivalence-disagreement",
            LintCode::Nrm003 => "canonicalization-changed-semantics",
            LintCode::Jnt001 => "joint-witness-illegal",
            LintCode::Jnt002 => "joint-claim-inconsistent",
            LintCode::Jnt003 => "joint-optimality-overclaim",
        }
    }

    /// Default severity a finding of this code carries.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::Bank003 => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.slug())
    }
}

/// Where in the pipeline artifact a finding points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceLoc {
    /// Operation, if the finding anchors to one.
    pub op: Option<OpId>,
    /// Virtual register, if the finding anchors to one.
    pub vreg: Option<VReg>,
    /// Cycle / kernel row, if relevant.
    pub cycle: Option<i64>,
    /// Cluster / bank, if relevant.
    pub cluster: Option<ClusterId>,
}

impl SourceLoc {
    /// Location anchored to an operation.
    pub fn op(op: OpId) -> Self {
        SourceLoc {
            op: Some(op),
            ..Default::default()
        }
    }

    /// Location anchored to a register.
    pub fn vreg(v: VReg) -> Self {
        SourceLoc {
            vreg: Some(v),
            ..Default::default()
        }
    }

    /// Attach a cycle.
    pub fn at_cycle(mut self, c: i64) -> Self {
        self.cycle = Some(c);
        self
    }

    /// Attach a cluster.
    pub fn in_cluster(mut self, c: ClusterId) -> Self {
        self.cluster = Some(c);
        self
    }

    fn is_empty(&self) -> bool {
        self.op.is_none() && self.vreg.is_none() && self.cycle.is_none() && self.cluster.is_none()
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(o) = self.op {
            parts.push(format!("op{}", o.index()));
        }
        if let Some(v) = self.vreg {
            parts.push(format!("v{}", v.index()));
        }
        if let Some(c) = self.cycle {
            parts.push(format!("cycle {c}"));
        }
        if let Some(c) = self.cluster {
            parts.push(format!("{c}"));
        }
        write!(f, "{}", parts.join(", "))
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity (usually `code.default_severity()`).
    pub severity: Severity,
    /// Human-readable explanation with concrete values.
    pub message: String,
    /// Anchor in the artifact.
    pub loc: SourceLoc,
    /// Pipeline stage that produced the artifact.
    pub stage: Stage,
}

impl Diagnostic {
    /// New diagnostic at the code's default severity.
    pub fn new(code: LintCode, stage: Stage, loc: SourceLoc, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message,
            loc,
            stage,
        }
    }

    /// Lower the severity to a warning.
    pub fn warning(mut self) -> Self {
        self.severity = Severity::Warn;
        self
    }

    /// Render `severity[CODE slug] @ loc (stage): message`.
    pub fn render_text(&self) -> String {
        let loc = if self.loc.is_empty() {
            String::new()
        } else {
            format!(" @ {}", self.loc)
        };
        format!(
            "{}[{}]{} ({}): {}",
            self.severity, self.code, loc, self.stage, self.message
        )
    }

    /// Render as a JSON object (hand-rolled: the offline build has no
    /// serialisation crate).
    pub fn render_json(&self) -> String {
        let mut fields = vec![
            format!("\"code\":{}", json_str(self.code.code())),
            format!("\"slug\":{}", json_str(self.code.slug())),
            format!("\"severity\":{}", json_str(self.severity.name())),
            format!("\"stage\":{}", json_str(self.stage.name())),
            format!("\"message\":{}", json_str(&self.message)),
        ];
        if let Some(o) = self.loc.op {
            fields.push(format!("\"op\":{}", o.index()));
        }
        if let Some(v) = self.loc.vreg {
            fields.push(format!("\"vreg\":{}", v.index()));
        }
        if let Some(c) = self.loc.cycle {
            fields.push(format!("\"cycle\":{c}"));
        }
        if let Some(c) = self.loc.cluster {
            fields.push(format!("\"cluster\":{}", c.index()));
        }
        format!("{{{}}}", fields.join(","))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A collection of findings for one artifact or one whole pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The findings, in discovery order.
    pub diags: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Count findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == sev).count()
    }

    /// Any error-level findings?
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// True when a finding with `code` is present.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// All findings with `code`.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diags.iter().filter(|d| d.code == code).collect()
    }

    /// Multi-line text rendering (one finding per line, summary last).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }

    /// JSON array rendering.
    pub fn render_json(&self) -> String {
        let items: Vec<String> = self.diags.iter().map(Diagnostic::render_json).collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_slugs_are_stable() {
        assert_eq!(LintCode::Bank001.code(), "BANK001");
        assert_eq!(
            LintCode::Bank001.slug(),
            "foreign-bank-operand-without-copy"
        );
        assert_eq!(LintCode::Pres002.code(), "PRES002");
        assert_eq!(
            LintCode::Rcg003.slug(),
            "missing-repulsion-edge-for-same-cycle-defs"
        );
        assert_eq!(LintCode::Copy004.code(), "COPY004");
        assert_eq!(LintCode::Exp005.code(), "EXP005");
        assert_eq!(
            format!("{}", LintCode::Sim006),
            "SIM006 dynamic-oracle-divergence"
        );
    }

    #[test]
    fn report_counts_and_rendering() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintCode::Bank001,
            Stage::Partition,
            SourceLoc::op(OpId(3)).in_cluster(ClusterId(1)),
            "operand v2 lives in c0".into(),
        ));
        r.push(Diagnostic::new(
            LintCode::Bank003,
            Stage::Partition,
            SourceLoc::default(),
            "bank 0 holds 90% of registers".into(),
        ));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert!(r.has_code(LintCode::Bank001));
        assert!(!r.has_code(LintCode::Sim006));
        let text = r.render_text();
        assert!(text.contains("error[BANK001 foreign-bank-operand-without-copy] @ op3, c1"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        let json = r.render_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"code\":\"BANK001\""));
        assert!(json.contains("\"cluster\":1"));
    }

    #[test]
    fn json_escaping() {
        let d = Diagnostic::new(
            LintCode::Sim006,
            Stage::Sim,
            SourceLoc::default(),
            "bad \"quote\" and\nnewline".into(),
        );
        let j = d.render_json();
        assert!(j.contains("bad \\\"quote\\\" and\\nnewline"));
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s), "{s}");
        }
        assert_eq!(Stage::parse("banks"), None);
        assert_eq!(Stage::parse(""), None);
        // The canonical names are a wire format: spell them out so a rename
        // fails here, not in a stale cache.
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "ir",
                "rcg",
                "partition",
                "copies",
                "pressure",
                "schedule",
                "expand",
                "sim",
                "normal",
                "joint"
            ]
        );
    }

    #[test]
    fn codes_round_trip() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::from_code(c.code()), Some(c), "{c}");
        }
        assert_eq!(LintCode::from_code("BANK999"), None);
    }

    #[test]
    fn severities_round_trip() {
        for s in [Severity::Info, Severity::Warn, Severity::Error] {
            assert_eq!(Severity::parse(s.name()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }
}
