//! Diagnostics: what an analysis found, where, and how bad it is.

use std::fmt;

use impact_support::json::Json;
use impact_support::ToJson;

/// How serious a diagnostic is.
///
/// The contract the rest of the tooling relies on: a clean pipeline run
/// over a well-formed program produces **zero errors**. Warnings flag
/// quality or performance hazards (broken traces, cache conflict
/// pressure, recursion that blocks inlining) that can legitimately occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A hazard worth looking at; does not fail `impact lint`.
    Warning,
    /// A broken invariant; fails `impact lint`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the pipeline artifacts a diagnostic points.
///
/// All fields are optional: a program-wide finding has none, a
/// function-level finding names the function, a block-level finding adds
/// the block, and trace findings add the trace index within the function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// Function name, when the finding is scoped to one function.
    pub function: Option<String>,
    /// Block index within the function.
    pub block: Option<usize>,
    /// Trace index within the function's trace assignment.
    pub trace: Option<usize>,
}

impl Location {
    /// A program-wide location (no anchor).
    #[must_use]
    pub fn program() -> Self {
        Self::default()
    }

    /// A location naming just a function.
    #[must_use]
    pub fn function(name: impl Into<String>) -> Self {
        Self {
            function: Some(name.into()),
            ..Self::default()
        }
    }

    /// A location naming a block within a function.
    #[must_use]
    pub fn block(name: impl Into<String>, block: usize) -> Self {
        Self {
            function: Some(name.into()),
            block: Some(block),
            ..Self::default()
        }
    }

    /// A location naming a trace within a function.
    #[must_use]
    pub fn trace(name: impl Into<String>, trace: usize) -> Self {
        Self {
            function: Some(name.into()),
            trace: Some(trace),
            ..Self::default()
        }
    }
}

impl fmt::Display for Location {
    /// `<program>`, `func`, `func/b3`, or `func/trace2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.function, self.block, self.trace) {
            (None, _, _) => write!(f, "<program>"),
            (Some(name), Some(b), _) => write!(f, "{name}/b{b}"),
            (Some(name), None, Some(t)) => write!(f, "{name}/trace{t}"),
            (Some(name), None, None) => write!(f, "{name}"),
        }
    }
}

/// One finding from one analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code identifying the analysis (e.g. `IPA001`). Codes are
    /// append-only: a code is never reused for a different check.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Human-readable explanation, self-contained (repeats the location).
    pub message: String,
    /// Anchor in the pipeline artifacts.
    pub location: Location,
}

impl Diagnostic {
    /// An error diagnostic.
    #[must_use]
    pub fn error(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            message: message.into(),
            location,
        }
    }

    /// A warning diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, location: Location, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            message: message.into(),
            location,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("code".to_string(), self.code.to_json()),
            ("severity".to_string(), self.severity.to_string().to_json()),
            ("message".to_string(), self.message.to_json()),
            ("function".to_string(), self.location.function.to_json()),
            ("block".to_string(), self.location.block.to_json()),
            ("trace".to_string(), self.location.trace.to_json()),
        ])
    }
}

/// The collected output of a lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All diagnostics, in pass order then discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when no *errors* were found (warnings allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Diagnostics carrying a given code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders the report as human-readable text, one diagnostic per
    /// line, followed by a summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("errors".to_string(), self.error_count().to_json()),
            ("warnings".to_string(), self.warning_count().to_json()),
            ("diagnostics".to_string(), self.diagnostics.to_json()),
        ])
    }
}

impl Report {
    /// The `{"target": ..., "report": ...}` object both `impact lint
    /// --json` (one per target, collected into an array) and the
    /// `impact serve` `/v1/lint` endpoint emit — one implementation so
    /// the two surfaces stay byte-for-byte identical.
    #[must_use]
    pub fn to_json_for_target(&self, target: &str) -> Json {
        Json::Obj(vec![
            ("target".to_string(), target.to_json()),
            ("report".to_string(), self.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let d = Diagnostic::error("IPA102", Location::block("main", 3), "blocks overlap");
        assert_eq!(d.to_string(), "error[IPA102] main/b3: blocks overlap");
        let w = Diagnostic::warning("IPA105", Location::trace("work", 2), "trace broken");
        assert_eq!(w.to_string(), "warning[IPA105] work/trace2: trace broken");
        assert_eq!(Location::program().to_string(), "<program>");
        assert_eq!(Location::function("f").to_string(), "f");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::warning(
            "IPA201",
            Location::program(),
            "hot set",
        ));
        assert!(r.is_clean());
        assert_eq!(r.warning_count(), 1);
        r.diagnostics
            .push(Diagnostic::error("IPA101", Location::program(), "unplaced"));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.with_code("IPA101").count(), 1);
    }

    #[test]
    fn targeted_json_wraps_the_report() {
        let mut r = Report::default();
        r.diagnostics
            .push(Diagnostic::warning("IPA201", Location::program(), "hot"));
        let row = r.to_json_for_target("wc").to_string();
        assert!(row.starts_with(r#"{"target":"wc","report":"#), "{row}");
    }

    #[test]
    fn json_shape_matches_schema() {
        let mut r = Report::default();
        r.diagnostics.push(Diagnostic::error(
            "IPA104",
            Location::block("f", 1),
            "misaligned",
        ));
        let json = r.to_json().to_string();
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"code\":\"IPA104\""));
        assert!(json.contains("\"block\":1"));
        assert!(json.contains("\"trace\":null"));
    }
}
