//! Human-readable reports: the "proof environment" output of IOLB.
//!
//! The paper frames the tool as a proof environment: the output should let a
//! reader review how a bound was derived. [`Report`] collects the analysis
//! result, the accepted sub-bounds with their derivation notes, and the OI
//! summary, and renders them as text.

use crate::driver::Analysis;
use crate::oi::OiSummary;
use iolb_poly::json::Json;
use std::fmt;

/// Version of the JSON document built by [`Report::json`] (and by
/// `AnalysisOutcome::json`, which extends it). Bump when a field is
/// removed or changes meaning; additions are backwards-compatible.
pub const SCHEMA_VERSION: u32 = 1;

/// A reviewable report for one analysed kernel.
#[derive(Clone, Debug)]
pub struct Report {
    /// Kernel name.
    pub kernel: String,
    /// The underlying analysis.
    pub analysis: Analysis,
    /// Operational-intensity summary (when the operation count is known).
    pub oi: Option<OiSummary>,
}

impl Report {
    /// Builds a report from an analysis.
    pub fn new(kernel: &str, analysis: Analysis, ops_override: Option<iolb_symbol::Poly>) -> Self {
        let oi = OiSummary::from_analysis(&analysis, ops_override);
        Report {
            kernel: kernel.to_string(),
            analysis,
            oi,
        }
    }

    /// The report as a JSON value. All symbolic expressions are rendered
    /// in their `Display` form; machine consumers that need more structure
    /// should walk the [`Report::analysis`] fields directly.
    pub fn json(&self) -> Json {
        let text = |v: &dyn fmt::Display| Json::from(v.to_string());
        let a = &self.analysis;
        let oi_up = self.oi.as_ref().and_then(|o| o.oi_up.as_ref());
        let accepted = a.accepted.iter().map(|b| {
            let notes = Json::from(b.notes.clone());
            Json::obj([("bound", text(b)), ("notes", notes)])
        });
        Json::obj([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kernel", text(&self.kernel)),
            ("q_low", text(&a.q_low)),
            ("q_asymptotic", text(&a.q_asymptotic())),
            ("input_size", text(&a.input_size)),
            ("cache_param", text(&a.cache_param)),
            (
                "ops",
                self.oi.as_ref().map_or(Json::Null, |oi| text(&oi.ops)),
            ),
            ("oi_up", oi_up.map_or(Json::Null, |up| text(up))),
            ("num_candidates", Json::from(a.candidates.len())),
            ("accepted_bounds", Json::Arr(accepted.collect())),
        ])
    }

    /// The report as one compact line of JSON.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// One-line summary: kernel, asymptotic bound, asymptotic OI.
    pub fn summary_line(&self) -> String {
        let q = self.analysis.q_asymptotic();
        let oi = self
            .oi
            .as_ref()
            .and_then(|o| o.oi_up.clone())
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".to_string());
        format!(
            "{:<16} Q∞ = {:<28} OI_up = {}",
            self.kernel,
            q.to_string(),
            oi
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel: {}", self.kernel)?;
        writeln!(f, "  Q_low  = {}", self.analysis.q_low)?;
        writeln!(f, "  Q∞     = {}", self.analysis.q_asymptotic())?;
        writeln!(f, "  inputs = {}", self.analysis.input_size)?;
        if let Some(oi) = &self.oi {
            writeln!(f, "  #ops   = {}", oi.ops)?;
            if let Some(up) = &oi.oi_up {
                writeln!(f, "  OI_up  = {}", up)?;
            }
        }
        writeln!(
            f,
            "  accepted sub-bounds: {} (of {} candidates)",
            self.analysis.accepted.len(),
            self.analysis.candidates.len()
        )?;
        for b in &self.analysis.accepted {
            writeln!(f, "    - {}", b)?;
            for note in &b.notes {
                writeln!(f, "        {note}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{analyze, AnalysisOptions};
    use iolb_dfg::Dfg;

    fn simple() -> Dfg {
        Dfg::builder()
            .input("X", "[N] -> { X[i] : 0 <= i < N }")
            .statement("S", "[N] -> { S[i] : 0 <= i < N }")
            .edge("X", "S", "[N] -> { X[i] -> S[i2] : i2 = i and 0 <= i < N }")
            .build()
            .unwrap()
    }

    #[test]
    fn report_renders() {
        let g = simple();
        let options = AnalysisOptions::with_default_instance(&["N"], 1000, 128);
        let analysis = analyze(&g, &options);
        let report = Report::new("copy", analysis, None);
        let text = report.to_string();
        assert!(text.contains("kernel: copy"));
        assert!(text.contains("Q_low"));
        let line = report.summary_line();
        assert!(line.contains("copy"));
        assert!(line.contains("OI_up"));
    }

    #[test]
    fn report_serialises_to_json() {
        let g = simple();
        let options = AnalysisOptions::with_default_instance(&["N"], 1000, 128);
        let analysis = analyze(&g, &options);
        let report = Report::new("copy", analysis, None);
        let json = report.to_json();
        assert!(!json.contains('\n'), "{json}");
        let doc = iolb_poly::json::parse(&json).unwrap();
        assert_eq!(doc.render(), json, "rendering is the inverse of parsing");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION as u64)
        );
        assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("copy"));
        assert_eq!(
            doc.get("q_low").and_then(Json::as_str),
            Some(report.analysis.q_low.to_string().as_str())
        );
        assert!(matches!(doc.get("accepted_bounds"), Some(Json::Arr(_))));
    }
}
