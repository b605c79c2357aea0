//! Rendering of experiment results as identifier + headline + table + shape checks.

use radio_sweep::Json;
use radio_throughput::Table;

/// A rendered experiment: identifier, headline, measurement table,
/// and the shape checks against the paper's claims.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`E1`..`E12`, `F1`).
    pub id: &'static str,
    /// What the paper claims (theorem/lemma reference).
    pub claim: &'static str,
    /// The measured table.
    pub table: Table,
    /// Key findings: one line per checked shape, prefixed `[ok]` /
    /// `[!!]`.
    pub findings: Vec<String>,
    /// Per-cell wall-clock milliseconds of the driver's sweep, in grid
    /// order; a driver that runs several sweeps lists them in the order
    /// they ran.
    /// Observability data only: it rides on the binary's `--json`
    /// artifact as `cell_ms` but is excluded from [`suite_json`] and
    /// ignored by `experiments --diff`, so the determinism gates stay
    /// byte-exact.
    pub cell_ms: Vec<f64>,
}

/// Renders a full experiment suite as a pretty-printed JSON artifact
/// containing only the *measured* content.
///
/// The document records the scale and master seed — everything needed
/// to reproduce it — but deliberately *not* the worker count or wall
/// time, so it is byte-identical across `--jobs` values. The binary's
/// `--json` flag writes [`suite_json_timed`] instead, which adds the
/// per-cell `cell_ms` timing field; `--diff` ignores that field, so the
/// determinism gates hold for both forms.
pub fn suite_json(reports: &[ExperimentReport], scale_name: &str, master_seed: u64) -> String {
    suite_doc(reports, scale_name, master_seed, false).render_pretty()
}

/// As [`suite_json`], additionally recording each experiment's
/// per-cell wall-clock milliseconds (`cell_ms`, rounded to 0.01 ms) —
/// observability data for per-cell wall-clock comparisons. Everything
/// except `cell_ms` is byte-identical to [`suite_json`]'s output.
pub fn suite_json_timed(
    reports: &[ExperimentReport],
    scale_name: &str,
    master_seed: u64,
) -> String {
    suite_doc(reports, scale_name, master_seed, true).render_pretty()
}

fn suite_doc(
    reports: &[ExperimentReport],
    scale_name: &str,
    master_seed: u64,
    timed: bool,
) -> Json {
    Json::obj([
        ("schema", Json::str("noisy-radio/experiments/v1")),
        ("scale", Json::str(scale_name)),
        ("master_seed", Json::U64(master_seed)),
        (
            "experiments",
            Json::arr(reports.iter().map(|r| {
                let mut doc = r.to_json();
                if timed && !r.cell_ms.is_empty() {
                    if let Json::Obj(pairs) = &mut doc {
                        pairs.push((
                            "cell_ms".into(),
                            Json::arr(
                                r.cell_ms
                                    .iter()
                                    .map(|&ms| Json::F64((ms * 100.0).round() / 100.0)),
                            ),
                        ));
                    }
                }
                doc
            })),
        ),
    ])
}

impl ExperimentReport {
    /// Adds a finding line with an `[ok]`/`[!!]` prefix.
    pub fn check(&mut self, ok: bool, text: impl Into<String>) {
        let prefix = if ok { "[ok]" } else { "[!!]" };
        self.findings.push(format!("{prefix} {}", text.into()));
    }

    /// Whether every finding passed.
    pub fn all_ok(&self) -> bool {
        self.findings.iter().all(|f| f.starts_with("[ok]"))
    }

    /// Renders the full report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n\n", self.id, self.claim));
        out.push_str(&self.table.render());
        out.push('\n');
        for f in &self.findings {
            out.push_str(f);
            out.push('\n');
        }
        out
    }

    /// Converts the report to a [`Json`] value for structured
    /// artifacts: findings are split into `{ok, text}` pairs, the
    /// table into `columns` + string `rows`.
    pub fn to_json(&self) -> Json {
        let findings = self.findings.iter().map(|f| {
            let (ok, text) = match f.split_once(' ') {
                Some(("[ok]", rest)) => (true, rest),
                Some(("[!!]", rest)) => (false, rest),
                _ => (false, f.as_str()),
            };
            Json::obj([("ok", Json::Bool(ok)), ("text", Json::str(text))])
        });
        Json::obj([
            ("id", Json::str(self.id)),
            ("claim", Json::str(self.claim)),
            (
                "columns",
                Json::arr(self.table.headers().iter().map(|h| Json::str(h.as_str()))),
            ),
            (
                "rows",
                Json::arr(
                    self.table
                        .rows()
                        .iter()
                        .map(|row| Json::arr(row.iter().map(|cell| Json::str(cell.as_str())))),
                ),
            ),
            ("findings", Json::arr(findings)),
            ("all_ok", Json::Bool(self.all_ok())),
        ])
    }

    /// Renders the report as a Markdown fragment (`--markdown`).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.claim));
        out.push_str(&self.table.render_markdown());
        out.push('\n');
        for f in &self.findings {
            out.push_str(&format!(
                "- {}\n",
                f.replace("[ok]", "✅").replace("[!!]", "❌")
            ));
        }
        out.push('\n');
        out
    }
}
