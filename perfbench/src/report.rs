//! The result line, correctness bookkeeping, and run provenance.

use qpinn_core::report::Json;

/// Metric names are restricted to this alphabet.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Append `<base>.samples` and the highest tail percentile of
    /// `values` that has ten samples beyond it (`<base>.p99` or `.p90`).
    pub fn push_tail(&mut self, base: &str, values: &[f64], unit: &'static str) {
        self.push(&format!("{base}.samples"), values.len() as f64, "count");
        if let Some((p, v)) = crate::stats::tail(values) {
            self.push(&format!("{base}.p{p}"), v, unit);
        }
    }

    /// The metrics as a JSON object of `{"value", "unit"}` pairs.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.as_str(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Correctness failures collected over a run.
#[derive(Default)]
pub struct Check {
    /// One line per failed expectation.
    pub failures: Vec<String>,
}

impl Check {
    /// Record `msg` unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: String) {
        if !ok {
            self.failures.push(msg);
        }
    }

    /// Record an unconditional failure.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that failed (sheds and non-200 responses included).
    pub failed: u64,
    /// Correctness checks.
    pub check: Check,
    /// Metrics for the mode the run was in.
    pub metrics: Metrics,
    /// Figures reported but not gated: tails and sample counts.
    pub info: Metrics,
}

impl Outcome {
    /// The result document: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.check.failures.is_empty() && self.failed == 0),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the sources came from, when the tree is a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &std::path::Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, ty)| ty)
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        assert!(valid_metric_name("serve.queue_ms.point.p50"));
        assert!(valid_metric_name("setup_s"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("p99%"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.5, "s");
        let out = Outcome {
            attempted: 3,
            failed: 0,
            check: Check::default(),
            metrics,
            info: Metrics::default(),
        };
        let doc = Json::parse(&out.to_json().to_string()).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }
}
