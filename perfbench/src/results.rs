//! The metric catalogue, the run context every result is stamped with, and
//! the results file (one JSON document per run) with its reader.

use std::collections::BTreeMap;
use std::path::Path;

use rrm_serve::Json;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("regret_mean", "rank"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A layer a
/// workload leaves idle reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("failed_frac", "ratio"),
    ("rrm_serve.overhead_ms", "ms"),
    ("rrm_serve.queue_ms_p50", "ms"),
    ("rrm_serve.queue_ms_p99", "ms"),
    ("rrm_serve.parse_us", "us"),
    ("rrm_serve.render_us", "us"),
    ("rrm_serve.result_cache_hit_frac", "ratio"),
    ("rrm_serve.rejected", "count"),
    ("session.prepare_s", "s"),
    ("session.prepare_hits", "count"),
    ("session.prepare_misses", "count"),
    ("session.repeat_frac", "ratio"),
    ("session.one_shot_frac", "ratio"),
    ("session.one_shot_ms", "ms"),
    ("session.update_s", "s"),
    ("session.updates_per_s", "ops/s"),
    ("rrm_core.kernel.scores", "count"),
    ("rrm_core.kernel.s", "s"),
    ("rrm_core.rank.topk_s", "s"),
    ("rrm_core.rank.regret_s", "s"),
    ("rrm_core.approx.directions", "count"),
    ("rrm_core.approx.sample_s", "s"),
    ("rrm_core.update.apply_s", "s"),
    ("rrm_hd.dirs", "count"),
    ("rrm_hd.discretize_s", "s"),
    ("rrm_hd.topk_calls", "count"),
    ("rrm_hd.cover_s", "s"),
    ("rrm_hd.probes", "count"),
    ("rrm_hd.nodes", "count"),
    ("rrm_hd.pruned_probes", "count"),
    ("rrm_setcover.picks", "count"),
    ("rrm_lp.calls", "count"),
    ("rrm_lp.s", "s"),
    ("rrm_skyline.s", "s"),
    ("rrm_skyline.candidates", "count"),
    ("rrm_skyline.incremental_s", "s"),
    ("rrm_geom.crossings", "count"),
    ("rrm_geom.s", "s"),
    ("rrm_2d.dp_s", "s"),
    ("rrm_2d.rrr_s", "s"),
    ("rrm_par.threads", "count"),
    ("rrm_par.cpu_util", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
}

/// One run's result: what was run, on what, and what it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, by name (values in the catalogue's
    /// units).
    pub metrics: BTreeMap<String, f64>,
    /// Run context and input properties: cores, thread budgets, commit,
    /// toolchain, generator lateness, n/d/distinct keys per tenant.
    pub context: Vec<(String, Json)>,
    /// Answer-check failures (empty when `correct`).
    pub errors: Vec<String>,
}

impl Results {
    /// The last stdout line: `correct`, `attempted`, `failed` and the
    /// metrics of the requested kind, each with its unit.
    pub fn summary_line(&self) -> String {
        let names: Vec<&str> = if self.trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        let metrics = names
            .into_iter()
            .map(|n| {
                let value = self.metrics.get(n).copied().unwrap_or(0.0);
                let entry = Json::Obj(vec![
                    ("value".into(), value.into()),
                    ("unit".into(), unit_of(n).into()),
                ]);
                (n.to_string(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), self.correct.into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), self.workload.as_str().into()),
            ("seed".into(), self.seed.into()),
            ("seconds".into(), self.seconds.into()),
            ("trace".into(), self.trace.into()),
            ("correct".into(), self.correct.into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| {
                            let entry = Json::Obj(vec![
                                ("value".into(), (*v).into()),
                                ("unit".into(), unit_of(k).into()),
                            ]);
                            (k.clone(), entry)
                        })
                        .collect(),
                ),
            ),
            ("context".into(), Json::Obj(self.context.clone())),
            ("errors".into(), Json::Arr(self.errors.iter().map(|e| e.as_str().into()).collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Results, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("results file lacks {k:?}"));
        let num = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("{k:?} is not a number"));
        let flag = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{k:?} is not a boolean")),
        };
        let mut metrics = BTreeMap::new();
        match field("metrics")? {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    let value = v
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {k:?} has no value"))?;
                    metrics.insert(k.clone(), value);
                }
            }
            _ => return Err("\"metrics\" is not an object".into()),
        }
        let context = match field("context")? {
            Json::Obj(fields) => fields.clone(),
            _ => return Err("\"context\" is not an object".into()),
        };
        let errors = match field("errors")? {
            Json::Arr(items) => items.iter().filter_map(|e| e.as_str().map(String::from)).collect(),
            _ => return Err("\"errors\" is not an array".into()),
        };
        Ok(Results {
            workload: field("workload")?.as_str().ok_or("\"workload\" is not a string")?.into(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            context,
            errors,
        })
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render() + "\n")
    }

    pub fn read(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&rrm_serve::json::parse(text.trim())?)
    }

    pub fn context_usize(&self, key: &str) -> Option<usize> {
        self.context.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_usize())
    }
}

/// Compare two results files metric by metric. Refuses results taken on
/// different core counts or of different workloads: their numbers do not
/// measure the same thing.
pub fn compare(a: &Results, b: &Results) -> Result<Vec<(String, f64, f64)>, String> {
    let (ca, cb) =
        (a.context_usize("available_parallelism"), b.context_usize("available_parallelism"));
    if ca.is_none() || ca != cb {
        return Err(format!(
            "refusing to compare runs on different core counts ({ca:?} vs {cb:?})"
        ));
    }
    if a.workload != b.workload {
        return Err(format!("refusing to compare workloads {} and {}", a.workload, b.workload));
    }
    Ok(a.metrics
        .iter()
        .filter_map(|(k, &va)| b.metrics.get(k).map(|&vb| (k.clone(), va, vb)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s".to_string(), 0.812_734_561_2);
        metrics.insert("query_p50_ms".to_string(), 1.203_4e-3);
        metrics.insert("rrm_lp.calls".to_string(), 887.0);
        Results {
            workload: "hd_exact".into(),
            seed: 17,
            seconds: 30,
            trace: false,
            correct: true,
            attempted: 48,
            failed: 0,
            metrics,
            context: vec![
                ("available_parallelism".into(), 2usize.into()),
                ("rustc".into(), "rustc 1.0 \"quoted\"".into()),
            ],
            errors: vec!["tenant \"a\": mismatch\n".into()],
        }
    }

    #[test]
    fn results_file_round_trips() {
        let r = sample();
        let dir = std::env::temp_dir().join(format!("perfbench-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        r.write(&path).unwrap();
        let back = Results::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, r);
        // Every digit survives.
        assert_eq!(back.metrics["setup_s"].to_bits(), 0.812_734_561_2f64.to_bits());
    }

    #[test]
    fn summary_line_lists_the_requested_kind_with_units() {
        let mut r = sample();
        let line = rrm_serve::json::parse(&r.summary_line()).unwrap();
        let m = line.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert!(m.get("rrm_lp.calls").is_none());
        if let Json::Obj(fields) = m {
            assert_eq!(fields.len(), END_TO_END.len());
        }
        r.trace = true;
        let line = rrm_serve::json::parse(&r.summary_line()).unwrap();
        let m = line.get("metrics").unwrap();
        assert_eq!(m.get("rrm_lp.calls").unwrap().get("value").unwrap().as_f64(), Some(887.0));
        // Idle layers read 0.
        assert_eq!(m.get("rrm_2d.dp_s").unwrap().get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn compare_refuses_different_core_counts() {
        let a = sample();
        let mut b = sample();
        assert!(compare(&a, &b).is_ok());
        b.context[0].1 = 4usize.into();
        assert!(compare(&a, &b).unwrap_err().contains("core counts"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let j = rrm_serve::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            match j.get(key).unwrap() {
                Json::Arr(items) => items
                    .iter()
                    .map(|m| {
                        let s = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let ours = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }
}
