//! The run record: one JSON file per workload run that keeps time, memory
//! and quality together with the machine and the settings that produced
//! them.

use hd_telemetry::json::Json;

/// Where the run executed: what the thread counts mean depends on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub nproc: usize,
    pub engine_threads: usize,
    /// Connection-handler threads of the HTTP server (0 when not served).
    pub server_threads: usize,
    pub client_threads: usize,
}

/// One named number with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: u64,
}

impl Measured {
    pub fn new(name: &str, unit: &str, value: f64, samples: u64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub machine: Machine,
    /// Corpus size and dimension, knobs, cache and build budgets.
    pub config: Vec<(String, f64)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end numbers: time, memory, quality.
    pub metrics: Vec<Measured>,
    /// Per-layer numbers (traced runs only).
    pub layers: Vec<Measured>,
    /// Traced minus untraced end-to-end numbers (traced runs only).
    pub overhead: Vec<Measured>,
    /// What the run's correctness checks do not cover.
    pub notes: Vec<String>,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn measured_json(list: &[Measured]) -> Json {
    Json::Arr(
        list.iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("unit".into(), Json::Str(m.unit.clone())),
                    ("value".into(), num(m.value)),
                    ("samples".into(), num(m.samples as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
fn measured_from(j: &Json) -> Option<Vec<Measured>> {
    j.as_arr()?
        .iter()
        .map(|m| {
            Some(Measured {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                // Non-finite values render as null and read back as NaN.
                value: m.get("value")?.as_f64().unwrap_or(f64::NAN),
                samples: m.get("samples")?.as_u64()?,
            })
        })
        .collect()
}

impl RunRecord {
    pub fn to_json(&self) -> Json {
        let m = &self.machine;
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), num(self.seed as f64)),
            ("seconds".into(), num(self.seconds as f64)),
            ("traced".into(), Json::Bool(self.traced)),
            (
                "machine".into(),
                Json::Obj(vec![
                    ("nproc".into(), num(m.nproc as f64)),
                    ("engine_threads".into(), num(m.engine_threads as f64)),
                    ("server_threads".into(), num(m.server_threads as f64)),
                    ("client_threads".into(), num(m.client_threads as f64)),
                ]),
            ),
            (
                "config".into(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), measured_json(&self.metrics)),
            ("layers".into(), measured_json(&self.layers)),
            ("overhead".into(), measured_json(&self.overhead)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
    }

    #[cfg(test)]
    pub fn from_json(j: &Json) -> Option<RunRecord> {
        let m = j.get("machine")?;
        let usize_of = |j: &Json, k: &str| j.get(k)?.as_u64().map(|v| v as usize);
        Some(RunRecord {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_u64()?,
            seconds: j.get("seconds")?.as_u64()?,
            traced: j.get("traced")?.as_bool()?,
            machine: Machine {
                nproc: usize_of(m, "nproc")?,
                engine_threads: usize_of(m, "engine_threads")?,
                server_threads: usize_of(m, "server_threads")?,
                client_threads: usize_of(m, "client_threads")?,
            },
            config: j
                .get("config")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            correct: j.get("correct")?.as_bool()?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            metrics: measured_from(j.get("metrics")?)?,
            layers: measured_from(j.get("layers")?)?,
            overhead: measured_from(j.get("overhead")?)?,
            notes: j
                .get("notes")?
                .as_arr()?
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }

    #[cfg(test)]
    pub fn parse(text: &str) -> Option<RunRecord> {
        Self::from_json(&hd_telemetry::json::parse(text).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_record_round_trips_through_json() {
        let record = RunRecord {
            workload: "serve-point".into(),
            seed: 42,
            seconds: 20,
            traced: true,
            machine: Machine {
                nproc: 2,
                engine_threads: 2,
                server_threads: 8,
                client_threads: 2,
            },
            config: vec![("n".into(), 50_000.0), ("cache_budget_bytes".into(), 1.5e8)],
            correct: true,
            attempted: 1234,
            failed: 1,
            metrics: vec![
                Measured::new("qps", "1/s", 1402.5, 1234),
                Measured::new("peak_rss_mb", "MB", 311.25, 1),
            ],
            layers: vec![Measured::new("btree.seek_us", "us", 3.125, 64)],
            overhead: vec![Measured::new("qps", "1/s", -12.5, 1234)],
            notes: vec!["a crash is out of scope".into()],
        };
        let text = record.to_json().render();
        assert_eq!(RunRecord::parse(&text), Some(record));
        assert_eq!(RunRecord::parse("{}"), None);
    }
}
