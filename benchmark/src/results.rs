//! One run's result: the stdout summary line and the `--out` JSON line.

use ddp_harness::{json_f64, JsonObject};

use crate::json::Json;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    /// True for a `--trace 1` run, whose metrics are the per-layer ones.
    pub traced: bool,
    /// Passes over the workload's cells that the run measured.
    pub passes: u64,
    /// Cells run, counted once per pass.
    pub attempted: u64,
    /// Cells that panicked or failed an output check.
    pub failed: u64,
    /// False when any cell failed or passes disagreed on their records.
    pub correct: bool,
    /// FNV-1a 64 over the workload's record JSON lines.
    pub records_digest: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn summary_line(&self) -> String {
        let mut o = JsonObject::new();
        o.bool("correct", self.correct);
        o.u64("attempted", self.attempted);
        o.u64("failed", self.failed);
        o.raw("metrics", &metrics_json(&self.metrics));
        o.finish()
    }

    /// The line appended to `--out`, which `--compare` reads back.
    pub fn out_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str("kind", "result");
        o.str("workload", &self.workload);
        o.u64("seed", self.seed);
        o.bool("traced", self.traced);
        o.u64("passes", self.passes);
        o.u64("attempted", self.attempted);
        o.u64("failed", self.failed);
        o.bool("correct", self.correct);
        o.str("records_digest", &format!("{:016x}", self.records_digest));
        o.raw("metrics", &metrics_json(&self.metrics));
        o.finish()
    }

    /// Reads back an [`RunResult::out_line`].
    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or(format!("result line lacks {k:?}"));
        let num = |k: &str| field(k)?.as_u64().ok_or(format!("{k:?} is not a count"));
        let flag = |k: &str| field(k)?.as_bool().ok_or(format!("{k:?} is not a boolean"));
        let text = |k: &str| field(k)?.as_str().ok_or(format!("{k:?} is not a string"));
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => metrics.push(Metric::new(name, value, unit)),
                _ => return Err(format!("metric {name:?} lacks a value or unit")),
            }
        }
        Ok(RunResult {
            workload: text("workload")?.to_string(),
            seed: num("seed")?,
            traced: flag("traced")?,
            passes: num("passes")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            correct: flag("correct")?,
            records_digest: u64::from_str_radix(text("records_digest")?, 16)
                .map_err(|e| format!("records_digest: {e}"))?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut o = JsonObject::new();
    for m in metrics {
        o.raw(
            &m.name,
            &format!(
                "{{\"value\":{},\"unit\":\"{}\"}}",
                json_f64(m.value),
                ddp_harness::escape_json(&m.unit)
            ),
        );
    }
    o.finish()
}

/// FNV-1a 64 over `lines`, each followed by a newline: the digest of a
/// JSON-lines file holding them.
pub fn records_digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    fnv1a64(
        lines
            .into_iter()
            .flat_map(|line| line.bytes().chain([b'\n'])),
    )
}

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "reads-uniform-b".into(),
            seed: u64::MAX - 1,
            traced: false,
            passes: 7,
            attempted: 42,
            failed: 0,
            correct: true,
            records_digest: 0x0123_4567_89ab_cdef,
            metrics: vec![
                Metric::new("wall_s", 2.012_345_678_9, "s"),
                Metric::new("sim_req_per_s", 1.234_567e6, "req/s"),
            ],
        }
    }

    #[test]
    fn out_line_round_trips() {
        let r = sample();
        let back = RunResult::from_json(&Json::parse(&r.out_line()).expect("valid JSON"))
            .expect("complete result");
        assert_eq!(back, r);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let v = Json::parse(&sample().summary_line()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(
            wall.get("value").and_then(Json::as_f64),
            Some(2.012_345_678_9)
        );
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn digest_is_fnv1a64_of_the_jsonl_text() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(records_digest(["a", "bc"]), fnv1a64(*b"a\nbc\n"));
        assert_ne!(records_digest(["ab", "c"]), records_digest(["a", "bc"]));
    }
}
