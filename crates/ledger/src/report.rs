//! What a workload run produces and how it is printed.

use std::time::Duration;

use crate::json::Json;
use crate::spec::Spec;

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The measured wall time and operation count of one phase (the
/// calibration record: every phase must stay above its floor).
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub seconds: f64,
    pub ops: u64,
}

impl Phase {
    pub fn new(name: &'static str, wall: Duration, ops: u64) -> Phase {
        Phase {
            name,
            seconds: secs(wall),
            ops,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("seconds", self.seconds.into()),
            ("ops", self.ops.into()),
        ])
    }
}

/// One workload run: operation counts, the nine end-to-end values (an
/// untraced run) or the per-layer rows (a traced run), and the detail
/// record (digests, frozen counts, phase durations, sample sizes).
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub detail: Json,
}

impl Outcome {
    /// The metrics this run reports, in `BENCHMARK.json` order: every
    /// end-to-end metric (untraced) or every per-layer metric (traced).
    /// A declared per-layer metric the workload's path never touches is
    /// reported as 0; a measured name that is not declared is an error.
    pub fn declared_metrics(
        &self,
        spec: &Spec,
        traced: bool,
    ) -> Result<Vec<(String, String, f64)>, String> {
        let (declared, measured) = if traced {
            (&spec.per_layer, &self.layers)
        } else {
            (&spec.end_to_end, &self.e2e)
        };
        if let Some((stray, _)) = measured
            .iter()
            .find(|(name, _)| !declared.iter().any(|d| d.name == *name))
        {
            return Err(format!(
                "measured metric {stray} is not declared in BENCHMARK.json"
            ));
        }
        declared
            .iter()
            .map(|d| {
                let value = measured
                    .iter()
                    .find(|(name, _)| *name == d.name)
                    .map(|(_, v)| *v);
                match value {
                    Some(v) => Ok((d.name.clone(), d.unit.clone(), v)),
                    None if traced => Ok((d.name.clone(), d.unit.clone(), 0.0)),
                    None => Err(format!("end-to-end metric {} was not measured", d.name)),
                }
            })
            .collect()
    }

    /// `{name: {"value": v, "unit": u}, ...}` over the declared metrics.
    fn metrics_json(&self, spec: &Spec, traced: bool) -> Result<Json, String> {
        Ok(Json::Obj(
            self.declared_metrics(spec, traced)?
                .into_iter()
                .map(|(name, unit, value)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]),
                    )
                })
                .collect(),
        ))
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn contract_line(&self, spec: &Spec, traced: bool) -> Result<String, String> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json(spec, traced)?),
        ])
        .to_json_string())
    }

    /// The full result document (`ledger compare` reads these).
    pub fn to_json(&self, spec: &Spec, traced: bool, machine: &Json) -> Result<Json, String> {
        Ok(Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("trace", Json::Bool(traced)),
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json(spec, traced)?),
            ("machine", machine.clone()),
            ("detail", self.detail.clone()),
        ]))
    }

    /// The human-readable table, one metric per line with its unit.
    pub fn table(&self, spec: &Spec, traced: bool) -> Result<String, String> {
        let mut out = format!(
            "{} ({}): attempted {} failed {}\n",
            self.workload,
            if traced {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.attempted,
            self.failed
        );
        for (name, unit, value) in self.declared_metrics(spec, traced)? {
            out.push_str(&format!("  {name:<34} {value:>16.4} {unit}\n"));
        }
        Ok(out)
    }
}
