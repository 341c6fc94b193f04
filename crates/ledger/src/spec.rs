//! `BENCHMARK.json`, compiled into the binary so the names a run emits
//! and the names the contract declares cannot drift apart.

use crate::json::{Json, JsonExt};

pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when higher is better.
    pub higher: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = crate::json::parse(text)?;
        let metric = |m: &Json| -> Result<MetricDecl, String> {
            Ok(MetricDecl {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_owned(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or("metric without unit")?
                    .to_owned(),
                higher: match m.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("metric `better` must be higher or lower".to_owned()),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        };
        let list = |key: &str| -> Result<Vec<MetricDecl>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(metric)
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("run_seconds missing")? as u64,
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    pub fn end_to_end(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}
