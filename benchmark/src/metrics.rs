//! The metric vocabulary: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same names; `smoke` checks the two agree.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count that must repeat exactly for one seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// What a caller of the system sees; printed by every `--trace 0` run.
pub const END_TO_END: &[MetricDef] = &[
    timed("setup_s", "s"),
    timed("first_ms_p50", "ms"),
    timed("first_ms_p90", "ms"),
    timed("full_ms_p50", "ms"),
    timed("full_ms_p90", "ms"),
    timed("delay_ns_p99", "ns"),
    timed("answers_per_s", "1/s"),
    timed("peak_rss_mb", "MB"),
];

/// What single layers do; printed by every `--trace 1` run.
pub const PER_LAYER: &[MetricDef] = &[
    // storage
    timed("storage.intern_ms", "ms"),
    exact("storage.intern_values", "count"),
    timed("storage.normalize_ms", "ms"),
    timed("storage.index_build_ms", "ms"),
    timed("storage.index_build_rows_per_s", "1/s"),
    timed("storage.index_par_speedup", "ratio"),
    timed("storage.probe_ns", "ns"),
    timed("storage.decode_ns", "ns"),
    timed("storage.freeze_ms", "ms"),
    timed("storage.ingest_insert_ms", "ms"),
    timed("storage.ingest_delete_ms", "ms"),
    exact("storage.ingest_indexes_merged", "count"),
    exact("storage.ingest_derived_carried", "count"),
    exact("storage.segments_final", "count"),
    exact("storage.tombstone_frac_final", "fraction"),
    exact("storage.cache_interned_builds", "count"),
    exact("storage.cache_index_builds", "count"),
    exact("storage.cache_index_hits", "count"),
    exact("storage.overflowed", "count"),
    // yannakakis
    timed("yannakakis.cdy_build_ms", "ms"),
    timed("yannakakis.reduce_ms", "ms"),
    exact("yannakakis.reduce_rows_in", "count"),
    exact("yannakakis.reduce_rows_kept", "count"),
    timed("yannakakis.cdy_drain_ns", "ns"),
    timed("yannakakis.naive_ms", "ms"),
    // core
    timed("core.classify_ms", "ms"),
    timed("core.plan_prepare_ms", "ms"),
    timed("core.plan_cost_ms", "ms"),
    exact("core.plan_candidates", "count"),
    timed("core.lemma8_ms", "ms"),
    exact("core.lemma8_rows", "count"),
    timed("core.pipeline_start_us", "us"),
    timed("core.session_freeze_ms", "ms"),
    timed("core.refreeze_ms", "ms"),
    timed("core.refreeze_growth", "ratio"),
    timed("core.rotate_ms_p50", "ms"),
    timed("core.rotate_ms_p95", "ms"),
    timed("core.frozen_drain_ms", "ms"),
    timed("core.vs_naive_ratio", "ratio"),
    timed("core.preprocess_ratio_4x", "ratio"),
    // enumerate
    timed("enumerate.first_answer_us", "us"),
    timed("enumerate.cheater_ns_per_inner", "ns"),
    exact("enumerate.cheater_dup_frac", "fraction"),
    exact("enumerate.cheater_blocks_pumped", "count"),
    exact("enumerate.cheater_queue_high_water", "count"),
    timed("enumerate.block_pump_ns", "ns"),
    timed("enumerate.decode_share", "fraction"),
    timed("enumerate.budget_overhead_frac", "fraction"),
    timed("enumerate.delay_ns_p999", "ns"),
    timed("enumerate.delay_ns_max", "ns"),
    timed("enumerate.delay_p99_ratio_4x", "ratio"),
    // serve
    timed("serve.page_ms_p50", "ms"),
    timed("serve.drain_ms_p50", "ms"),
    timed("serve.pool_overhead_ratio", "ratio"),
    timed("serve.page_overhead_us", "us"),
    timed("serve.submit_us", "us"),
    timed("serve.queue_op_ns", "ns"),
    timed("serve.reply_roundtrip_us", "us"),
    exact("serve.completed", "count"),
    exact("serve.partial", "count"),
    exact("serve.shed", "count"),
    timed("serve.queue_high_water", "count"),
    timed("serve.epoch_pinned", "count"),
    timed("serve.epoch_upgraded", "count"),
    // bench
    timed("bench.calib_ms", "ms"),
    timed("bench.calib_spread", "fraction"),
    timed("bench.trace_overhead_frac", "fraction"),
    timed("bench.trace_coverage", "fraction"),
];

pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name);
        assert!(known, "metric {name} is not declared in metrics.rs");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The declared metrics this run did not measure.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        defs(trace)
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }

    /// `{name: {"value": v, "unit": u}}` over the declared metrics, in
    /// declaration order.
    pub fn to_json(&self, trace: bool) -> Json {
        Json::obj(defs(trace).iter().filter_map(|d| {
            let v = self.get(d.name)?;
            Some((
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
