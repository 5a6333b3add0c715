//! The metric tables: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root carries the same names, units,
//! directions and bounds; a change to one must be made to the other. The
//! definitions and the layer-to-end-to-end interaction table are in the
//! README next to this file.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Simulated seconds carry their own unit so nothing mistakes them for a
/// host time: they are exact per seed.
const SIM_S: &str = "sim_s";

/// Each bound is about three times the widest interquartile spread (as a
/// share of the median) ten seeds showed on any workload of the defining
/// box — the host times are capped at the 0.25 a bound may be, 2.7 times
/// their widest: see "Measured noise" in the README. Host times are
/// calibrated seconds (`reference.rs`).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "cell_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_tasks_per_s",
        unit: "tasks/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_short_p50_s",
        unit: SIM_S,
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_short_p90_s",
        unit: SIM_S,
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_long_p90_s",
        unit: SIM_S,
        better: Better::Lower,
        bound: 0.08,
    },
];

/// `failed_share` is reported next to the end-to-end metrics but judged
/// absolutely: any increase is a regression, and the harness exits non-zero
/// on any failure. It is zero on a healthy run, so it travels as the
/// `attempted` / `failed` counts of the result line, not as a bounded
/// metric.
pub const FAILED_SHARE: &str = "failed_share";

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of a single layer (layer = crate). No bound: these explain an
/// end-to-end movement, they are not gates.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Unit costs carry what they are per (`ns/event`, `ns/task`): they are
/// rates of one layer operation, zero on a workload that never runs it.
/// A bare time (`s`) is listed only when every workload measures it; a
/// phase that exists on one executor only (the driver's construction and
/// report, the plan, the retiming) is listed as its share of the traced
/// cell or of set-up, and its seconds print as an information line.
pub const PER_LAYER: [Layer; 47] = [
    layer("simcore.events", "count", Lower),
    layer("simcore.events_per_task", "1/task", Lower),
    layer("simcore.engine_ns_per_event", "ns/event", Lower),
    layer("workload.trace_gen_s", "s", Lower),
    layer("workload.retime_share", "ratio", Lower),
    layer("cluster.build_s", "s", Lower),
    layer("cluster.task_cycle_ns", "ns/task", Lower),
    layer("cluster.steal_scan_ns", "ns/scan", Lower),
    layer("cluster.steals", "count", Higher),
    layer("cluster.steal_attempts", "count", Lower),
    layer("cluster.steal_success_ratio", "ratio", Higher),
    layer("cluster.migrations", "count", Lower),
    layer("cluster.abandons", "count", Lower),
    layer("net.delay_ns_per_msg", "ns/msg", Lower),
    layer("net.msgs", "count", Lower),
    layer("net.rack_local_steal_rate", "ratio", Higher),
    layer("core.construct_share", "ratio", Lower),
    layer("core.report_share", "ratio", Lower),
    layer("core.host_ns_per_event", "ns/event", Lower),
    layer("core.allocs_per_run", "count", Lower),
    layer("core.driver_self_share", "ratio", Lower),
    layer("core.central_assign_ns", "ns/task", Lower),
    layer("core.probe_targets_ns", "ns/target", Lower),
    layer("core.pick_victims_ns", "ns/attempt", Lower),
    layer("core.admission_plan_share", "ratio", Lower),
    layer("core.admission_sheds", "count", Lower),
    layer("core.admission_deferrals", "count", Lower),
    layer("core.shed_share", "ratio", Lower),
    layer("core.shard_epochs", "count", Lower),
    layer("core.shard_merge_envelopes", "count", Lower),
    layer("core.shard_envelopes_per_epoch", "ratio", Higher),
    layer("core.shard_event_inflation", "ratio", Lower),
    layer("core.shard_vs_single_wall", "ratio", Lower),
    layer("core.shard_speedup_w2_over_w1", "ratio", Higher),
    layer("core.shard_cpu_over_wall", "ratio", Lower),
    layer("proto.messages", "count", Lower),
    layer("proto.ns_per_message", "ns/msg", Lower),
    layer("proto.drops", "count", Lower),
    layer("proto.dups", "count", Lower),
    layer("proto.retries", "count", Lower),
    layer("proto.timeouts_fired", "count", Lower),
    layer("proto.relaunched", "count", Lower),
    layer("proto.relaunch_ratio", "ratio", Lower),
    layer("proto.fault_overhead", "ratio", Lower),
    layer("trace.cell_s", "s", Lower),
    layer("trace.base_wall_s", "s", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// One measured value, ready to print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The per-layer values of one traced run. A layer metric a workload does
/// not exercise (the prototype counters on a simulator cell, the shard
/// counters on a single-stream one) stays at zero.
pub struct LayerValues {
    values: Vec<f64>,
    notes: Vec<Note>,
}

/// A value printed next to the metrics as information (name, value, unit):
/// not part of the contract, not in the result line.
pub type Note = (&'static str, f64, &'static str);

impl LayerValues {
    pub fn new() -> Self {
        LayerValues {
            values: vec![0.0; PER_LAYER.len()],
            notes: Vec::new(),
        }
    }

    /// Records the seconds of a phase only some workloads have.
    pub fn note_seconds(&mut self, name: &'static str, seconds: f64) {
        self.notes.push((name, seconds, "s"));
    }

    pub fn into_notes(self) -> Vec<Note> {
        self.notes
    }

    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: the table is the
    /// contract, a typo must not silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[index] = value;
    }

    pub fn measured(&self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(m, &value)| Measured {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect()
    }
}
