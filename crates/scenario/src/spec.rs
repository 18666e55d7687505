//! Typed scenario model: schema validation of a parsed [`Document`] into
//! a [`Scenario`].
//!
//! A scenario describes one full experiment:
//!
//! - `[scenario]` — name and description,
//! - `[system]` — overrides of the Table-II baseline [`SystemConfig`]
//!   (cores, GPUs, C-states, timer tick, coalescing window, seed),
//! - `[mitigation]` — §V switches and the §VI QoS threshold,
//! - `[workload]` — the CPU-app list × GPU-app list grid, plus optional
//!   quick-mode subsets,
//! - `[run]` — seeds/replicas,
//! - `[sweep]` — cartesian sweep axes over any numeric/enum knob,
//! - `[expect]` — metric bands the batch results must fall within.
//!
//! Every diagnostic carries the offending line number.

use hiss::{CoreId, CriticalityConfig, DeviceKind, Mitigation, Ns, SystemConfig};

use crate::compile::Row;
use crate::parse::{Document, Entry, ScenarioError, Value};

/// Every simulation knob a scenario (or one sweep point of it) pins
/// down: the system configuration, number of GPU-app copies, mitigation
/// switches, and QoS threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Full system configuration (already includes `[system]` overrides
    /// and, per cell, the sweep-axis values and replica seed).
    pub cfg: SystemConfig,
    /// Number of concurrent copies of the GPU application.
    pub gpus: usize,
    /// §V mitigation switches.
    pub mitigation: Mitigation,
    /// §VI QoS threshold in percent; 0 disables the governor.
    pub qos_percent: f64,
    /// Mixed-criticality partitioning (`[criticality]`); `None` runs the
    /// cell without classes. The batch compiler clears it on cells whose
    /// CPU application is not in the scenario's critical list.
    pub criticality: Option<CriticalityConfig>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            cfg: SystemConfig::a10_7850k(),
            gpus: 1,
            mitigation: Mitigation::DEFAULT,
            qos_percent: 0.0,
            criticality: None,
        }
    }
}

/// How a knob's value is typed and range-checked, with the setter that
/// stores the checked value into [`Knobs`].
#[derive(Clone, Copy)]
pub enum Kind {
    /// An integer in `[min, max]`.
    Int {
        min: i64,
        max: i64,
        set: fn(&mut Knobs, i64),
    },
    /// `true` or `false`.
    Bool(fn(&mut Knobs, bool)),
    /// A number (integer or float) in `[min, max]`; `zero` says what 0
    /// means, for the range message.
    Number {
        min: f64,
        max: f64,
        zero: &'static str,
        set: fn(&mut Knobs, f64),
    },
    /// A §V combination: `"default"`/`"none"` or a `+`-joined subset of
    /// `steer`, `coalesce`, `mono` (e.g. `"steer+mono"`).
    Combo(fn(&mut Knobs, Mitigation)),
}

/// One scenario knob: a key its section accepts as a base value and
/// `[sweep]` accepts as an axis. [`Field::ALL`] declares every knob once;
/// section parsing, the unknown-key messages, sweep expansion and the
/// knob lints are all derived from it.
pub struct Field {
    /// The key naming the knob in its section and in `[sweep]`.
    pub key: &'static str,
    /// The section accepting it: `system`, `mitigation` or
    /// `criticality`. A `criticality` knob needs that section present,
    /// even as a sweep axis.
    pub section: &'static str,
    /// Value type, range and setter.
    pub kind: Kind,
    /// Keys of the other knobs this one sets as a whole: a sweep axis
    /// over it shadows them, and setting it exercises them.
    pub aliases: &'static [&'static str],
}

const SYSTEM: &str = "system";
const MITIGATION: &str = "mitigation";
const CRITICALITY: &str = "criticality";

/// The `[criticality]` keys that are not knobs (they cannot be swept).
const CRITICALITY_LISTS: &[&str] = &["critical", "critical_devices"];

const fn knob(section: &'static str, key: &'static str, kind: Kind) -> Field {
    Field {
        key,
        section,
        kind,
        aliases: &[],
    }
}

const fn int(
    section: &'static str,
    key: &'static str,
    min: i64,
    max: i64,
    set: fn(&mut Knobs, i64),
) -> Field {
    knob(section, key, Kind::Int { min, max, set })
}

const fn flag(section: &'static str, key: &'static str, set: fn(&mut Knobs, bool)) -> Field {
    knob(section, key, Kind::Bool(set))
}

fn micros(us: i64) -> Ns {
    Ns::from_micros(us as u64)
}

/// The criticality config a `[criticality]` knob's setter writes;
/// [`Field::apply`] has already checked it is present.
fn crit(knobs: &mut Knobs) -> &mut CriticalityConfig {
    knobs.criticality.as_mut().expect("checked by Field::apply")
}

impl Field {
    /// Every knob, in the order the key lists of diagnostics print them.
    pub const ALL: &'static [Field] = &[
        int(SYSTEM, "cores", 1, 64, |k, n| k.cfg.num_cores = n as usize),
        // Concurrent copies of the GPU application.
        int(SYSTEM, "gpus", 1, 64, |k, n| {
            k.gpus = n as usize;
            k.cfg.num_gpus = n as usize;
        }),
        int(SYSTEM, "seed", 0, i64::MAX, |k, s| k.cfg.seed = s as u64),
        // OS scheduler tick period (0 disables).
        int(SYSTEM, "timer_tick_us", 0, 1_000_000, |k, us| {
            k.cfg.timer_tick = micros(us)
        }),
        // IOMMU coalescing window when coalescing is on.
        int(SYSTEM, "coalesce_window_us", 0, 1_000_000, |k, us| {
            k.cfg.coalesce_window = micros(us)
        }),
        // Safety cap on simulated time.
        int(
            SYSTEM,
            "max_sim_time_ms",
            1,
            i64::MAX / 1_000_000,
            |k, ms| k.cfg.max_sim_time = Ns::from_millis(ms as u64),
        ),
        // Disabling CC6 makes the governor threshold unreachable: idle
        // cores stay in the shallow state forever. Re-enabling restores
        // the Table-II threshold (a sweep axis may apply both values to
        // the same scratch knobs).
        flag(SYSTEM, "cc6", |k, on| {
            k.cfg.cpu.cstate.entry_threshold = if on {
                SystemConfig::a10_7850k().cpu.cstate.entry_threshold
            } else {
                Ns::MAX
            }
        }),
        // The core §V-A steering pins interrupts to (range-checked against
        // every swept core count, lint `HL012`).
        int(SYSTEM, "steer_target", 0, 63, |k, n| {
            k.cfg.steer_target = CoreId(n as usize)
        }),
        flag(MITIGATION, "steer", |k, on| {
            k.mitigation.steer_single_core = on
        }),
        flag(MITIGATION, "coalesce", |k, on| k.mitigation.coalesce = on),
        flag(MITIGATION, "monolithic", |k, on| {
            k.mitigation.monolithic_bottom_half = on
        }),
        knob(
            MITIGATION,
            "qos_percent",
            Kind::Number {
                min: 0.0,
                max: 100.0,
                zero: "governor off",
                set: |k, pct| k.qos_percent = pct,
            },
        ),
        Field {
            aliases: &["steer", "coalesce", "monolithic"],
            ..knob(
                MITIGATION,
                "mitigation",
                Kind::Combo(|k, m| k.mitigation = m),
            )
        },
        // Whether critical cores are fenced off from SSR IRQs and
        // bottom-half worker threads.
        flag(CRITICALITY, "reserve", |k, on| crit(k).reserve = on),
        // Critical-class share of the IOMMU PPR queue.
        int(CRITICALITY, "ppr_quota_percent", 1, 100, |k, pct| {
            crit(k).ppr_quota_percent = pct as u32
        }),
        // Cores `[0, n)` are the critical partition.
        int(CRITICALITY, "critical_cores", 1, 63, |k, n| {
            crit(k).critical_cores = n as usize
        }),
        // 0 delivers critical-class requests immediately.
        int(CRITICALITY, "critical_window_us", 0, 13, |k, us| {
            crit(k).critical_window = micros(us)
        }),
        int(CRITICALITY, "best_effort_window_us", 0, 13, |k, us| {
            crit(k).best_effort_window = micros(us)
        }),
    ];

    /// The knob named `key`, in any section.
    pub(crate) fn by_key(key: &str) -> Option<&'static Field> {
        Field::ALL.iter().find(|f| f.key == key)
    }

    /// The knob `section` accepts under `key`.
    pub(crate) fn in_section(section: &str, key: &str) -> Option<&'static Field> {
        Field::by_key(key).filter(|f| f.section == section)
    }

    /// The keys of the knobs `keep` selects, in table order.
    fn keys(keep: impl Fn(&Field) -> bool) -> Vec<&'static str> {
        Field::ALL
            .iter()
            .filter(|f| keep(f))
            .map(|f| f.key)
            .collect()
    }

    /// Whether setting this knob sets `other`: itself, or a knob it
    /// aliases.
    pub(crate) fn drives(&self, other: &Field) -> bool {
        self == other || self.aliases.contains(&other.key)
    }

    /// Validates `value` for this knob and applies it to `knobs`.
    pub fn apply(
        &self,
        knobs: &mut Knobs,
        value: &Value,
        line: usize,
    ) -> Result<(), ScenarioError> {
        let key = self.key;
        if self.section == CRITICALITY && knobs.criticality.is_none() {
            return Err(ScenarioError::new(
                line,
                format!("{key:?} requires a [criticality] section"),
            ));
        }
        match self.kind {
            Kind::Int { min, max, set } => set(knobs, expect_int(value, key, line, min, max)?),
            Kind::Bool(set) => set(knobs, expect_bool(value, key, line)?),
            Kind::Number {
                min,
                max,
                zero,
                set,
            } => {
                let x = expect_number(value, key, line)?;
                if !(min..=max).contains(&x) {
                    return Err(ScenarioError::new(
                        line,
                        format!("{key:?} must be in [{min}, {max}] (0 = {zero}), got {x}"),
                    ));
                }
                set(knobs, x)
            }
            Kind::Combo(set) => set(knobs, parse_mitigation_combo(value, key, line)?),
        }
        Ok(())
    }
}

/// Knobs are compared by key: the table declares each key once.
impl PartialEq for Field {
    fn eq(&self, other: &Field) -> bool {
        self.key == other.key
    }
}

impl std::fmt::Debug for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Field({:?})", self.key)
    }
}

fn expect_int(
    value: &Value,
    key: &str,
    line: usize,
    min: i64,
    max: i64,
) -> Result<i64, ScenarioError> {
    match value {
        Value::Int(i) if (min..=max).contains(i) => Ok(*i),
        Value::Int(i) => Err(ScenarioError::new(
            line,
            format!("{key:?} must be an integer in [{min}, {max}], got {i}"),
        )),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects an integer, got {}", other.type_name()),
        )),
    }
}

fn expect_bool(value: &Value, key: &str, line: usize) -> Result<bool, ScenarioError> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects true or false, got {}", other.type_name()),
        )),
    }
}

fn expect_number(value: &Value, key: &str, line: usize) -> Result<f64, ScenarioError> {
    match value {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(x) => Ok(*x),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects a number, got {}", other.type_name()),
        )),
    }
}

fn expect_str<'v>(value: &'v Value, key: &str, line: usize) -> Result<&'v str, ScenarioError> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects a string, got {}", other.type_name()),
        )),
    }
}

/// Parses a `"default"` / `"steer+coalesce+mono"` mitigation combo.
fn parse_mitigation_combo(
    value: &Value,
    key: &str,
    line: usize,
) -> Result<Mitigation, ScenarioError> {
    let text = expect_str(value, key, line)?;
    if text == "default" || text == "none" {
        return Ok(Mitigation::DEFAULT);
    }
    let mut m = Mitigation::DEFAULT;
    for part in text.split('+') {
        match part.trim() {
            "steer" => m.steer_single_core = true,
            "coalesce" => m.coalesce = true,
            "mono" | "monolithic" => m.monolithic_bottom_half = true,
            other => {
                return Err(ScenarioError::new(
                    line,
                    format!(
                        "unknown mitigation {other:?} in combo {text:?} \
                         (expected \"default\" or a +-joined subset of \
                         steer, coalesce, mono)"
                    ),
                ));
            }
        }
    }
    Ok(m)
}

/// One cartesian sweep axis: a field and the values it ranges over.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Swept knob.
    pub field: &'static Field,
    /// Values, in file order (each validated for the field's type).
    pub values: Vec<Value>,
    /// Line the axis was declared on.
    pub line: usize,
}

/// Workload mix: the CPU × GPU application grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// CPU (PARSEC) application names, all catalog-checked.
    pub cpu: Vec<String>,
    /// GPU application names, all catalog-checked.
    pub gpu: Vec<String>,
    /// Quick-mode CPU subset (defaults to the first two of `cpu`).
    pub quick_cpu: Vec<String>,
    /// Quick-mode GPU subset (defaults to the first two of `gpu`).
    pub quick_gpu: Vec<String>,
}

/// Aggregation applied to a row metric before band-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Mean,
    Min,
    Max,
}

impl Agg {
    fn prefix(self) -> &'static str {
        match self {
            Agg::Mean => "mean",
            Agg::Min => "min",
            Agg::Max => "max",
        }
    }
}

/// A per-row result metric an `[expect]` band can constrain.
/// [`Metric::ALL`] declares every metric once.
pub struct Metric {
    /// The metric's key stem in `[expect]` band names.
    pub key: &'static str,
    /// The `hiss-obs` registry name the metric is derived from, or
    /// `None` for metrics computed against a baseline run rather than
    /// read from the registry. The schema lint (`HL201`) holds every
    /// `Some` name against [`hiss_obs::schema`].
    pub registry_key: Option<&'static str>,
    /// Reads the metric off a result row: `None` only for `cpu_perf` of
    /// a cell whose CPU application never finished.
    pub value: fn(&Row) -> Option<f64>,
}

const fn metric(
    key: &'static str,
    registry_key: Option<&'static str>,
    value: fn(&Row) -> Option<f64>,
) -> Metric {
    Metric {
        key,
        registry_key,
        value,
    }
}

impl Metric {
    /// Every expectable metric, in catalog order.
    pub const ALL: &'static [Metric] = &[
        // Normalised against separate baseline runs (Figs. 3a and 3b;
        // SSR rate for ubench): no single registry name.
        metric("cpu_perf", None, |r| r.cpu_perf),
        metric("gpu_perf", None, |r| Some(r.gpu_perf)),
        metric("cc6_residency", Some("run.cc6_residency"), |r| {
            Some(r.cc6_residency)
        }),
        metric("ssr_overhead", Some("run.cpu_ssr_overhead"), |r| {
            Some(r.ssr_overhead)
        }),
        // Mean and p99 are both read off the latency histogram.
        metric("ssr_latency_us", Some("kernel.latency"), |r| {
            Some(r.mean_ssr_latency_us)
        }),
        metric("p99_latency_us", Some("kernel.latency"), |r| {
            Some(r.p99_ssr_latency_us)
        }),
        metric("ssr_rate", Some("run.ssr_rate"), |r| Some(r.ssr_rate)),
        metric("gpu_throughput", Some("run.gpu_throughput"), |r| {
            Some(r.gpu_throughput)
        }),
        metric("qos_deferrals", Some("kernel.qos_deferrals"), |r| {
            Some(r.qos_deferrals as f64)
        }),
        metric("ipis", Some("kernel.ipis"), |r| Some(r.ipis as f64)),
        // 0 for all-GPU runs.
        metric("aux_ssrs_raised", Some("run.aux_ssrs_raised"), |r| {
            Some(r.aux_ssrs_raised as f64)
        }),
        // `events_popped <= events_pushed` always holds, and the invariant
        // lint (`HL401`) rejects band pairs that contradict it.
        metric("events_pushed", Some("run.events_pushed"), |r| {
            Some(r.events_pushed as f64)
        }),
        metric("events_popped", Some("run.events_popped"), |r| {
            Some(r.events_popped as f64)
        }),
        // The bound a mixed-criticality scenario pins under the
        // aggressor; 0 on cells without classes.
        metric(
            "critical_p99_latency_us",
            Some("qos.class0.p99_latency_us"),
            |r| Some(r.critical_p99_latency_us),
        ),
    ];
}

/// Metrics are compared by key: the table declares each key once.
impl PartialEq for Metric {
    fn eq(&self, other: &Metric) -> bool {
        self.key == other.key
    }
}

impl std::fmt::Debug for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Metric({:?})", self.key)
    }
}

/// One `[expect]` band: `agg_metric = [lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// The band's key as written (`"mean_cpu_perf"`).
    pub key: String,
    /// Aggregation over the result rows.
    pub agg: Agg,
    /// Metric aggregated.
    pub metric: &'static Metric,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Line the band was declared on.
    pub line: usize,
}

/// Declarative device topology (`[topology]`): the explicit list of
/// SSR-raising device instances a cell runs, with optional per-device
/// MSI steering. When present it replaces the `gpus` count — the GPU
/// application from the workload grid runs on every `gpu`-kind
/// instance, and `nic`/`dma` instances add their default-parameter
/// interference streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Device model kinds, one per instance, in device-index order.
    pub devices: Vec<DeviceKind>,
    /// Per-device steering override, parallel to `devices`; `None`
    /// follows the system-wide policy (`-1` in the file).
    pub steer: Vec<Option<usize>>,
    /// Line the `devices` list was declared on.
    pub line: usize,
    /// Line the `steer` list was declared on (the `devices` line when
    /// the scenario has no explicit `steer`).
    pub steer_line: usize,
}

impl Topology {
    /// Number of GPU-kind instances.
    pub fn gpu_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|k| **k == DeviceKind::Gpu)
            .count()
    }

    /// Compact rendering for labels and store keys: `gpu@-,nic@0`
    /// (`@-` = shared steering policy, `@N` = pinned to core N).
    pub fn render(&self) -> String {
        self.devices
            .iter()
            .zip(&self.steer)
            .map(|(kind, steer)| match steer {
                Some(core) => format!("{}@{core}", kind.name()),
                None => format!("{}@-", kind.name()),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[scenario] name`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Base knobs from `[system]` + `[mitigation]` (sweep axes and
    /// replicas refine these per cell).
    pub base: Knobs,
    /// Workload mix.
    pub workload: Workload,
    /// Declarative device topology, when `[topology]` is present
    /// (replaces the `gpus` count).
    pub topology: Option<Topology>,
    /// CPU applications assigned the critical class (`[criticality]
    /// critical`); cells running any other CPU application drop the
    /// class machinery entirely. Empty when the scenario has no
    /// `[criticality]` section.
    pub critical_apps: Vec<String>,
    /// Sweep axes in file order (first axis is the outermost loop).
    pub sweeps: Vec<SweepAxis>,
    /// Number of replicas per cell (replica *i* runs with `seed + i`).
    pub replicas: u32,
    /// Expected exact row count, if pinned (`[run] rows`).
    pub expected_rows: Option<usize>,
    /// Metric bands.
    pub expects: Vec<Expect>,
    /// Path the scenario was loaded from ([`crate::load`] sets it;
    /// `from_str` leaves `None`), used to attribute violations.
    pub source: Option<String>,
}

const SECTIONS: &[&str] = &[
    "scenario",
    "system",
    "mitigation",
    "workload",
    "topology",
    "criticality",
    "run",
    "sweep",
    "expect",
];

impl std::str::FromStr for Scenario {
    type Err = ScenarioError;

    fn from_str(text: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_document(&crate::parse::parse(text)?)
    }
}

impl Scenario {
    /// Parses and validates scenario text in one step (an inherent
    /// mirror of the [`FromStr`](std::str::FromStr) impl, callable
    /// without the trait in scope).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Scenario, ScenarioError> {
        <Scenario as std::str::FromStr>::from_str(text)
    }

    /// Validates a parsed [`Document`] against the scenario schema.
    pub fn from_document(doc: &Document) -> Result<Scenario, ScenarioError> {
        for s in &doc.sections {
            if !SECTIONS.contains(&s.name.as_str()) {
                return Err(ScenarioError::new(
                    s.line,
                    format!(
                        "unknown section [{}] (expected one of: {})",
                        s.name,
                        SECTIONS.join(", ")
                    ),
                ));
            }
        }

        // [scenario]
        let meta = doc
            .section("scenario")
            .ok_or_else(|| ScenarioError::new(0, "missing required [scenario] section"))?;
        let mut name = None;
        let mut description = String::new();
        for e in &meta.entries {
            match e.key.as_str() {
                "name" => name = Some(expect_str(&e.value, "name", e.line)?.to_string()),
                "description" => {
                    description = expect_str(&e.value, "description", e.line)?.to_string()
                }
                other => {
                    return Err(unknown_key(
                        e.line,
                        other,
                        "scenario",
                        &["name", "description"],
                    ));
                }
            }
        }
        let name = name
            .ok_or_else(|| ScenarioError::new(meta.line, "[scenario] must set `name = \"...\"`"))?;
        if name.is_empty() {
            return Err(ScenarioError::new(
                meta.line,
                "scenario name must not be empty",
            ));
        }

        // [system] + [mitigation] → base knobs.
        let mut base = Knobs::default();
        for name in [SYSTEM, MITIGATION] {
            let Some(section) = doc.section(name) else {
                continue;
            };
            for e in &section.entries {
                let field = Field::in_section(name, &e.key).ok_or_else(|| {
                    unknown_key(e.line, &e.key, name, &Field::keys(|f| f.section == name))
                })?;
                field.apply(&mut base, &e.value, e.line)?;
            }
        }

        // [workload]
        let wl = doc
            .section("workload")
            .ok_or_else(|| ScenarioError::new(0, "missing required [workload] section"))?;
        let mut cpu = Vec::new();
        let mut gpu = Vec::new();
        let mut quick_cpu = None;
        let mut quick_gpu = None;
        for e in &wl.entries {
            match e.key.as_str() {
                "cpu" => cpu = app_list(e, CatalogKind::Cpu)?,
                "gpu" => gpu = app_list(e, CatalogKind::Gpu)?,
                "quick_cpu" => quick_cpu = Some(app_list(e, CatalogKind::Cpu)?),
                "quick_gpu" => quick_gpu = Some(app_list(e, CatalogKind::Gpu)?),
                other => {
                    return Err(unknown_key(
                        e.line,
                        other,
                        "workload",
                        &["cpu", "gpu", "quick_cpu", "quick_gpu"],
                    ));
                }
            }
        }
        if cpu.is_empty() {
            return Err(ScenarioError::new(
                wl.line,
                "[workload] must set a non-empty `cpu = [...]` list",
            ));
        }
        if gpu.is_empty() {
            return Err(ScenarioError::new(
                wl.line,
                "[workload] must set a non-empty `gpu = [...]` list",
            ));
        }
        let workload = Workload {
            quick_cpu: quick_cpu.unwrap_or_else(|| cpu.iter().take(2).cloned().collect()),
            quick_gpu: quick_gpu.unwrap_or_else(|| gpu.iter().take(2).cloned().collect()),
            cpu,
            gpu,
        };

        // [topology]
        let mut topology = None;
        if let Some(top) = doc.section("topology") {
            topology = Some(parse_topology(top)?);
        }
        if let Some(t) = &topology {
            // The device list fixes the GPU count, so a `gpus` base key
            // or sweep axis would silently disagree with it.
            if let Some(e) = doc.section("system").and_then(|s| s.get("gpus")) {
                return Err(ScenarioError::new(
                    e.line,
                    "[system] `gpus` conflicts with [topology]: the device list \
                     already fixes the GPU count",
                ));
            }
            base.gpus = t.gpu_count();
            base.cfg.num_gpus = t.gpu_count();
        }

        // [criticality] — parsed after [workload]/[topology] (its app
        // and device references are validated against them) and before
        // [sweep] (swept criticality knobs trial-apply against `base`,
        // which must already carry `Some` config).
        let mut critical_apps: Vec<String> = Vec::new();
        if let Some(crit) = doc.section("criticality") {
            base.criticality = Some(CriticalityConfig::default());
            let mut devices_line = None;
            for e in &crit.entries {
                match e.key.as_str() {
                    "critical" => {
                        critical_apps = parse_critical_apps(e, &workload)?;
                    }
                    "critical_devices" => {
                        let cfg = base.criticality.as_mut().expect("set above");
                        cfg.critical_device_mask = parse_critical_devices(e, topology.as_ref())?;
                        devices_line = Some(e.line);
                    }
                    other => {
                        let field = Field::in_section(CRITICALITY, other).ok_or_else(|| {
                            let mut keys = CRITICALITY_LISTS.to_vec();
                            keys.extend(Field::keys(|f| f.section == CRITICALITY));
                            unknown_key(e.line, other, CRITICALITY, &keys)
                        })?;
                        field.apply(&mut base, &e.value, e.line)?;
                    }
                }
            }
            if critical_apps.is_empty() {
                return Err(ScenarioError::new(
                    crit.line,
                    "[criticality] must assign at least one CPU application to \
                     the critical class (`critical = [...]`)",
                ));
            }
            if base.criticality.expect("set above").critical_device_mask == 0 {
                return Err(ScenarioError::new(
                    devices_line.unwrap_or(crit.line),
                    "[criticality] must mark at least one device critical \
                     (`critical_devices = [...]`)",
                ));
            }
        }

        // [run]
        let mut replicas = 1u32;
        let mut expected_rows = None;
        if let Some(run) = doc.section("run") {
            for e in &run.entries {
                match e.key.as_str() {
                    "replicas" => {
                        replicas = expect_int(&e.value, "replicas", e.line, 1, 64)
                            .map_err(|err| err.with_code(hiss_lint::Code::BadReplicas))?
                            as u32
                    }
                    "rows" => {
                        expected_rows =
                            Some(expect_int(&e.value, "rows", e.line, 0, i64::MAX)? as usize)
                    }
                    other => {
                        return Err(unknown_key(e.line, other, "run", &["replicas", "rows"]));
                    }
                }
            }
        }

        // [sweep]
        let mut sweeps = Vec::new();
        if let Some(sw) = doc.section("sweep") {
            for e in &sw.entries {
                let field = Field::by_key(&e.key)
                    .ok_or_else(|| unknown_key(e.line, &e.key, "sweep", &Field::keys(|_| true)))?;
                let Value::List(values) = &e.value else {
                    return Err(ScenarioError::new(
                        e.line,
                        format!(
                            "sweep axis {:?} expects a list of values, got {}",
                            e.key,
                            e.value.type_name()
                        ),
                    ));
                };
                if values.is_empty() {
                    return Err(ScenarioError::new(
                        e.line,
                        format!("sweep axis {:?} must not be empty", e.key),
                    )
                    .with_code(hiss_lint::Code::EmptySweepAxis));
                }
                // Validate every value by trial application.
                let mut scratch = base;
                for v in values {
                    field.apply(&mut scratch, v, e.line)?;
                }
                sweeps.push(SweepAxis {
                    field,
                    values: values.clone(),
                    line: e.line,
                });
            }
        }
        if topology.is_some() {
            if let Some(axis) = sweeps.iter().find(|a| a.field.key == "gpus") {
                return Err(ScenarioError::new(
                    axis.line,
                    "sweep axis `gpus` conflicts with [topology]: the device list \
                     already fixes the GPU count",
                ));
            }
        }

        // Every interrupt-steering target must be a valid core under
        // every swept core count (HL012): an out-of-range target would
        // misroute or abort mid-simulation.
        let min_swept = |key: &str, base: usize| {
            sweeps
                .iter()
                .filter(|a| a.field.key == key)
                .flat_map(|a| &a.values)
                .filter_map(|v| match v {
                    Value::Int(i) => Some(*i as usize),
                    _ => None,
                })
                .min()
                .unwrap_or(base)
        };
        let min_cores = min_swept("cores", base.cfg.num_cores);
        let steer_oor = |line: usize, what: String, core: usize| {
            ScenarioError::new(
                line,
                format!(
                    "{what} pins core {core}, but the scenario runs with as few as \
                     {min_cores} cores (a steering target must satisfy 0 <= core < cores)"
                ),
            )
            .with_code(hiss_lint::Code::SteerTargetOutOfRange)
        };
        if let Some(e) = doc.section("system").and_then(|s| s.get("steer_target")) {
            if base.cfg.steer_target.0 >= min_cores {
                return Err(steer_oor(
                    e.line,
                    "`steer_target`".to_string(),
                    base.cfg.steer_target.0,
                ));
            }
        }
        for axis in sweeps.iter().filter(|a| a.field.key == "steer_target") {
            for v in &axis.values {
                if let Value::Int(i) = v {
                    if *i as usize >= min_cores {
                        return Err(steer_oor(
                            axis.line,
                            "`steer_target` sweep value".to_string(),
                            *i as usize,
                        ));
                    }
                }
            }
        }
        if let Some(t) = &topology {
            for (i, core) in t.steer.iter().enumerate() {
                if let Some(core) = core {
                    if *core >= min_cores {
                        return Err(steer_oor(
                            t.steer_line,
                            format!("[topology] steer entry for device {i}"),
                            *core,
                        ));
                    }
                }
            }
        }

        // The critical partition must leave at least one best-effort
        // core under every swept core count, or `Soc::new` would abort
        // mid-batch.
        let crit_cores_oor = |line: usize, what: &str, n: usize| {
            ScenarioError::new(
                line,
                format!(
                    "{what} reserves {n} critical cores, but the scenario runs \
                     with as few as {min_cores} cores (at least one best-effort \
                     core must remain)"
                ),
            )
        };
        if let Some(c) = &base.criticality {
            if c.critical_cores >= min_cores {
                let line = doc
                    .section("criticality")
                    .and_then(|s| s.get("critical_cores"))
                    .map(|e| e.line)
                    .unwrap_or(0);
                return Err(crit_cores_oor(line, "`critical_cores`", c.critical_cores));
            }
        }
        for axis in sweeps.iter().filter(|a| a.field.key == "critical_cores") {
            for v in &axis.values {
                if let Value::Int(i) = v {
                    if *i as usize >= min_cores {
                        return Err(crit_cores_oor(
                            axis.line,
                            "`critical_cores` sweep value",
                            *i as usize,
                        ));
                    }
                }
            }
        }

        // Without a [topology] the devices are the GPU copies, so every
        // critical device must exist under the smallest `gpus` value, or
        // the partition would protect nothing.
        if let (None, Some(c)) = (&topology, &base.criticality) {
            let min_gpus = min_swept("gpus", base.gpus);
            let beyond = c
                .critical_device_mask
                .checked_shr(min_gpus as u32)
                .unwrap_or(0);
            if beyond != 0 {
                let line = doc
                    .section(CRITICALITY)
                    .and_then(|s| s.get("critical_devices"))
                    .map_or(0, |e| e.line);
                return Err(ScenarioError::new(
                    line,
                    format!(
                        "critical device index {} is out of range: with no [topology] \
                         the devices are the GPU copies, and the scenario runs as few \
                         as {min_gpus}",
                        min_gpus + beyond.trailing_zeros() as usize
                    ),
                ));
            }
        }

        // [expect]
        let mut expects = Vec::new();
        if let Some(ex) = doc.section("expect") {
            for e in &ex.entries {
                expects.push(parse_expect(e)?);
            }
        }

        Ok(Scenario {
            name,
            description,
            base,
            workload,
            topology,
            critical_apps,
            sweeps,
            replicas,
            expected_rows,
            expects,
            source: None,
        })
    }

    /// The CPU-app list used in the given mode.
    pub fn cpu_apps(&self, quick: bool) -> &[String] {
        if quick {
            &self.workload.quick_cpu
        } else {
            &self.workload.cpu
        }
    }

    /// The GPU-app list used in the given mode.
    pub fn gpu_apps(&self, quick: bool) -> &[String] {
        if quick {
            &self.workload.quick_gpu
        } else {
            &self.workload.gpu
        }
    }
}

/// Validates one `[topology]` section into a [`Topology`].
fn parse_topology(top: &crate::parse::Section) -> Result<Topology, ScenarioError> {
    let mut devices: Option<(Vec<DeviceKind>, usize)> = None;
    let mut steer: Option<(Vec<Option<usize>>, usize)> = None;
    for e in &top.entries {
        match e.key.as_str() {
            "devices" => {
                let Value::List(items) = &e.value else {
                    return Err(ScenarioError::new(
                        e.line,
                        format!(
                            "\"devices\" expects a list of device kinds, got {}",
                            e.value.type_name()
                        ),
                    ));
                };
                let mut kinds = Vec::with_capacity(items.len());
                for item in items {
                    let name = expect_str(item, "devices", e.line)?;
                    let kind = DeviceKind::by_name(name).ok_or_else(|| {
                        let catalog: Vec<&str> = DeviceKind::ALL.iter().map(|k| k.name()).collect();
                        let mut msg = format!(
                            "unknown device kind {name:?} (kinds: {})",
                            catalog.join(", ")
                        );
                        if let Some(suggestion) = crate::nearest(name, &catalog) {
                            msg.push_str(&format!("; did you mean {suggestion:?}?"));
                        }
                        ScenarioError::new(e.line, msg)
                    })?;
                    kinds.push(kind);
                }
                if kinds.is_empty() {
                    return Err(ScenarioError::new(
                        e.line,
                        "[topology] `devices` must list at least one device",
                    ));
                }
                devices = Some((kinds, e.line));
            }
            "steer" => {
                let Value::List(items) = &e.value else {
                    return Err(ScenarioError::new(
                        e.line,
                        format!(
                            "\"steer\" expects a list of core indices \
                             (-1 = shared policy), got {}",
                            e.value.type_name()
                        ),
                    ));
                };
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let i = expect_int(item, "steer", e.line, -1, 63)?;
                    out.push((i >= 0).then_some(i as usize));
                }
                steer = Some((out, e.line));
            }
            other => {
                return Err(unknown_key(
                    e.line,
                    other,
                    "topology",
                    &["devices", "steer"],
                ));
            }
        }
    }
    let Some((devices, line)) = devices else {
        return Err(ScenarioError::new(
            top.line,
            "[topology] must set `devices = [...]`",
        ));
    };
    if !devices.contains(&DeviceKind::Gpu) {
        return Err(ScenarioError::new(
            line,
            "[topology] must include at least one \"gpu\" device (the workload \
             grid's GPU application runs on it)",
        ));
    }
    let (steer, steer_line) = steer.unwrap_or_else(|| (vec![None; devices.len()], line));
    if steer.len() != devices.len() {
        return Err(ScenarioError::new(
            steer_line,
            format!(
                "`steer` must list exactly one entry per device ({} devices, \
                 {} steer entries); use -1 to keep the shared policy",
                devices.len(),
                steer.len()
            ),
        ));
    }
    Ok(Topology {
        devices,
        steer,
        line,
        steer_line,
    })
}

/// Validates `critical = [...]`: a non-empty subset of the workload's
/// CPU applications.
fn parse_critical_apps(entry: &Entry, workload: &Workload) -> Result<Vec<String>, ScenarioError> {
    let Value::List(items) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "\"critical\" expects a list of CPU application names, got {}",
                entry.value.type_name()
            ),
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = expect_str(item, "critical", entry.line)?;
        if !workload.cpu.iter().any(|n| n == name) {
            return Err(ScenarioError::new(
                entry.line,
                format!(
                    "critical application {name:?} is not in the [workload] cpu \
                     list ({})",
                    workload.cpu.join(", ")
                ),
            ));
        }
        if out.iter().any(|n| n == name) {
            return Err(ScenarioError::new(
                entry.line,
                format!("application {name:?} listed twice in \"critical\""),
            ));
        }
        out.push(name.to_string());
    }
    Ok(out)
}

/// Validates `critical_devices = [...]` into the device-index bitmask.
fn parse_critical_devices(
    entry: &Entry,
    topology: Option<&Topology>,
) -> Result<u64, ScenarioError> {
    let Value::List(items) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "\"critical_devices\" expects a list of device indices, got {}",
                entry.value.type_name()
            ),
        ));
    };
    let mut mask = 0u64;
    for item in items {
        let i = expect_int(item, "critical_devices", entry.line, 0, 63)?;
        if let Some(t) = topology {
            if i as usize >= t.devices.len() {
                return Err(ScenarioError::new(
                    entry.line,
                    format!(
                        "critical device index {i} is out of range: [topology] \
                         declares {} devices",
                        t.devices.len()
                    ),
                ));
            }
        }
        if mask & (1 << i) != 0 {
            return Err(ScenarioError::new(
                entry.line,
                format!("device index {i} listed twice in \"critical_devices\""),
            ));
        }
        mask |= 1 << i;
    }
    Ok(mask)
}

/// Which catalog an application list is checked against.
enum CatalogKind {
    Cpu,
    Gpu,
}

fn app_list(entry: &Entry, kind: CatalogKind) -> Result<Vec<String>, ScenarioError> {
    let Value::List(items) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "{:?} expects a list of application names, got {}",
                entry.key,
                entry.value.type_name()
            ),
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = expect_str(item, &entry.key, entry.line)?;
        let known = match kind {
            CatalogKind::Cpu => hiss_workloads::CpuAppSpec::by_name(name).is_some(),
            CatalogKind::Gpu => hiss_workloads::GpuAppSpec::by_name(name).is_some(),
        };
        if !known {
            let catalog: Vec<&str> = match kind {
                CatalogKind::Cpu => hiss_workloads::parsec_suite()
                    .iter()
                    .map(|s| s.name)
                    .collect(),
                CatalogKind::Gpu => hiss_workloads::gpu_suite().iter().map(|s| s.name).collect(),
            };
            return Err(ScenarioError::new(
                entry.line,
                format!(
                    "unknown {} application {name:?} (catalog: {})",
                    match kind {
                        CatalogKind::Cpu => "CPU",
                        CatalogKind::Gpu => "GPU",
                    },
                    catalog.join(", ")
                ),
            ));
        }
        if out.iter().any(|n| n == name) {
            return Err(ScenarioError::new(
                entry.line,
                format!("application {name:?} listed twice in {:?}", entry.key),
            ));
        }
        out.push(name.to_string());
    }
    Ok(out)
}

fn parse_expect(entry: &Entry) -> Result<Expect, ScenarioError> {
    let (agg, stem) = if let Some(stem) = entry.key.strip_prefix("mean_") {
        (Agg::Mean, stem)
    } else if let Some(stem) = entry.key.strip_prefix("min_") {
        (Agg::Min, stem)
    } else if let Some(stem) = entry.key.strip_prefix("max_") {
        (Agg::Max, stem)
    } else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "expect band {:?} must start with mean_, min_, or max_",
                entry.key
            ),
        ));
    };
    let metric = Metric::ALL.iter().find(|m| m.key == stem).ok_or_else(|| {
        let metrics: Vec<&str> = Metric::ALL.iter().map(|m| m.key).collect();
        let mut msg = format!(
            "unknown expect metric {stem:?} in {:?} (metrics: {})",
            entry.key,
            metrics.join(", ")
        );
        if let Some(suggestion) = crate::nearest(stem, &metrics) {
            msg.push_str(&format!("; did you mean {suggestion:?}?"));
        }
        ScenarioError::new(entry.line, msg).with_code(hiss_lint::Code::UnknownExpectMetric)
    })?;
    let Value::List(band) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "expect band {:?} must be `[lo, hi]`, got {}",
                entry.key,
                entry.value.type_name()
            ),
        ));
    };
    let [lo, hi] = band.as_slice() else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "expect band {:?} must have exactly two entries, got {}",
                entry.key,
                band.len()
            ),
        ));
    };
    let lo = expect_number(lo, &entry.key, entry.line)?;
    let hi = expect_number(hi, &entry.key, entry.line)?;
    if lo > hi {
        return Err(ScenarioError::new(
            entry.line,
            format!("expect band {:?} is empty: lo {lo} > hi {hi}", entry.key),
        )
        .with_code(hiss_lint::Code::EmptyExpectBand));
    }
    Ok(Expect {
        key: entry.key.clone(),
        agg,
        metric,
        lo,
        hi,
        line: entry.line,
    })
}

fn unknown_key(line: usize, key: &str, section: &str, valid: &[&str]) -> ScenarioError {
    let mut msg = format!(
        "unknown key {key:?} in [{section}] (expected one of: {})",
        valid.join(", ")
    );
    if let Some(suggestion) = crate::nearest(key, valid) {
        msg.push_str(&format!("; did you mean {suggestion:?}?"));
    }
    ScenarioError::new(line, msg)
}

impl Expect {
    /// Renders the aggregated band as text (`mean_cpu_perf in [0.4, 1]`).
    pub fn describe(&self) -> String {
        format!(
            "{}_{} in [{}, {}]",
            self.agg.prefix(),
            self.metric.key,
            self.lo,
            self.hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

    fn with(extra: &str) -> String {
        format!("{MINIMAL}{extra}")
    }

    #[test]
    fn minimal_scenario_defaults() {
        let sc = Scenario::from_str(MINIMAL).unwrap();
        assert_eq!(sc.name, "t");
        assert_eq!(sc.base, Knobs::default());
        assert_eq!(sc.replicas, 1);
        assert!(sc.sweeps.is_empty());
        assert!(sc.expects.is_empty());
        // Quick subsets default to the (short) full lists.
        assert_eq!(sc.cpu_apps(true), sc.cpu_apps(false));
    }

    #[test]
    fn system_and_mitigation_overrides_apply() {
        let sc = Scenario::from_str(&with(
            "[system]\ncores = 2\ngpus = 3\nseed = 7\ntimer_tick_us = 0\ncc6 = false\n\
             [mitigation]\nsteer = true\nqos_percent = 5\n",
        ))
        .unwrap();
        assert_eq!(sc.base.cfg.num_cores, 2);
        assert_eq!(sc.base.gpus, 3);
        assert_eq!(sc.base.cfg.seed, 7);
        assert_eq!(sc.base.cfg.timer_tick, Ns::ZERO);
        assert_eq!(sc.base.cfg.cpu.cstate.entry_threshold, Ns::MAX);
        assert!(sc.base.mitigation.steer_single_core);
        assert_eq!(sc.base.qos_percent, 5.0);
    }

    #[test]
    fn mitigation_combo_strings() {
        let sc = Scenario::from_str(&with(
            "[sweep]\nmitigation = [\"default\", \"steer+mono\"]\n",
        ))
        .unwrap();
        assert_eq!(sc.sweeps.len(), 1);
        let mut k = Knobs::default();
        Field::by_key("mitigation")
            .unwrap()
            .apply(&mut k, &Value::Str("steer+coalesce+mono".into()), 1)
            .unwrap();
        assert!(k.mitigation.steer_single_core);
        assert!(k.mitigation.coalesce);
        assert!(k.mitigation.monolithic_bottom_half);
    }

    #[test]
    fn bad_mitigation_combo_is_positioned() {
        let text = with("[sweep]\nmitigation = [\"default\", \"coalese\"]\n");
        let err = Scenario::from_str(&text).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("unknown mitigation"), "{}", err.msg);
    }

    #[test]
    fn unknown_section_and_keys_are_errors() {
        let err = Scenario::from_str(&with("[sweeps]\nx = [1]\n")).unwrap_err();
        assert!(err.msg.contains("unknown section"), "{}", err.msg);
        assert_eq!(err.line, 7);

        let err = Scenario::from_str(&with("[system]\ncoers = 4\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("did you mean \"cores\""), "{}", err.msg);
    }

    #[test]
    fn unknown_workload_names_list_the_catalog() {
        let err = Scenario::from_str(
            "[scenario]\nname = \"t\"\n[workload]\ncpu = [\"quake\"]\ngpu = [\"ubench\"]\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("unknown CPU application"), "{}", err.msg);
        assert!(err.msg.contains("x264"), "{}", err.msg);
    }

    #[test]
    fn empty_sweep_axis_is_an_error() {
        let err = Scenario::from_str(&with("[sweep]\ngpus = []\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("must not be empty"), "{}", err.msg);
    }

    #[test]
    fn sweep_values_are_type_checked() {
        let err = Scenario::from_str(&with("[sweep]\ngpus = [1, \"two\"]\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("expects an integer"), "{}", err.msg);
    }

    #[test]
    fn expect_bands_parse_and_reject_garbage() {
        let sc = Scenario::from_str(&with(
            "[expect]\nmean_cpu_perf = [0.4, 1.0]\nmax_p99_latency_us = [0, 500]\n",
        ))
        .unwrap();
        assert_eq!(sc.expects.len(), 2);
        assert_eq!(sc.expects[0].agg, Agg::Mean);
        assert_eq!(sc.expects[0].metric.key, "cpu_perf");
        assert_eq!(sc.expects[1].agg, Agg::Max);
        assert_eq!(sc.expects[1].metric.key, "p99_latency_us");

        let err = Scenario::from_str(&with("[expect]\ncpu_perf = [0, 1]\n")).unwrap_err();
        assert!(err.msg.contains("must start with"), "{}", err.msg);

        let err = Scenario::from_str(&with("[expect]\nmean_cpu_pref = [0, 1]\n")).unwrap_err();
        assert!(err.msg.contains("unknown expect metric"), "{}", err.msg);

        let err = Scenario::from_str(&with("[expect]\nmean_cpu_perf = [1.0, 0.4]\n")).unwrap_err();
        assert!(err.msg.contains("empty"), "{}", err.msg);

        let err = Scenario::from_str(&with("[expect]\nmean_cpu_perf = [1.0]\n")).unwrap_err();
        assert!(err.msg.contains("exactly two"), "{}", err.msg);
    }

    #[test]
    fn missing_required_sections_are_errors() {
        let err =
            Scenario::from_str("[workload]\ncpu = [\"x264\"]\ngpu = [\"ubench\"]\n").unwrap_err();
        assert!(err.msg.contains("[scenario]"), "{}", err.msg);

        let err = Scenario::from_str("[scenario]\nname = \"t\"\n").unwrap_err();
        assert!(err.msg.contains("[workload]"), "{}", err.msg);
    }

    #[test]
    fn qos_percent_range_checked() {
        let err = Scenario::from_str(&with("[mitigation]\nqos_percent = 101\n")).unwrap_err();
        assert!(err.msg.contains("[0, 100]"), "{}", err.msg);
    }

    #[test]
    fn topology_parses_and_fixes_the_gpu_count() {
        let sc = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\", \"nic\", \"gpu\", \"dma\"]\nsteer = [-1, 0, -1, 3]\n",
        ))
        .unwrap();
        let t = sc.topology.as_ref().unwrap();
        assert_eq!(t.devices.len(), 4);
        assert_eq!(t.gpu_count(), 2);
        assert_eq!(t.steer, vec![None, Some(0), None, Some(3)]);
        assert_eq!(t.render(), "gpu@-,nic@0,gpu@-,dma@3");
        // The device list fixes the GPU count on the base knobs.
        assert_eq!(sc.base.gpus, 2);
        assert_eq!(sc.base.cfg.num_gpus, 2);

        // steer defaults to the shared policy for every device.
        let sc = Scenario::from_str(&with("[topology]\ndevices = [\"gpu\", \"nic\"]\n")).unwrap();
        assert_eq!(sc.topology.unwrap().steer, vec![None, None]);
    }

    #[test]
    fn topology_requires_known_kinds_and_a_gpu() {
        let err =
            Scenario::from_str(&with("[topology]\ndevices = [\"gpu\", \"nick\"]\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("unknown device kind"), "{}", err.msg);
        assert!(err.msg.contains("did you mean \"nic\""), "{}", err.msg);

        let err =
            Scenario::from_str(&with("[topology]\ndevices = [\"nic\", \"dma\"]\n")).unwrap_err();
        assert!(err.msg.contains("at least one \"gpu\""), "{}", err.msg);

        let err = Scenario::from_str(&with("[topology]\nsteer = [0]\n")).unwrap_err();
        assert!(err.msg.contains("`devices = [...]`"), "{}", err.msg);

        let err = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\", \"nic\"]\nsteer = [0]\n",
        ))
        .unwrap_err();
        assert!(err.msg.contains("one entry per device"), "{}", err.msg);
    }

    #[test]
    fn topology_conflicts_with_the_gpus_knob_and_axis() {
        let err = Scenario::from_str(&with(
            "[system]\ngpus = 2\n[topology]\ndevices = [\"gpu\"]\n",
        ))
        .unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("conflicts with [topology]"), "{}", err.msg);

        let err = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\"]\n[sweep]\ngpus = [1, 2]\n",
        ))
        .unwrap_err();
        assert_eq!(err.line, 10);
        assert!(err.msg.contains("conflicts with [topology]"), "{}", err.msg);
    }

    /// Out-of-range steering targets used to survive until a mid-run
    /// `assert!` in `MsiSteering::target`; they are now rejected at
    /// scenario-compile time with `HL012` (the runtime check is a
    /// `debug_assert`).
    #[test]
    fn steer_targets_are_range_checked_at_compile_time() {
        // `steer_target` beyond the default 4 cores.
        let err = Scenario::from_str(&with("[system]\nsteer_target = 4\n")).unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("as few as 4 cores"), "{}", err.msg);

        // In range passes and lands on the config.
        let sc = Scenario::from_str(&with("[system]\nsteer_target = 3\n")).unwrap();
        assert_eq!(sc.base.cfg.steer_target, CoreId(3));

        // A cores sweep axis lowers the bound to its minimum.
        let err = Scenario::from_str(&with(
            "[system]\nsteer_target = 3\n[sweep]\ncores = [2, 8]\n",
        ))
        .unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
        assert!(err.msg.contains("as few as 2 cores"), "{}", err.msg);

        // Topology steer entries are held to the same range.
        let err = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\", \"nic\"]\nsteer = [-1, 7]\n",
        ))
        .unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
        assert_eq!(err.line, 9);
        assert!(err.msg.contains("device 1"), "{}", err.msg);

        // Swept steer_target values are each checked.
        let err = Scenario::from_str(&with("[sweep]\nsteer_target = [0, 5]\n")).unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
    }

    const TWO_APP: &str = r#"
[scenario]
name = "mc"
[workload]
cpu = ["raytrace", "x264"]
gpu = ["ubench"]
"#;

    #[test]
    fn criticality_section_parses_with_defaults_and_overrides() {
        let sc = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n"
        ))
        .unwrap();
        assert_eq!(sc.critical_apps, vec!["raytrace"]);
        let c = sc.base.criticality.unwrap();
        assert_eq!(c.critical_device_mask, 0b1);
        assert!(c.reserve);
        assert_eq!(c.critical_cores, 1);
        assert_eq!(c.ppr_quota_percent, 50);

        let sc = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             reserve = false\nppr_quota_percent = 80\ncritical_cores = 2\n\
             critical_window_us = 0\nbest_effort_window_us = 13\n"
        ))
        .unwrap();
        let c = sc.base.criticality.unwrap();
        assert!(!c.reserve);
        assert_eq!(c.ppr_quota_percent, 80);
        assert_eq!(c.critical_cores, 2);
        assert_eq!(c.critical_window, Ns::ZERO);
        assert_eq!(c.best_effort_window, Ns::from_micros(13));
    }

    #[test]
    fn criticality_validates_apps_devices_and_required_keys() {
        // Critical app must be in the workload's cpu list.
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"canneal\"]\ncritical_devices = [0]\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("not in the [workload] cpu"), "{}", err.msg);

        // Device indices are range-checked against the topology.
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[topology]\ndevices = [\"gpu\", \"nic\"]\n\
             [criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [2]\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("out of range"), "{}", err.msg);

        // Both the app list and the device list are required.
        let err = Scenario::from_str(&format!("{TWO_APP}[criticality]\ncritical_devices = [0]\n"))
            .unwrap_err();
        assert!(err.msg.contains("`critical = [...]`"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\n"
        ))
        .unwrap_err();
        assert!(
            err.msg.contains("`critical_devices = [...]`"),
            "{}",
            err.msg
        );
    }

    /// Without a `[topology]`, device indices run over the GPU copies:
    /// an index past the smallest `gpus` value used to pass validation
    /// and run a partition that protected no device.
    #[test]
    fn critical_devices_are_range_checked_against_the_gpu_count() {
        let crit = "[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0, 5]\n";
        let err = Scenario::from_str(&format!("{TWO_APP}{crit}")).unwrap_err();
        assert_eq!(err.line, 9);
        assert_eq!(
            err.msg,
            "critical device index 5 is out of range: with no [topology] the devices \
             are the GPU copies, and the scenario runs as few as 1"
        );

        // Six GPU copies bring index 5 into range, unless a sweep axis
        // also runs fewer.
        let six = format!("{TWO_APP}[system]\ngpus = 6\n{crit}");
        let sc = Scenario::from_str(&six).unwrap();
        assert_eq!(sc.base.criticality.unwrap().critical_device_mask, 0b10_0001);
        let err = Scenario::from_str(&format!("{six}[sweep]\ngpus = [6, 2]\n")).unwrap_err();
        assert!(
            err.msg.contains("index 5") && err.msg.ends_with("as few as 2"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn criticality_knobs_are_fenced_and_core_counts_checked() {
        // Criticality knobs cannot be swept without the section.
        let err = Scenario::from_str(&with("[sweep]\nreserve = [true, false]\n")).unwrap_err();
        assert!(
            err.msg.contains("requires a [criticality] section"),
            "{}",
            err.msg
        );

        // With the section present the same axis is legal.
        let sc = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             [sweep]\nreserve = [true, false]\n"
        ))
        .unwrap();
        assert_eq!(sc.sweeps.len(), 1);
        assert_eq!(sc.sweeps[0].field.key, "reserve");

        // Reserving every core (under the minimum swept count) is an
        // error: no best-effort core would remain to take interrupts.
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             critical_cores = 2\n[sweep]\ncores = [2, 8]\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("as few as 2 cores"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             [sweep]\ncritical_cores = [1, 4]\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("sweep value"), "{}", err.msg);
    }

    #[test]
    fn critical_p99_band_parses() {
        let sc = Scenario::from_str(&with("[expect]\nmax_critical_p99_latency_us = [0, 200]\n"))
            .unwrap();
        assert_eq!(sc.expects[0].metric.key, "critical_p99_latency_us");
        assert_eq!(
            sc.expects[0].metric.registry_key,
            Some("qos.class0.p99_latency_us")
        );
    }

    /// The type column docs/SCENARIOS.md prints for a knob kind.
    fn doc_type(kind: &Kind) -> String {
        let bound = |n: i64| match n {
            1_000_000 => "10⁶".to_string(),
            n => n.to_string(),
        };
        match *kind {
            Kind::Int { min, max, .. } if max >= i64::MAX / 1_000_000 => format!("int ≥ {min}"),
            Kind::Int { min, max, .. } => format!("int {}–{}", bound(min), bound(max)),
            Kind::Bool(_) => "bool".to_string(),
            Kind::Number { min, max, .. } => format!("number {min}–{max}"),
            Kind::Combo(_) => "string".to_string(),
        }
    }

    /// docs/SCENARIOS.md documents exactly the knobs of [`Field::ALL`]
    /// (section, key and type column) and the metrics of
    /// [`Metric::ALL`]: a row missing on either side fails.
    #[test]
    fn scenarios_doc_matches_the_knob_and_metric_tables() {
        use std::collections::BTreeSet;
        let doc = include_str!("../../../docs/SCENARIOS.md");
        let mut section = "";
        let mut metric_table = false;
        let mut knobs = BTreeSet::new();
        let mut metrics = BTreeSet::new();
        for line in doc.lines() {
            if line.starts_with('#') {
                section = line
                    .strip_prefix("### `[")
                    .and_then(|rest| rest.split(']').next())
                    .unwrap_or("");
            }
            let Some(row) = line.strip_prefix('|') else {
                metric_table = false;
                continue;
            };
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            if cells[0] == "metric" {
                metric_table = true;
            }
            let Some(key) = cells[0].strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
                continue; // header and separator rows
            };
            if metric_table {
                metrics.insert(key);
            } else if [SYSTEM, MITIGATION, CRITICALITY].contains(&section)
                && !CRITICALITY_LISTS.contains(&key)
            {
                knobs.insert((section, key, cells[1].to_string()));
            }
        }
        let want: BTreeSet<_> = Field::ALL
            .iter()
            .map(|f| (f.section, f.key, doc_type(&f.kind)))
            .collect();
        assert_eq!(knobs, want, "knob rows of docs/SCENARIOS.md");
        let want: BTreeSet<_> = Metric::ALL.iter().map(|m| m.key).collect();
        assert_eq!(metrics, want, "metric rows of docs/SCENARIOS.md");
    }

    /// The `[system]`, `[mitigation]`, `[criticality]` and `[sweep]` key
    /// lists, as the unknown-key diagnostics print them.
    const SYSTEM_KEYS: &str = "cores, gpus, seed, timer_tick_us, coalesce_window_us, \
                               max_sim_time_ms, cc6, steer_target";
    const MITIGATION_KEYS: &str = "steer, coalesce, monolithic, qos_percent, mitigation";
    const CRITICALITY_KNOB_KEYS: &str = "reserve, ppr_quota_percent, critical_cores, \
                                         critical_window_us, best_effort_window_us";

    /// One knob's pinned diagnostics.
    struct KnobCase {
        key: &'static str,
        section: &'static str,
        /// A value the knob accepts.
        ok: &'static str,
        /// Rejected values (wrong type, out of range) and their messages.
        bad: &'static [(&'static str, &'static str)],
    }

    const KNOB_CASES: &[KnobCase] = &[
        KnobCase {
            key: "cores",
            section: "system",
            ok: "2",
            bad: &[
                ("true", r#""cores" expects an integer, got bool"#),
                ("0", r#""cores" must be an integer in [1, 64], got 0"#),
                ("65", r#""cores" must be an integer in [1, 64], got 65"#),
            ],
        },
        KnobCase {
            key: "gpus",
            section: "system",
            ok: "2",
            bad: &[
                ("\"two\"", r#""gpus" expects an integer, got string"#),
                ("0", r#""gpus" must be an integer in [1, 64], got 0"#),
                ("65", r#""gpus" must be an integer in [1, 64], got 65"#),
            ],
        },
        KnobCase {
            key: "seed",
            section: "system",
            ok: "7",
            bad: &[
                ("1.5", r#""seed" expects an integer, got float"#),
                (
                    "-1",
                    r#""seed" must be an integer in [0, 9223372036854775807], got -1"#,
                ),
            ],
        },
        KnobCase {
            key: "timer_tick_us",
            section: "system",
            ok: "0",
            bad: &[
                ("false", r#""timer_tick_us" expects an integer, got bool"#),
                (
                    "-1",
                    r#""timer_tick_us" must be an integer in [0, 1000000], got -1"#,
                ),
                (
                    "1000001",
                    r#""timer_tick_us" must be an integer in [0, 1000000], got 1000001"#,
                ),
            ],
        },
        KnobCase {
            key: "coalesce_window_us",
            section: "system",
            ok: "13",
            bad: &[
                (
                    "[1]",
                    r#""coalesce_window_us" expects an integer, got list"#,
                ),
                (
                    "-1",
                    r#""coalesce_window_us" must be an integer in [0, 1000000], got -1"#,
                ),
                (
                    "1000001",
                    r#""coalesce_window_us" must be an integer in [0, 1000000], got 1000001"#,
                ),
            ],
        },
        KnobCase {
            key: "max_sim_time_ms",
            section: "system",
            ok: "100",
            bad: &[
                (
                    "\"1s\"",
                    r#""max_sim_time_ms" expects an integer, got string"#,
                ),
                (
                    "0",
                    r#""max_sim_time_ms" must be an integer in [1, 9223372036854], got 0"#,
                ),
                (
                    "9223372036855",
                    r#""max_sim_time_ms" must be an integer in [1, 9223372036854], got 9223372036855"#,
                ),
            ],
        },
        KnobCase {
            key: "cc6",
            section: "system",
            ok: "false",
            bad: &[("1", r#""cc6" expects true or false, got integer"#)],
        },
        KnobCase {
            key: "steer_target",
            section: "system",
            ok: "1",
            bad: &[
                (
                    "\"core0\"",
                    r#""steer_target" expects an integer, got string"#,
                ),
                (
                    "-1",
                    r#""steer_target" must be an integer in [0, 63], got -1"#,
                ),
                (
                    "64",
                    r#""steer_target" must be an integer in [0, 63], got 64"#,
                ),
            ],
        },
        KnobCase {
            key: "steer",
            section: "mitigation",
            ok: "true",
            bad: &[("\"yes\"", r#""steer" expects true or false, got string"#)],
        },
        KnobCase {
            key: "coalesce",
            section: "mitigation",
            ok: "true",
            bad: &[("0", r#""coalesce" expects true or false, got integer"#)],
        },
        KnobCase {
            key: "monolithic",
            section: "mitigation",
            ok: "true",
            bad: &[("0.0", r#""monolithic" expects true or false, got float"#)],
        },
        KnobCase {
            key: "qos_percent",
            section: "mitigation",
            ok: "5",
            bad: &[
                ("\"5%\"", r#""qos_percent" expects a number, got string"#),
                (
                    "-0.5",
                    r#""qos_percent" must be in [0, 100] (0 = governor off), got -0.5"#,
                ),
                (
                    "101",
                    r#""qos_percent" must be in [0, 100] (0 = governor off), got 101"#,
                ),
            ],
        },
        KnobCase {
            key: "mitigation",
            section: "mitigation",
            ok: "\"steer+mono\"",
            bad: &[
                ("true", r#""mitigation" expects a string, got bool"#),
                (
                    "\"steer+stear\"",
                    r#"unknown mitigation "stear" in combo "steer+stear" (expected "default" or a +-joined subset of steer, coalesce, mono)"#,
                ),
            ],
        },
        KnobCase {
            key: "reserve",
            section: "criticality",
            ok: "false",
            bad: &[("1", r#""reserve" expects true or false, got integer"#)],
        },
        KnobCase {
            key: "ppr_quota_percent",
            section: "criticality",
            ok: "80",
            bad: &[
                (
                    "50.0",
                    r#""ppr_quota_percent" expects an integer, got float"#,
                ),
                (
                    "0",
                    r#""ppr_quota_percent" must be an integer in [1, 100], got 0"#,
                ),
                (
                    "101",
                    r#""ppr_quota_percent" must be an integer in [1, 100], got 101"#,
                ),
            ],
        },
        KnobCase {
            key: "critical_cores",
            section: "criticality",
            ok: "2",
            bad: &[
                ("true", r#""critical_cores" expects an integer, got bool"#),
                (
                    "0",
                    r#""critical_cores" must be an integer in [1, 63], got 0"#,
                ),
                (
                    "64",
                    r#""critical_cores" must be an integer in [1, 63], got 64"#,
                ),
            ],
        },
        KnobCase {
            key: "critical_window_us",
            section: "criticality",
            ok: "0",
            bad: &[
                (
                    "\"0\"",
                    r#""critical_window_us" expects an integer, got string"#,
                ),
                (
                    "-1",
                    r#""critical_window_us" must be an integer in [0, 13], got -1"#,
                ),
                (
                    "14",
                    r#""critical_window_us" must be an integer in [0, 13], got 14"#,
                ),
            ],
        },
        KnobCase {
            key: "best_effort_window_us",
            section: "criticality",
            ok: "13",
            bad: &[
                (
                    "[13]",
                    r#""best_effort_window_us" expects an integer, got list"#,
                ),
                (
                    "-1",
                    r#""best_effort_window_us" must be an integer in [0, 13], got -1"#,
                ),
                (
                    "14",
                    r#""best_effort_window_us" must be an integer in [0, 13], got 14"#,
                ),
            ],
        },
    ];

    /// Every knob's diagnostics, pinned to the exact text and line: each
    /// rejected value in the knob's own section and as a `[sweep]` axis
    /// value, a one-letter misspelling of its key in both sections, and,
    /// for `[criticality]` knobs, a sweep axis without the section.
    #[test]
    fn every_knob_pins_its_diagnostics() {
        let expect_err = |text: &str, line: usize, msg: &str| {
            let err = Scenario::from_str(text).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (line, msg), "{text}");
        };
        assert_eq!(KNOB_CASES.len(), 18);
        for case in KNOB_CASES {
            let key = case.key;
            // `[criticality]` knobs need a minimal section to be legal.
            let (prelude, keys) = match case.section {
                "system" => (String::new(), SYSTEM_KEYS.to_string()),
                "mitigation" => (String::new(), MITIGATION_KEYS.to_string()),
                _ => (
                    "[criticality]\ncritical = [\"x264\"]\ncritical_devices = [0]\n".to_string(),
                    format!("critical, critical_devices, {CRITICALITY_KNOB_KEYS}"),
                ),
            };
            let section = if case.section == "criticality" {
                prelude.clone()
            } else {
                format!("[{}]\n", case.section)
            };
            let sweep = format!("{prelude}[sweep]\n");
            // The entry appended after a header block sits on its next line.
            let line_after = |head: &str| with(head).matches('\n').count() + 1;
            let (line, sweep_line) = (line_after(&section), line_after(&sweep));

            // Accepted in the section and as a sweep axis.
            Scenario::from_str(&with(&format!("{section}{key} = {}\n", case.ok))).unwrap();
            Scenario::from_str(&with(&format!("{sweep}{key} = [{}]\n", case.ok))).unwrap();

            for (value, msg) in case.bad {
                expect_err(&with(&format!("{section}{key} = {value}\n")), line, msg);
                expect_err(
                    &with(&format!("{sweep}{key} = [{value}]\n")),
                    sweep_line,
                    msg,
                );
            }

            let typo = &key[..key.len() - 1];
            expect_err(
                &with(&format!("{section}{typo} = {}\n", case.ok)),
                line,
                &format!(
                    "unknown key {typo:?} in [{}] (expected one of: {keys}); \
                     did you mean {key:?}?",
                    case.section
                ),
            );
            expect_err(
                &with(&format!("{sweep}{typo} = [{}]\n", case.ok)),
                sweep_line,
                &format!(
                    "unknown key {typo:?} in [sweep] (expected one of: {SYSTEM_KEYS}, \
                     {MITIGATION_KEYS}, {CRITICALITY_KNOB_KEYS}); did you mean {key:?}?"
                ),
            );

            if case.section == "criticality" {
                expect_err(
                    &with(&format!("[sweep]\n{key} = [{}]\n", case.ok)),
                    8,
                    &format!("{key:?} requires a [criticality] section"),
                );
            }
        }
    }
}
