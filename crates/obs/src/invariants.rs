//! Declared conservation laws over the metric namespace.
//!
//! The paper's SSR pipeline is a chain of conservation identities —
//! every request a device raises is enqueued by the IOMMU, delivered as
//! an interrupt, serviced (or still pending at simulation end), and
//! completed back to the device. Each of those hand-offs is an
//! accounting equality or bound over [`crate::schema`] names, and this
//! module states them **once**, declaratively, so three independent
//! checkers can enforce the same table:
//!
//! - the runtime sanitizer ([`audit`] on every finalized `RunReport`
//!   registry, `HL403`),
//! - the `BENCH_BASELINE.json` static cross-metric lint (`HL402`),
//! - the scenario `[expect]`-band contradiction lint (`HL401`).
//!
//! Terms are sums (or counts) of **counter** values over schema
//! patterns, so an invariant reads like the bookkeeping identity it is:
//! `Σ devN.ssrs_raised = Σ gpuN.ssrs_raised + run.aux_ssrs_raised`.
//! Names absent from a registry contribute zero — an inequality over an
//! optional family (e.g. `qos.*`) holds vacuously when the family is
//! not published.

use std::ops::Range;
use std::sync::OnceLock;

use crate::schema::{segment_matches, Scope};
use crate::{MetricValue, MetricsRegistry};

/// The relation an invariant asserts between its two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// Left side must equal the right side exactly.
    Eq,
    /// Left side must not exceed the right side.
    Le,
}

impl Rel {
    /// The relation symbol used in diagnostics (`=` / `<=`).
    pub fn as_str(self) -> &'static str {
        match self {
            Rel::Eq => "=",
            Rel::Le => "<=",
        }
    }
}

/// One additive term of an invariant side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Sum of every **counter** whose name matches the schema pattern
    /// (a concrete name matches itself; indexed families and `*`
    /// wildcards follow [`crate::schema::pattern_matches`]).
    Sum(&'static str),
    /// Number of published names (of any kind) matching the pattern
    /// (used to tie a cardinality counter to the family it counts).
    Count(&'static str),
}

impl Term {
    /// The pattern the term ranges over.
    pub fn pattern(self) -> &'static str {
        match self {
            Term::Sum(p) | Term::Count(p) => p,
        }
    }

    /// Reads the term's value off its pattern's tally.
    fn eval(self, tally: Tally) -> u128 {
        match self {
            Term::Sum(_) => tally.sum,
            Term::Count(_) => tally.names,
        }
    }

    /// Renders the term for diagnostics (`Σ devN.ssrs_raised`,
    /// `#(bench.cell.*.elapsed_ns)`).
    fn describe(self) -> String {
        match self {
            Term::Sum(p) => {
                if is_concrete(p) {
                    p.to_string()
                } else {
                    format!("Σ {p}")
                }
            }
            Term::Count(p) => format!("#({p})"),
        }
    }
}

/// `pattern` names exactly one metric (no `*` segment, no indexed
/// family placeholder).
pub fn is_concrete(pattern: &str) -> bool {
    pattern
        .split('.')
        .all(|seg| seg != "*" && !seg.ends_with('N'))
}

/// One declared conservation law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invariant {
    /// Stable short name, used in diagnostics and docs.
    pub name: &'static str,
    /// Registry scope the law applies to ([`Scope::Run`] laws are
    /// audited on every finalized run; [`Scope::Bench`] laws on suite
    /// snapshots and the committed baseline).
    pub scope: Scope,
    /// Additive terms of the left side.
    pub lhs: &'static [Term],
    /// Relation between the sides.
    pub rel: Rel,
    /// Additive terms of the right side.
    pub rhs: &'static [Term],
    /// Optional guard pattern: the law is evaluated only when the
    /// registry publishes at least one name matching it. Guarded laws
    /// cover opt-in families whose absence must not read as zero (the
    /// per-class split laws key on the `qos.classes` marker); a skipped
    /// guard does not count toward an audit's `checked` total, so
    /// default runs publish the same `run.invariants_checked`.
    pub guard: Option<&'static str>,
    /// One-line statement of the law.
    pub doc: &'static str,
}

/// `run`-scope equality: `lhs = rhs`.
const fn run_eq(
    name: &'static str,
    lhs: &'static [Term],
    rhs: &'static [Term],
    doc: &'static str,
) -> Invariant {
    Invariant {
        name,
        scope: Scope::Run,
        lhs,
        rel: Rel::Eq,
        rhs,
        guard: None,
        doc,
    }
}

/// `run`-scope equality evaluated only when `guard` matches a published
/// name (opt-in families whose absence must not read as zero).
const fn run_eq_when(
    guard: &'static str,
    name: &'static str,
    lhs: &'static [Term],
    rhs: &'static [Term],
    doc: &'static str,
) -> Invariant {
    Invariant {
        name,
        scope: Scope::Run,
        lhs,
        rel: Rel::Eq,
        rhs,
        guard: Some(guard),
        doc,
    }
}

/// `run`-scope bound: `lhs <= rhs`.
const fn run_le(
    name: &'static str,
    lhs: &'static [Term],
    rhs: &'static [Term],
    doc: &'static str,
) -> Invariant {
    Invariant {
        name,
        scope: Scope::Run,
        lhs,
        rel: Rel::Le,
        rhs,
        guard: None,
        doc,
    }
}

/// Per-core time category that must sum to its `cpu.total` mirror.
const fn cpu_total(
    name: &'static str,
    per_core: &'static [Term],
    total: &'static [Term],
) -> Invariant {
    Invariant {
        name,
        scope: Scope::Run,
        lhs: per_core,
        rel: Rel::Eq,
        rhs: total,
        guard: None,
        doc: "per-core time category sums to its cpu.total mirror",
    }
}

/// `bench`-scope equality: a `bench.total.X` counter equals the sum of
/// its per-cell family.
const fn bench_total(
    name: &'static str,
    total: &'static [Term],
    cells: &'static [Term],
) -> Invariant {
    Invariant {
        name,
        scope: Scope::Bench,
        lhs: total,
        rel: Rel::Eq,
        rhs: cells,
        guard: None,
        doc: "suite total equals the sum over its per-cell counters",
    }
}

/// The declared conservation laws, grouped by scope. Every law here is
/// enforced from three directions (see module docs); the catalogue a
/// human should read is `docs/OBSERVABILITY.md`.
pub const INVARIANTS: &[Invariant] = &[
    // --- Run scope: the SSR conservation chain -----------------------
    run_le(
        "requests_are_device_ssrs",
        &[Term::Sum("iommu.requests")],
        &[Term::Sum("devN.ssrs_raised")],
        "every SSR the IOMMU enqueues was raised by some device (a raise \
         may still be in flight when a truncated run ends)",
    ),
    run_eq(
        "device_ssr_split",
        &[Term::Sum("devN.ssrs_raised")],
        &[
            Term::Sum("gpuN.ssrs_raised"),
            Term::Sum("run.aux_ssrs_raised"),
        ],
        "device-indexed SSRs split exactly into GPU-raised plus auxiliary",
    ),
    run_eq(
        "iommu_backlog",
        &[Term::Sum("iommu.requests")],
        &[Term::Sum("iommu.drained"), Term::Sum("run.pending_at_end")],
        "requests are either drained or still pending at simulation end",
    ),
    run_le(
        "drained_bounded_by_requests",
        &[Term::Sum("iommu.drained")],
        &[Term::Sum("iommu.requests")],
        "the IOMMU cannot drain more than was enqueued",
    ),
    run_le(
        "interrupts_bounded_by_requests",
        &[Term::Sum("iommu.interrupts")],
        &[Term::Sum("iommu.requests")],
        "each interrupt needs at least one logged request",
    ),
    run_le(
        "interrupts_delivered",
        &[Term::Sum("kernel.interrupts.total")],
        &[Term::Sum("iommu.interrupts")],
        "every interrupt a core takes was raised by the IOMMU (delivery \
         may still be in flight when a truncated run ends)",
    ),
    run_eq(
        "interrupts_per_core",
        &[Term::Sum("kernel.interrupts.coreN")],
        &[Term::Sum("kernel.interrupts.total")],
        "per-core interrupt counts sum to the total",
    ),
    run_le(
        "interrupt_causes",
        &[
            Term::Sum("iommu.timer_fires"),
            Term::Sum("iommu.log_full_flushes"),
        ],
        &[Term::Sum("iommu.interrupts")],
        "timer and log-full flushes are each one interrupt cause among others",
    ),
    run_eq(
        "batches_per_interrupt",
        &[Term::Sum("kernel.batch.count")],
        &[Term::Sum("kernel.interrupts.total")],
        "each taken interrupt drains exactly one request batch",
    ),
    run_le(
        "serviced_bounded_by_drained",
        &[Term::Sum("kernel.ssrs_serviced")],
        &[Term::Sum("iommu.drained")],
        "the kernel can only service requests the IOMMU drained",
    ),
    run_le(
        "completions_bounded_by_serviced",
        &[Term::Sum("devN.ssrs_completed")],
        &[Term::Sum("kernel.ssrs_serviced")],
        "devices see completions only for serviced requests",
    ),
    run_eq(
        "qos_deferrals_agree",
        &[Term::Sum("qos.deferrals")],
        &[Term::Sum("kernel.qos_deferrals")],
        "the governor and the kernel count the same deferral episodes",
    ),
    // --- Run scope: per-criticality-class splits (guarded on the
    // `qos.classes` marker, published only when a scenario assigns
    // classes — on every other run the family is absent and the laws
    // are skipped rather than read as zero).
    run_eq_when(
        "qos.classes",
        "class_requests_split",
        &[Term::Sum("qos.classN.requests")],
        &[Term::Sum("iommu.requests")],
        "per-class request counts split the IOMMU request total",
    ),
    run_eq_when(
        "qos.classes",
        "class_drained_split",
        &[Term::Sum("qos.classN.drained")],
        &[Term::Sum("iommu.drained")],
        "per-class drain counts split the IOMMU drain total",
    ),
    run_eq_when(
        "qos.classes",
        "class_interrupts_split",
        &[Term::Sum("qos.classN.interrupts")],
        &[Term::Sum("kernel.interrupts.total")],
        "per-class interrupt counts split the kernel interrupt total",
    ),
    run_eq_when(
        "qos.classes",
        "class_serviced_split",
        &[Term::Sum("qos.classN.ssrs_serviced")],
        &[Term::Sum("kernel.ssrs_serviced")],
        "per-class service counts split the kernel service total",
    ),
    run_eq_when(
        "qos.classes",
        "class_deferrals_split",
        &[Term::Sum("qos.classN.deferrals")],
        &[Term::Sum("kernel.qos_deferrals")],
        "per-class deferral counts split the kernel deferral total",
    ),
    run_eq_when(
        "qos.classes",
        "class_quota_flushes_agree",
        &[Term::Sum("qos.classN.quota_flushes")],
        &[Term::Sum("iommu.log_full_flushes")],
        "partitioned per-class quota flushes are the run's log-full flushes",
    ),
    // --- Run scope: calendar and workload accounting -----------------
    run_le(
        "events_popped_bounded",
        &[Term::Sum("run.events_popped")],
        &[Term::Sum("run.events_pushed")],
        "the calendar cannot pop more events than were pushed",
    ),
    run_le(
        "events_peak_bounded",
        &[Term::Sum("run.events_peak")],
        &[Term::Sum("run.events_pushed")],
        "the pending-event high watermark is bounded by total pushes",
    ),
    run_eq(
        "gpu_iterations_total",
        &[Term::Sum("run.gpu_iterations")],
        &[Term::Sum("gpuN.iterations")],
        "the run-level iteration count sums the per-GPU counters",
    ),
    run_eq(
        "devices_counted",
        &[Term::Sum("run.devices")],
        &[Term::Count("devN.kind")],
        "run.devices equals the number of published device entries",
    ),
    cpu_total(
        "cpu_user_ns_total",
        &[Term::Sum("cpu.coreN.user_ns")],
        &[Term::Sum("cpu.total.user_ns")],
    ),
    cpu_total(
        "cpu_top_half_ns_total",
        &[Term::Sum("cpu.coreN.top_half_ns")],
        &[Term::Sum("cpu.total.top_half_ns")],
    ),
    cpu_total(
        "cpu_ipi_ns_total",
        &[Term::Sum("cpu.coreN.ipi_ns")],
        &[Term::Sum("cpu.total.ipi_ns")],
    ),
    cpu_total(
        "cpu_bottom_half_ns_total",
        &[Term::Sum("cpu.coreN.bottom_half_ns")],
        &[Term::Sum("cpu.total.bottom_half_ns")],
    ),
    cpu_total(
        "cpu_worker_ns_total",
        &[Term::Sum("cpu.coreN.worker_ns")],
        &[Term::Sum("cpu.total.worker_ns")],
    ),
    cpu_total(
        "cpu_mode_switch_ns_total",
        &[Term::Sum("cpu.coreN.mode_switch_ns")],
        &[Term::Sum("cpu.total.mode_switch_ns")],
    ),
    cpu_total(
        "cpu_idle_shallow_ns_total",
        &[Term::Sum("cpu.coreN.idle_shallow_ns")],
        &[Term::Sum("cpu.total.idle_shallow_ns")],
    ),
    cpu_total(
        "cpu_sleep_cc6_ns_total",
        &[Term::Sum("cpu.coreN.sleep_cc6_ns")],
        &[Term::Sum("cpu.total.sleep_cc6_ns")],
    ),
    cpu_total(
        "cpu_cstate_transition_ns_total",
        &[Term::Sum("cpu.coreN.cstate_transition_ns")],
        &[Term::Sum("cpu.total.cstate_transition_ns")],
    ),
    cpu_total(
        "cpu_qos_accounting_ns_total",
        &[Term::Sum("cpu.coreN.qos_accounting_ns")],
        &[Term::Sum("cpu.total.qos_accounting_ns")],
    ),
    cpu_total(
        "cpu_os_tick_ns_total",
        &[Term::Sum("cpu.coreN.os_tick_ns")],
        &[Term::Sum("cpu.total.os_tick_ns")],
    ),
    // --- Bench scope: suite totals vs their per-cell families --------
    bench_total(
        "bench_kernel_ipis_total",
        &[Term::Sum("bench.total.kernel_ipis")],
        &[Term::Sum("bench.cell.*.kernel_ipis")],
    ),
    bench_total(
        "bench_kernel_ssrs_serviced_total",
        &[Term::Sum("bench.total.kernel_ssrs_serviced")],
        &[Term::Sum("bench.cell.*.kernel_ssrs_serviced")],
    ),
    bench_total(
        "bench_kernel_interrupts_total",
        &[Term::Sum("bench.total.kernel_interrupts")],
        &[Term::Sum("bench.cell.*.kernel_interrupts")],
    ),
    bench_total(
        "bench_iommu_requests_total",
        &[Term::Sum("bench.total.iommu_requests")],
        &[Term::Sum("bench.cell.*.iommu_requests")],
    ),
    bench_total(
        "bench_iommu_drained_total",
        &[Term::Sum("bench.total.iommu_drained")],
        &[Term::Sum("bench.cell.*.iommu_drained")],
    ),
    bench_total(
        "bench_walker_walks_total",
        &[Term::Sum("bench.total.walker_walks")],
        &[Term::Sum("bench.cell.*.walker_walks")],
    ),
    bench_total(
        "bench_walker_memory_fetches_total",
        &[Term::Sum("bench.total.walker_memory_fetches")],
        &[Term::Sum("bench.cell.*.walker_memory_fetches")],
    ),
    bench_total(
        "bench_events_pushed_total",
        &[Term::Sum("bench.total.events_pushed")],
        &[Term::Sum("bench.cell.*.events_pushed")],
    ),
    bench_total(
        "bench_events_popped_total",
        &[Term::Sum("bench.total.events_popped")],
        &[Term::Sum("bench.cell.*.events_popped")],
    ),
    bench_total(
        "bench_events_peak_total",
        &[Term::Sum("bench.total.events_peak")],
        &[Term::Sum("bench.cell.*.events_peak")],
    ),
    bench_total(
        "bench_elapsed_ns_total",
        &[Term::Sum("bench.total.elapsed_ns")],
        &[Term::Sum("bench.cell.*.elapsed_ns")],
    ),
    bench_total(
        "bench_gpu_iterations_total",
        &[Term::Sum("bench.total.gpu_iterations")],
        &[Term::Sum("bench.cell.*.gpu_iterations")],
    ),
    bench_total(
        "bench_aux_ssrs_raised_total",
        &[Term::Sum("bench.total.aux_ssrs_raised")],
        &[Term::Sum("bench.cell.*.aux_ssrs_raised")],
    ),
    bench_total(
        "bench_pending_at_end_total",
        &[Term::Sum("bench.total.pending_at_end")],
        &[Term::Sum("bench.cell.*.pending_at_end")],
    ),
    Invariant {
        name: "bench_cells_counted",
        scope: Scope::Bench,
        lhs: &[Term::Sum("bench.cells")],
        rel: Rel::Eq,
        rhs: &[Term::Count("bench.cell.*.elapsed_ns")],
        guard: None,
        doc: "bench.cells equals the number of per-cell snapshots recorded",
    },
];

/// The declared laws of one scope.
pub fn invariants_for(scope: Scope) -> impl Iterator<Item = &'static Invariant> {
    INVARIANTS.iter().filter(move |i| i.scope == scope)
}

/// One violated law, with the evaluated per-term breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant's stable name.
    pub name: &'static str,
    /// Evaluated left side.
    pub lhs: u128,
    /// Evaluated right side.
    pub rhs: u128,
    /// Rendered diff: `name: lhs-terms = X, expected <rel> rhs-terms = Y`.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// The outcome of auditing one registry against one scope's laws.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Number of invariants evaluated.
    pub checked: usize,
    /// Laws that did not hold.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// `true` when every evaluated law held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn describe_side(terms: &[Term], value: u128) -> String {
    let rendered: Vec<String> = terms.iter().map(|t| t.describe()).collect();
    format!("{} = {value}", rendered.join(" + "))
}

/// What one registry pass collects for one pattern: the sum of the
/// matching counters and the number of matching names of any kind.
#[derive(Clone, Copy, Default)]
struct Tally {
    sum: u128,
    names: u128,
}

/// A set of distinct patterns as a trie over their dotted segments, so
/// one walk per name finds every pattern the name matches.
struct PatternTrie {
    /// Node 0 is the root. Each node's children form a linked list
    /// (`child`, then each child's `sibling`), so the whole trie lives
    /// in this one vector.
    nodes: Vec<TrieNode>,
    /// Number of distinct patterns, i.e. of tally slots.
    slots: usize,
}

struct TrieNode {
    /// The pattern segment on the edge into this node.
    seg: &'static str,
    child: Option<usize>,
    sibling: Option<usize>,
    /// The slot of the pattern that ends at this node.
    slot: Option<usize>,
}

impl PatternTrie {
    fn new() -> Self {
        PatternTrie {
            nodes: vec![TrieNode {
                seg: "",
                child: None,
                sibling: None,
                slot: None,
            }],
            slots: 0,
        }
    }

    /// The tally slot of `pattern`, added on first sight.
    fn slot(&mut self, pattern: &'static str) -> usize {
        let mut node = 0;
        for seg in pattern.split('.') {
            let mut edge = self.nodes[node].child;
            while let Some(e) = edge.filter(|&e| self.nodes[e].seg != seg) {
                edge = self.nodes[e].sibling;
            }
            node = edge.unwrap_or_else(|| {
                self.nodes.push(TrieNode {
                    seg,
                    child: None,
                    sibling: self.nodes[node].child,
                    slot: None,
                });
                let added = self.nodes.len() - 1;
                self.nodes[node].child = Some(added);
                added
            });
        }
        *self.nodes[node].slot.get_or_insert_with(|| {
            self.slots += 1;
            self.slots - 1
        })
    }

    /// Tallies every pattern in one pass over the registry. A name
    /// feeds each pattern it matches under
    /// [`crate::schema::pattern_matches`] (several at once when a `*`
    /// or `N` segment overlaps a literal).
    fn tally(&self, reg: &MetricsRegistry) -> Vec<Tally> {
        let mut tallies = vec![Tally::default(); self.slots];
        for (name, value) in reg.iter() {
            let sum = match value {
                MetricValue::Counter(v) => u128::from(*v),
                _ => 0,
            };
            self.walk(0, Some(name), &mut |slot| {
                tallies[slot].sum += sum;
                tallies[slot].names += 1;
            });
        }
        tallies
    }

    /// Follows every edge whose segment matches the next segment of
    /// `rest` (the unconsumed tail of the name, `None` once every
    /// segment is consumed), reporting each pattern fully matched.
    fn walk(&self, node: usize, rest: Option<&str>, hit: &mut impl FnMut(usize)) {
        let Some(rest) = rest else {
            if let Some(slot) = self.nodes[node].slot {
                hit(slot);
            }
            return;
        };
        let (seg, tail) = match rest.split_once('.') {
            Some((seg, tail)) => (seg, Some(tail)),
            None => (rest, None),
        };
        let mut edge = self.nodes[node].child;
        while let Some(e) = edge {
            if segment_matches(self.nodes[e].seg, seg) {
                self.walk(e, tail, hit);
            }
            edge = self.nodes[e].sibling;
        }
    }
}

/// One law with its guard resolved to a tally slot and each side to a
/// range of [`AuditPlan::terms`], aligned with the law's term list.
struct CompiledLaw {
    inv: &'static Invariant,
    guard: Option<usize>,
    lhs: Range<usize>,
    rhs: Range<usize>,
}

/// Every law of [`INVARIANTS`] over one shared trie: each distinct term
/// pattern and guard owns one tally slot.
struct AuditPlan {
    trie: PatternTrie,
    /// The tally slot of every term occurrence, law by law.
    terms: Vec<usize>,
    laws: Vec<CompiledLaw>,
}

/// The plan, compiled once per process from the static table.
fn plan() -> &'static AuditPlan {
    static PLAN: OnceLock<AuditPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let mut trie = PatternTrie::new();
        let mut terms = Vec::new();
        let mut side = |trie: &mut PatternTrie, side: &[Term]| {
            let start = terms.len();
            terms.extend(side.iter().map(|t| trie.slot(t.pattern())));
            start..terms.len()
        };
        let laws = INVARIANTS
            .iter()
            .map(|inv| CompiledLaw {
                inv,
                guard: inv.guard.map(|g| trie.slot(g)),
                lhs: side(&mut trie, inv.lhs),
                rhs: side(&mut trie, inv.rhs),
            })
            .collect();
        AuditPlan { trie, terms, laws }
    })
}

impl CompiledLaw {
    /// Whether the law applies: unguarded laws always do, guarded laws
    /// need a published name matching the guard.
    fn applies(&self, tallies: &[Tally]) -> bool {
        self.guard.map_or(true, |g| tallies[g].names > 0)
    }

    /// Evaluates the law from the tallies; `None` when it holds.
    fn violation(&self, slots: &[usize], tallies: &[Tally]) -> Option<Violation> {
        let inv = self.inv;
        let side = |terms: &[Term], range: &Range<usize>| -> u128 {
            terms
                .iter()
                .zip(&slots[range.clone()])
                .map(|(t, &slot)| t.eval(tallies[slot]))
                .sum()
        };
        let lhs = side(inv.lhs, &self.lhs);
        let rhs = side(inv.rhs, &self.rhs);
        let holds = match inv.rel {
            Rel::Eq => lhs == rhs,
            Rel::Le => lhs <= rhs,
        };
        if holds {
            return None;
        }
        Some(Violation {
            name: inv.name,
            lhs,
            rhs,
            detail: format!(
                "invariant `{}` violated: {}, expected {} {} ({})",
                inv.name,
                describe_side(inv.lhs, lhs),
                inv.rel.as_str(),
                describe_side(inv.rhs, rhs),
                inv.doc,
            ),
        })
    }
}

/// Audits a registry against every declared law of `scope`: one pass
/// over the registry tallies every pattern of the compiled plan, then
/// each law of the scope is read off the tallies. A guarded law whose
/// guard matches nothing is skipped and not counted as checked.
pub fn audit(reg: &MetricsRegistry, scope: Scope) -> AuditReport {
    let plan = plan();
    let tallies = plan.trie.tally(reg);
    let mut report = AuditReport::default();
    for law in &plan.laws {
        if law.inv.scope != scope || !law.applies(&tallies) {
            continue;
        }
        report.checked += 1;
        report
            .violations
            .extend(law.violation(&plan.terms, &tallies));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_names_are_unique_and_patterns_resolve_in_the_schema() {
        let mut seen = std::collections::BTreeSet::new();
        for inv in INVARIANTS {
            assert!(seen.insert(inv.name), "duplicate invariant {}", inv.name);
            for term in inv.lhs.iter().chain(inv.rhs) {
                assert!(
                    crate::schema::SCHEMA
                        .iter()
                        .any(|e| e.pattern == term.pattern()),
                    "invariant {} ranges over `{}`, absent from the schema",
                    inv.name,
                    term.pattern()
                );
            }
            if let Some(guard) = inv.guard {
                assert!(
                    crate::schema::SCHEMA.iter().any(|e| e.pattern == guard),
                    "invariant {} guarded on `{guard}`, absent from the schema",
                    inv.name,
                );
            }
        }
    }

    #[test]
    fn invariant_terms_stay_inside_their_scope() {
        for inv in INVARIANTS {
            for term in inv.lhs.iter().chain(inv.rhs) {
                let entry = crate::schema::SCHEMA
                    .iter()
                    .find(|e| e.pattern == term.pattern())
                    .unwrap();
                assert_eq!(
                    entry.scope,
                    inv.scope,
                    "invariant {} crosses scopes via `{}`",
                    inv.name,
                    term.pattern()
                );
            }
        }
    }

    #[test]
    fn concrete_patterns_are_classified_correctly() {
        assert!(is_concrete("run.events_pushed"));
        assert!(is_concrete("kernel.interrupts.total"));
        assert!(!is_concrete("kernel.interrupts.coreN"));
        assert!(!is_concrete("bench.cell.*.elapsed_ns"));
        assert!(!is_concrete("devN.ssrs_raised"));
    }

    #[test]
    fn sum_and_count_terms_evaluate_over_families() {
        let mut reg = MetricsRegistry::new();
        reg.counter("dev0.ssrs_raised", 10);
        reg.counter("dev1.ssrs_raised", 5);
        reg.label("dev0.kind", "gpu");
        reg.gauge("run.gpu_throughput", 0.5); // gauges never contribute
        let mut trie = PatternTrie::new();
        let raised = trie.slot("devN.ssrs_raised");
        let kind = trie.slot("devN.kind");
        let tallies = trie.tally(&reg);
        assert_eq!(Term::Sum("devN.ssrs_raised").eval(tallies[raised]), 15);
        assert_eq!(Term::Count("devN.ssrs_raised").eval(tallies[raised]), 2);
        // Count ranges over every published kind, so the per-device
        // identity labels are countable even though they never sum
        assert_eq!(Term::Count("devN.kind").eval(tallies[kind]), 1);
        assert_eq!(Term::Sum("devN.kind").eval(tallies[kind]), 0);
    }

    #[test]
    fn trie_tallies_agree_with_pattern_matches() {
        // Every schema pattern plus overlapping synthetic ones, so some
        // names match several patterns at once.
        let mut trie = PatternTrie::new();
        let patterns: Vec<&'static str> = crate::schema::SCHEMA
            .iter()
            .map(|e| e.pattern)
            .chain(["x.*.z", "x.yN.z", "x.y1.z", "x.y1", "x.*"])
            .collect();
        let slots: Vec<usize> = patterns.iter().map(|p| trie.slot(p)).collect();
        let names = [
            "cpu.core0.user_ns",
            "cpu.core12.user_ns",
            "cpu.core.user_ns",
            "cpu.coreX.user_ns",
            "cpu.core3.class",
            "cpu.total.user_ns",
            "dev10.ssrs_raised",
            "dev3.kind",
            "devices.kind",
            "run.devices",
            "qos.classes",
            "qos.class1.requests",
            "qos.class12.drained",
            "bench.cell.a-b-r0.elapsed_ns",
            "bench.cell.a.b.elapsed_ns",
            "bench.total.elapsed_ns",
            "x.y1.z",
            "x.y10.z",
            "x.y1",
            "x.y1.z.w",
            "",
            ".",
            "kernel.interrupts.",
        ];
        for name in names {
            let mut reg = MetricsRegistry::new();
            reg.counter(name, 7);
            let tallies = trie.tally(&reg);
            for (p, &slot) in patterns.iter().zip(&slots) {
                let want = u128::from(crate::schema::pattern_matches(p, name));
                assert_eq!(tallies[slot].names, want, "{p} vs {name:?}");
                assert_eq!(tallies[slot].sum, 7 * want, "{p} vs {name:?}");
            }
        }
    }

    #[test]
    fn empty_registry_audits_clean() {
        // Absent names contribute zero, so every law holds vacuously —
        // the property that keeps optional families (qos.*) auditable.
        let reg = MetricsRegistry::new();
        for scope in [Scope::Run, Scope::Bench] {
            let report = audit(&reg, scope);
            assert!(report.clean(), "{:?}", report.violations);
            assert!(report.checked > 0);
        }
    }

    #[test]
    fn guarded_laws_skip_without_their_marker_and_enforce_with_it() {
        // A run registry with SSR traffic but no class split published:
        // the per-class Eq laws must not fire (their LHS would read 0).
        let mut reg = MetricsRegistry::new();
        reg.counter("iommu.requests", 9);
        reg.counter("iommu.drained", 9);
        reg.counter("dev0.ssrs_raised", 9);
        reg.counter("gpu0.ssrs_raised", 9);
        let baseline = audit(&reg, Scope::Run);
        assert!(baseline.clean(), "{:?}", baseline.violations);

        // Publishing the marker arms the guard; an incomplete split now
        // violates its law, and `checked` grows by the guarded count.
        reg.counter("qos.classes", 2);
        reg.counter("qos.class0.requests", 4);
        reg.counter("qos.class1.requests", 4); // 4+4 != 9
        reg.counter("qos.class0.drained", 4);
        reg.counter("qos.class1.drained", 5);
        let report = audit(&reg, Scope::Run);
        assert_eq!(report.checked, baseline.checked + 6);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.name, "class_requests_split");
        assert_eq!((v.lhs, v.rhs), (8, 9));
        assert!(
            v.detail.contains("Σ qos.classN.requests = 8"),
            "{}",
            v.detail
        );
    }

    #[test]
    fn equality_and_bound_violations_render_named_diffs() {
        let mut reg = MetricsRegistry::new();
        reg.counter("run.events_pushed", 10);
        reg.counter("run.events_popped", 11);
        let report = audit(&reg, Scope::Run);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.name, "events_popped_bounded");
        assert_eq!((v.lhs, v.rhs), (11, 10));
        assert!(
            v.detail.contains("run.events_popped = 11")
                && v.detail.contains("<= run.events_pushed = 10"),
            "{}",
            v.detail
        );

        // A registry consistent along the whole SSR chain except that
        // the per-core interrupt counts do not sum to the total.
        let mut reg = MetricsRegistry::new();
        reg.counter("kernel.interrupts.core0", 3);
        reg.counter("kernel.interrupts.core1", 4);
        reg.counter("kernel.interrupts.total", 9);
        reg.counter("iommu.interrupts", 9);
        reg.counter("kernel.batch.count", 9);
        reg.counter("iommu.requests", 9);
        reg.counter("iommu.drained", 9);
        reg.counter("dev0.ssrs_raised", 9);
        reg.counter("gpu0.ssrs_raised", 9);
        let report = audit(&reg, Scope::Run);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].name, "interrupts_per_core");
        assert!(
            report.violations[0]
                .detail
                .contains("Σ kernel.interrupts.coreN = 7"),
            "{}",
            report.violations[0].detail
        );
    }

    #[test]
    fn bench_totals_and_cell_counts_are_cross_checked() {
        let mut reg = MetricsRegistry::new();
        reg.counter("bench.cells", 2);
        reg.counter("bench.cell.a-b-r0.elapsed_ns", 100);
        reg.counter("bench.cell.c-d-r0.elapsed_ns", 50);
        reg.counter("bench.total.elapsed_ns", 150);
        assert!(audit(&reg, Scope::Bench).clean());

        reg.counter("bench.total.elapsed_ns", 151);
        let report = audit(&reg, Scope::Bench);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].name, "bench_elapsed_ns_total");

        reg.counter("bench.total.elapsed_ns", 150);
        reg.counter("bench.cells", 3);
        let report = audit(&reg, Scope::Bench);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].name, "bench_cells_counted");
        assert!(
            report.violations[0]
                .detail
                .contains("#(bench.cell.*.elapsed_ns) = 2"),
            "{}",
            report.violations[0].detail
        );
    }
}
