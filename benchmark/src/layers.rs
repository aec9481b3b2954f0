//! Child-side reduction of a traced trial: the spans stay in the child (a
//! dense trial records millions); what crosses to the parent is a handful
//! of per-version numbers, and the span file is written here.

use std::collections::HashMap;

use crate::json::Value;
use crate::stats;
use crate::synthetic::block_syscalls;
use crate::trace::{self, Span, TraceSink, BLOCK, SERVER_REQUEST};
use crate::trial::{Arm, TrialOutcome, TrialSpec};

/// Moves a traced run's spans into `outcome` and records each version's
/// CPU share of its own wall time: with the product's blocking wait
/// strategy a waiting follower is off the CPU, so this is the share of the
/// run it was busy replaying.
pub fn collect(sink: &TraceSink, outcome: &mut TrialOutcome) {
    outcome.spans.append(&mut sink.take_spans());
    let mut totals: HashMap<u8, (u64, u64)> = HashMap::new();
    for run in sink.runs() {
        let entry = totals.entry(run.version).or_default();
        entry.0 += run.cpu_ns;
        entry.1 += run.wall_ns;
    }
    for (version, (cpu_ns, wall_ns)) in totals {
        outcome.extra(
            &format!("v{version}.busy_share"),
            cpu_ns as f64 / wall_ns.max(1) as f64,
        );
    }
}

fn is_syscall(span: &Span) -> bool {
    span.name < BLOCK
}

/// Gives the leader's syscall spans of a synthetic workload their block as
/// parent (blocks are contiguous, so containment is a binary search).
fn adopt_into_blocks(spans: &mut [Span]) {
    let mut blocks: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == BLOCK)
        .map(|s| (s.start_ns, s.end_ns, s.id))
        .collect();
    blocks.sort_unstable();
    if blocks.is_empty() {
        return;
    }
    for span in spans.iter_mut().filter(|s| s.version == 0 && is_syscall(s)) {
        let at = blocks.partition_point(|b| b.0 <= span.start_ns);
        if at > 0 && span.start_ns < blocks[at - 1].1 {
            span.parent = blocks[at - 1].2;
        }
    }
}

/// Reduces `outcome.spans` to per-layer numbers and writes the span file of
/// the NVX arm.
pub fn analyze(spec: &TrialSpec, outcome: &mut TrialOutcome, counters: &Value) {
    let mut spans = std::mem::take(&mut outcome.spans);
    adopt_into_blocks(&mut spans);

    // Per-call time inside each version's syscall interface: a batch is one
    // call into the layer, charged evenly to the syscalls it carried.
    for version in 0..=1u8 {
        let per_call: Vec<f64> = spans
            .iter()
            .filter(|s| s.version == version && is_syscall(s))
            .map(|s| s.duration_ns() as f64 / f64::from(s.calls.max(1)))
            .collect();
        if per_call.is_empty() {
            continue;
        }
        let sorted = stats::sorted(per_call);
        outcome.extra(
            &format!("v{version}.syscall_p50_ns"),
            stats::percentile_sorted(&sorted, 50.0),
        );
    }

    // What the application did per request, from the leader's side: how
    // many syscalls, and how long outside any of them (self time).
    let mut children = trace::children_by_parent(&spans);
    let calls_by_parent: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.parent != 0 && is_syscall(s))
        .fold(HashMap::new(), |mut map, s| {
            *map.entry(s.parent).or_default() += u64::from(s.calls);
            map
        });
    let (mut syscalls, mut self_us) = (Vec::new(), Vec::new());
    for span in spans.iter().filter(|s| s.version == 0) {
        let per_span_ops = match span.name {
            SERVER_REQUEST => 1.0,
            BLOCK => block_syscalls(spec.workload) as f64,
            _ => continue,
        };
        let kids = children.entry(span.id).or_default();
        let self_ns = trace::self_time_ns((span.start_ns, span.end_ns), kids);
        self_us.push(self_ns as f64 / 1e3 / per_span_ops);
        syscalls.push(calls_by_parent.get(&span.id).copied().unwrap_or(0) as f64 / per_span_ops);
    }
    if !syscalls.is_empty() {
        outcome.extra(
            "apps.syscalls_per_request",
            syscalls.iter().sum::<f64>() / syscalls.len() as f64,
        );
        outcome.extra("apps.server_self_us", stats::median(&self_us));
    }

    if spec.arm == Arm::Nvx {
        let header = Value::obj()
            .with("workload", spec.workload.name())
            .with("arm", spec.arm.name())
            .with("seed", spec.seed)
            .with("trial", spec.trial)
            .with("counters", counters.clone());
        let path = spec
            .out_dir
            .join(format!("trace-{}.jsonl", spec.workload.name()));
        if let Err(e) = trace::write_jsonl(&path, header, &outcome.requests, &spans) {
            outcome.check("trace.write", false, || format!("{}: {e}", path.display()));
        }
    }
    outcome.extra("spans_recorded", spans.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent: 0,
            name,
            version: 0,
            calls: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn syscalls_are_adopted_by_the_block_that_contains_them() {
        let mut spans = vec![
            span(100, BLOCK, 1_000, 2_000),
            span(101, BLOCK, 2_000, 3_000),
            span(1, 0, 1_000, 1_100),
            span(2, 0, 1_950, 2_050), // starts in the first block
            span(3, 0, 2_000, 2_100),
            span(4, 0, 3_500, 3_600), // the frame's close: in no block
        ];
        adopt_into_blocks(&mut spans);
        let parent = |id| spans.iter().find(|s| s.id == id).unwrap().parent;
        assert_eq!(
            (parent(1), parent(2), parent(3), parent(4)),
            (100, 100, 101, 0)
        );
    }
}
