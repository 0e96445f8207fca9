//! Random execution graphs for the property tests: programs built as
//! sequences of deadlock-free phases (per-rank compute, allreduce,
//! barrier, a rank chain), with compute times drawn from a small integer
//! grid so exact ties — the degenerate case a longest-path crash
//! mass-produces and the breakpoints of `T(L)` — occur constantly.

use llamp_schedgen::{build_graph, ExecGraph, GraphConfig};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::time::us;
use proptest::prelude::*;

/// One deadlock-free program phase.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Per-rank compute; times indexed by rank (µs).
    Comp(Vec<u8>),
    /// Collective over all ranks.
    Allreduce(u16),
    Barrier,
    /// Rank `r` sends to `r+1` (eager-size payload).
    Chain(u16),
}

fn phase_strategy(ranks: usize) -> impl Strategy<Value = Phase> {
    prop_oneof![
        // Small integer grid (1..6 µs) so path lengths tie exactly.
        prop::collection::vec(1u8..6, ranks).prop_map(Phase::Comp),
        (64u16..4096).prop_map(Phase::Allreduce),
        Just(Phase::Barrier),
        (64u16..4096).prop_map(Phase::Chain),
    ]
}

pub fn program_strategy() -> impl Strategy<Value = (usize, Vec<Phase>)> {
    (2usize..=5).prop_flat_map(|ranks| {
        (
            Just(ranks),
            prop::collection::vec(phase_strategy(ranks), 1..8),
        )
    })
}

pub fn graph_of(ranks: usize, phases: &[Phase]) -> ExecGraph {
    let set = ProgramSet::spmd(ranks as u32, |rank, b| {
        for (tag, ph) in phases.iter().enumerate() {
            match ph {
                Phase::Comp(times) => {
                    b.comp(us(times[rank as usize] as f64));
                }
                Phase::Allreduce(bytes) => {
                    b.allreduce(*bytes as u64);
                }
                Phase::Barrier => {
                    b.barrier();
                }
                Phase::Chain(bytes) => {
                    if (rank as usize) + 1 < ranks {
                        b.send(rank + 1, *bytes as u64, tag as u32);
                    }
                    if rank > 0 {
                        b.recv(rank - 1, *bytes as u64, tag as u32);
                    }
                }
            }
        }
    });
    build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
}
