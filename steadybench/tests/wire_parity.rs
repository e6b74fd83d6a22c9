//! The counting transport observes the wire without touching it: a
//! `luby_process` run with every shard link wrapped must be bit-identical
//! to an unwrapped run.
//!
//! This binary holds a single test on purpose: the process engine forks,
//! and forking while sibling test threads run can hand a child a lock
//! that is never released.

use powersparse_congest::probe::NoProbe;
use steadybench::run::{execute, Algorithm};
use steadybench::spec;

#[test]
fn wrapped_luby_process_run_is_bit_identical_to_unwrapped() {
    let w = spec::workload("luby_process").expect("luby_process is a workload");
    let sc = &w.scenario;
    let g = sc.family.build(sc.seed);

    let plain = execute(&g, sc, NoProbe, false, &mut Algorithm(sc));
    let wrapped = execute(&g, sc, NoProbe, true, &mut Algorithm(sc));

    assert_eq!(wrapped.out, plain.out, "outputs differ");
    assert_eq!(wrapped.metrics, plain.metrics, "counters differ");
    let pin = w.pin(sc.seed).expect("default seed is pinned");
    assert_eq!(
        (plain.metrics.rounds, plain.metrics.messages),
        (pin.rounds, pin.messages)
    );

    assert!(plain.wire.is_none());
    let wire = wrapped.wire.expect("wrapped run counts the wire");
    let shards = sc.engine.shards() as u64;
    // At least one reply frame per shard per round, and payload both ways.
    assert!(
        wire.frames_recv >= shards * plain.metrics.rounds,
        "{wire:?}"
    );
    assert!(wire.frames_sent >= wire.frames_recv, "{wire:?}");
    assert!(wire.bytes_sent > 0 && wire.bytes_recv > 0, "{wire:?}");
    assert!(wire.recv_ns > 0, "{wire:?}");
}
