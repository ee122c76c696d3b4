//! The Table-4 grid's two-phase intern: `table4_experiments_in` calibrates
//! the workloads its store lacks on the pool, then interns the 18 rows
//! serially. The executable specification it is diffed against is the loop
//! it replaced — the 18 rows built one by one through the single-row
//! constructors — and the contract is that nothing but the wall time tells
//! the two apart: the same sequences to the bit at any worker count, the
//! same build and hit counts from a cold, a warm and a partly warm store,
//! and a store that a failed calibration leaves untouched.

use dynsched_core::scenarios::{
    archive_scenario_in, model_scenario_in, table4_experiments_in, Condition, ScenarioScale,
};
use dynsched_core::Experiment;
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_workload::{ArchivePlatform, SequenceSpec, TraceStore};

fn scale(seed: u64) -> ScenarioScale {
    ScenarioScale {
        spec: SequenceSpec {
            count: 2,
            days: 1.0,
            min_jobs: 2,
        },
        seed,
        ..ScenarioScale::default()
    }
}

/// The grid as it was built before the two phases: one row after another,
/// each calibrating inside its own store build.
fn rows_one_by_one(store: &TraceStore, scale: &ScenarioScale) -> Vec<Experiment> {
    let mut rows = Vec::with_capacity(18);
    for condition in Condition::ALL {
        for nmax in [256, 1024] {
            rows.push(model_scenario_in(store, nmax, condition, scale));
        }
    }
    for condition in Condition::ALL {
        for platform in &ArchivePlatform::ALL {
            rows.push(archive_scenario_in(store, platform, condition, scale));
        }
    }
    rows
}

fn assert_same_rows(got: &[Experiment], want: &[Experiment], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got.name, want.name, "{what}");
        assert_eq!(got.scheduler, want.scheduler, "{what}: {}", want.name);
        assert_eq!(got.sequences, want.sequences, "{what}: {}", want.name);
    }
}

#[test]
fn the_grid_is_the_rows_built_one_by_one_at_any_worker_count() {
    for seed in [0x5C17, 41] {
        let scale = scale(seed);
        let store = TraceStore::new();
        let want = rows_one_by_one(&store, &scale);
        assert_eq!((store.builds(), store.hits()), (6, 12));
        for workers in [Some(1), Some(2), None] {
            let store = TraceStore::new();
            let got = match workers {
                Some(limit) => with_worker_limit(limit, || table4_experiments_in(&store, &scale)),
                None => table4_experiments_in(&store, &scale),
            };
            assert_same_rows(&got, &want, &format!("seed {seed}, workers {workers:?}"));
            assert_eq!(
                (store.builds(), store.hits()),
                (6, 12),
                "cold store, workers {workers:?}"
            );
        }
    }
}

#[test]
fn a_warm_store_serves_every_row_and_builds_nothing() {
    let scale = scale(7);
    let store = TraceStore::new();
    let cold = table4_experiments_in(&store, &scale);
    let hits = store.hits();
    let warm = table4_experiments_in(&store, &scale);
    assert_eq!(store.builds(), 6);
    assert_eq!(store.hits(), hits + 18);
    for (warm, cold) in warm.iter().zip(&cold) {
        for (w, c) in warm.sequences.iter().zip(&cold.sequences) {
            assert!(w.shares_storage(c), "{}", warm.name);
        }
    }
    // Another seed names six other workloads: builds, not hits.
    let other_seed = ScenarioScale { seed: 8, ..scale };
    table4_experiments_in(&store, &other_seed);
    assert_eq!(store.builds(), 12);
}

#[test]
fn a_partly_warm_store_builds_only_what_it_lacks() {
    let scale = scale(7);
    let want = rows_one_by_one(&TraceStore::new(), &scale);
    let store = TraceStore::new();
    // One platform interned first, through the single-row constructor.
    let first = archive_scenario_in(
        &store,
        &ArchivePlatform::SDSC_BLUE,
        Condition::UserEstimates,
        &scale,
    );
    assert_eq!((store.builds(), store.hits()), (1, 0));
    let got = table4_experiments_in(&store, &scale);
    assert_eq!(store.builds(), 6, "five further builds");
    assert_eq!(
        store.hits(),
        13,
        "its three rows and two per other workload"
    );
    assert_same_rows(&got, &want, "partly warm store");
    // Row 9 is SDSC Blue under actual runtimes: the entry interned above.
    assert!(got[8].sequences[0].shares_storage(&first.sequences[0]));
}

#[test]
fn a_panicking_calibration_leaves_the_store_as_it_found_it() {
    // `calibrated_to_load` asserts its target is at most 1.5: the two model
    // workloads panic in phase 1, the four platforms calibrate fine.
    let broken = ScenarioScale {
        model_target_load: 2.0,
        ..scale(7)
    };
    for workers in [1, 2] {
        let store = TraceStore::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_worker_limit(workers, || table4_experiments_in(&store, &broken))
        }));
        assert!(outcome.is_err(), "a load of 2.0 is out of range");
        // Nothing is interned in phase 1, and the panic was not under the
        // store lock: the store is empty, unpoisoned, and still works.
        assert!(store.is_empty(), "workers {workers}");
        assert_eq!((store.builds(), store.hits()), (0, 0));
        table4_experiments_in(&store, &scale(7));
        assert_eq!((store.builds(), store.hits()), (6, 12));
    }
}
