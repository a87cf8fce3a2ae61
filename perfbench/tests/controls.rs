//! Every correctness check the benchmark runs, each with a negative control
//! that proves it can fire.

use cod_fleet::{run_fleet_timed, FleetConfig, WorkloadConfig};
use cod_json::Json;
use crane_sim::{CraneSimulator, OperatorKind, SimulatorConfig};
use perfbench::serve::{self, Serve};
use perfbench::wrapped::{check_against_reference, Variant};
use perfbench::{per_layer_metrics, rack, threads, END_TO_END};

/// A small serving run: the serve-churn stack on 16 short sessions, so
/// preemption, migration and tiering all engage quickly.
fn small_fleet(seed: u64) -> FleetConfig {
    let config = serve::fleet_config(Serve::Churn, seed, threads().max(2));
    FleetConfig {
        workload: WorkloadConfig {
            sessions: 16,
            seed,
            base_frames: 16,
            mean_interarrival_ticks: 1,
        },
        ..config
    }
}

#[test]
fn fleet_document_matches_the_modeled_run_of_the_same_seed_only() {
    let config = small_fleet(11);
    let (wallclock, _) = run_fleet_timed(&config).unwrap();
    let (same, _) = run_fleet_timed(&serve::modeled(&config)).unwrap();
    assert_eq!(serve::document_of(&wallclock), serve::document_of(&same));

    // Negative control: a reference run at a different seed must not match.
    let (other, _) = run_fleet_timed(&serve::modeled(&small_fleet(12))).unwrap();
    assert_ne!(serve::document_of(&wallclock), serve::document_of(&other));
}

#[test]
fn conservation_check_holds_and_fires() {
    let (outcome, _) = run_fleet_timed(&serve::modeled(&small_fleet(11))).unwrap();
    assert!(serve::conserved(&outcome));

    // Negative controls: a lost session, and a rejection beside a free slot.
    let mut lost = outcome.clone();
    lost.offered += 1;
    assert!(!serve::conserved(&lost));
    let mut wasteful = outcome;
    wasteful.rejected_with_free_slot = 1;
    assert!(!serve::conserved(&wasteful));
}

#[test]
fn wrapped_rack_matches_its_reference_and_a_swapped_lp_does_not() {
    let config = rack::exam_config(0xC0D, 0);
    assert_eq!(check_against_reference(&config, None, Variant::Faithful, 48).unwrap(), 0);

    // Negative control: the same rack with the dashboard's operator swapped.
    let swapped = check_against_reference(&config, None, Variant::SwappedDashboard, 48).unwrap();
    assert!(swapped > 0, "a swapped LP went unnoticed");
}

#[test]
fn recycled_replay_reproduces_the_session_and_only_that_session() {
    let frames = 200;
    let config = rack::exam_config(0xC0D, 0);
    let mut sim = CraneSimulator::new(config).unwrap();
    sim.run_frames(frames).unwrap();
    let expected = sim.telemetry_digest();
    assert!(rack::replay_matches(&mut sim, config.seed, frames, &expected).unwrap());

    // Negative controls: the same session replayed on another trainee's rack,
    // and a replay one frame short, must not match.
    let reckless = SimulatorConfig { operator: OperatorKind::Reckless, ..config };
    let mut other = CraneSimulator::new(reckless).unwrap();
    assert!(!rack::replay_matches(&mut other, config.seed, frames, &expected).unwrap());
    assert!(!rack::replay_matches(&mut sim, config.seed, frames - 1, &expected).unwrap());
}

#[test]
fn timed_rack_pass_runs_whole_sessions_and_checks_the_replay() {
    let run = rack::run_timed(5, 0.0, 32).unwrap();
    assert_eq!(run.sessions, 1);
    assert_eq!(run.frame_ns.count(), 32);
    assert!(run.replay_matches);
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(entries)) = bench.get(key) else { panic!("{key} is not a list") };
    entries
        .iter()
        .map(|e| {
            let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_passes_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let end_to_end: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
    assert_eq!(listed(&bench, "end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> =
        per_layer_metrics().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
    assert_eq!(listed(&bench, "per_layer"), per_layer);
}
