//! Extension: learning from demonstration. The paper's related work
//! (Li et al., AAMAS 2018) uses demonstrations to speed up RL via
//! shaping; here ReASSIgN's Q-table is warm-started from HEFT's plan
//! and compared against cold-started learning across episode budgets.
//!
//! ```text
//! cargo run --release -p bench --bin exp_warmstart
//! ```

use cloud::Fleet;
use obs::Tracer;
use reassign::{learn, LearnRun, ReassignConfig};
use sched::heft_plan;
use wfsim::SimConfig;
use workflow::montage50::montage50;

fn main() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let demo = heft_plan(&wf, &fleet, bench::BANDWIDTH).expect("heft").plan;
    let sim = SimConfig::default();

    println!("Warm-start study: Montage-50, 16 vCPUs, HEFT demonstration\n");
    println!(" episodes | cold best (s) | warm best (s) | cold greedy (s) | warm greedy (s)");
    println!("----------+---------------+---------------+-----------------+----------------");
    for episodes in [1u32, 5, 10, 25, 50, 100] {
        let config = ReassignConfig { episodes, ..ReassignConfig::default() };
        let cold = learn(&wf, &fleet, "cold", &config, &sim, None).expect("cold");
        let warm = LearnRun {
            demonstration: Some(&demo),
            ..LearnRun::new(&wf, &fleet, "warm", &config, &sim)
        }
        .run(&mut Tracer::disabled())
        .expect("warm")
        .outcome;
        println!(
            " {:>8} | {:>13.1} | {:>13.1} | {:>15.1} | {:>15.1}",
            episodes,
            cold.best_episode_makespan.as_secs(),
            warm.best_episode_makespan.as_secs(),
            cold.greedy_makespan.as_secs(),
            warm.greedy_makespan.as_secs(),
        );
    }
    println!("\n(the warm columns should dominate at small budgets — the agent");
    println!(" starts from HEFT's schedule instead of noise — and converge with");
    println!(" the cold columns as episodes accumulate)");
}
