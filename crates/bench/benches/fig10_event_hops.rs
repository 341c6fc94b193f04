//! Paper Fig10 regeneration bench: runs the experiment once per
//! sample at a reduced scale and prints the regenerated table.

use subsum_experiments::{fig10, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::fast();
    // Print the regenerated figure once so bench logs double as results.
    let table = fig10::run(&cfg);
    println!("{table}");
    subsum_bench::time(
        "fig10_event_hops/reduced_sweep",
        table.rows.len() as u64,
        10,
        || fig10::run(&cfg).rows.len(),
    );
}
