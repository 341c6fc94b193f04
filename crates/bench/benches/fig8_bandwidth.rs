//! Paper Fig8 regeneration bench: runs the experiment once per
//! sample at a reduced scale and prints the regenerated table.

use subsum_experiments::{fig8, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig::fast();
    // Print the regenerated figure once so bench logs double as results.
    let table = fig8::run(&cfg);
    println!("{table}");
    subsum_bench::time(
        "fig8_bandwidth/reduced_sweep",
        table.rows.len() as u64,
        10,
        || fig8::run(&cfg).rows.len(),
    );
}
