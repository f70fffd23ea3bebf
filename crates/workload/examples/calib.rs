#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use lookaside_workload::{DomainPopulation, PopulationParams};
fn main() {
    let p =
        DomainPopulation::new(PopulationParams { size: 1_000_000, ..PopulationParams::default() });
    for n in [100usize, 1000, 10_000, 100_000, 1_000_000] {
        let inc = p.repo_neighbours(n).count();
        let dep = p.deposited_ranks(n).count();
        println!("N={n}: included={inc} deposited={dep}");
    }
}
