//! Prints the design-choice ablation sweeps: the modeled NS-App cost of
//! each knob, on the first benchmark of the scale.
use doram_core::experiments::ablations;

fn main() {
    let scale = doram_bench::announce("ablations");
    let bench = scale.benchmarks[0];
    doram_bench::emit("ablations", || {
        ablations::run_all(bench, &scale).map(|sweeps| ablations::render(bench, &sweeps))
    })
    .expect("ablation sweep failed");
}
