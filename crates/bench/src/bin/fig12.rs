//! Regenerates Figure 12 (T25mix/T33 ratio vs experimentally best c).
use doram_core::experiments::fig12;

fn main() {
    let scale = doram_bench::announce("fig12");
    doram_bench::emit("fig12", || {
        fig12::run(&scale).map(|rows| {
            doram_bench::maybe_write_csv("fig12", &fig12::render_csv(&rows));
            fig12::render(&rows)
        })
    })
    .expect("figure 12 failed");
}
