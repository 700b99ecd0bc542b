//! Regenerates Figure 9 (normalized execution time of the D-ORAM family).
use doram_core::experiments::fig9;

fn main() {
    let scale = doram_bench::announce("fig9");
    doram_bench::emit("fig9", || {
        fig9::run(&scale).map(|rows| {
            doram_bench::maybe_write_csv("fig9", &fig9::render_csv(&rows));
            fig9::render(&rows)
        })
    })
    .expect("figure 9 sweep failed");
}
