//! Regenerates every table and figure in one pass. Every simulation goes
//! through the experiment runner, which runs each configuration once per
//! process, so the runs the exhibits share (the Figure 11 sweep behind
//! Figures 9 and 12, the profiles behind Figures 8 and 12, the Baseline
//! and D-ORAM runs most figures normalize by) are simulated once. This is
//! the binary behind EXPERIMENTS.md.
use doram_core::experiments::{
    fig10, fig11, fig12, fig13, fig4, fig8, fig9, sapp, table1, table3, ExperimentError,
};

fn main() -> Result<(), ExperimentError> {
    let scale = doram_bench::announce("all");
    println!("{}", table1::render(&table1::run()));
    println!("{}", table3::render(&table3::run(50_000)));
    println!("{}", fig4::render(&fig4::run(&scale)?));
    println!("{}", fig8::render(&fig8::run(&scale)?));
    println!("{}", fig9::render(&fig9::run(&scale)?));
    println!("{}", fig10::render(&fig10::run(&scale)?));
    println!("{}", fig11::render(&fig11::run(&scale)?));
    println!("{}", fig12::render(&fig12::run(&scale)?));
    println!("{}", fig13::render(&fig13::run(&scale)?));
    println!("{}", sapp::render(&sapp::run(&scale)?));
    Ok(())
}
