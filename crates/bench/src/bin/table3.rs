//! Regenerates Table III (benchmark roster, spec vs measured MPKI).
use doram_core::experiments::table3;

fn main() {
    doram_bench::emit::<std::convert::Infallible>("table3", || {
        Ok(table3::render(&table3::run(50_000)))
    })
    .expect("infallible");
}
