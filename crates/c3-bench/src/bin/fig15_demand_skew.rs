//! Reproduces the C3 paper artifact this binary is named after; README's
//! "Reproducing the paper's figures" section indexes the suite.
use c3_bench::support::Scale;

fn main() {
    c3_bench::sim_experiments::fig15(Scale::from_env());
}
