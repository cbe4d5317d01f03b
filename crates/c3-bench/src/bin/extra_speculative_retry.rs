//! Reproduces the C3 paper artifact this binary is named after; README's
//! "Reproducing the paper's figures" section indexes the suite.
use c3_bench::support::Scale;

fn main() {
    c3_bench::cluster_experiments::extra_speculative_retry(Scale::from_env());
}
