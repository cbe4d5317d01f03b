//! Reproduces the C3 paper artifact this binary is named after; README's
//! "Reproducing the paper's figures" section indexes the suite.
fn main() {
    c3_bench::analytic::fig01();
}
