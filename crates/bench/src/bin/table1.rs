//! Table I — counts of BEM and FEM unknowns in the target systems.
//!
//! The paper's split follows `n_BEM ≈ 3.7169·N^(2/3)` (surface grows like
//! the square of the frequency, volume like the cube). This binary
//! regenerates the table at the paper's sizes and prints the scaled-down
//! sizes used by the other experiment binaries on this machine.

use csolve::fembem::{bem_fem_split, PipeDims};
use csolve_bench::{header, Args};

fn main() {
    Args::parse(&[]); // takes no flags: any argument is an error
    header(
        "Table I — BEM/FEM unknown split",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), Table I",
    );

    println!("\nPaper sizes (reference values from the paper in brackets):\n");
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "N total", "n_BEM (ours)", "n_BEM (paper)", "n_FEM (ours)"
    );
    for (n, paper_bem) in [
        (1_000_000usize, 37_169usize),
        (2_000_000, 58_910),
        (4_000_000, 93_593),
        (9_000_000, 160_234),
    ] {
        let (bem, fem) = bem_fem_split(n);
        println!("{n:>12} {bem:>14} {paper_bem:>14} {fem:>14}");
    }

    println!("\nScaled sizes used by the capacity experiments on this machine:");
    println!("(the generator picks a cylindrical lattice matching the split law)\n");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>24}",
        "N target", "N actual", "n_BEM", "n_FEM", "lattice (r × θ × z)"
    );
    for n in [4_000usize, 8_000, 16_000, 32_000, 64_000] {
        let d = PipeDims::for_target(n);
        let bem = d.n_shell();
        let fem = d.n_fem();
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>24}",
            n,
            bem + fem,
            bem,
            fem,
            format!("{} x {} x {}", d.n_r, d.n_theta, d.n_z)
        );
    }
}
