//! Derives old and new bounds for all five paper kernels, read from their
//! shipped `kernels/*.iolb` files, and prints the Figure-4/Figure-5 style
//! tables.
//!
//! Run with `cargo run --example derive_bounds`.

use hourglass_iolb::core::report::{fig4_table, fig5_table, KernelReport};
use hourglass_iolb::ir::parse_kernel;

fn main() {
    let files = [
        ("MGS", include_str!("../kernels/mgs.iolb")),
        ("QR HH A2V", include_str!("../kernels/qr_hh_a2v.iolb")),
        ("QR HH V2Q", include_str!("../kernels/qr_hh_v2q.iolb")),
        ("GEBD2", include_str!("../kernels/gebd2.iolb")),
        ("GEHD2", include_str!("../kernels/gehd2.iolb")),
    ];
    let reports: Vec<_> = files
        .iter()
        .map(|(name, src)| {
            let kernel = parse_kernel(src).expect("shipped file");
            KernelReport::from_file(name, &kernel).expect("derivation")
        })
        .collect();
    println!("{}", fig4_table(&reports));
    println!("{}", fig5_table(&reports));
}
