//! `unibench`: see `README.md` beside this crate.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(unibench::cli::main(&argv));
}
