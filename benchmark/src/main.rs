fn main() -> std::process::ExitCode {
    debar_benchmark::cli::main(std::env::args().skip(1).collect())
}
