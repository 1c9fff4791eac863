fn main() -> std::process::ExitCode {
    cda_perf::cli::main(std::env::args().skip(1).collect())
}
