fn main() -> std::process::ExitCode {
    xk_benchmark::cli::main()
}
