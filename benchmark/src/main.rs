fn main() -> std::process::ExitCode {
    msj_benchmark::main()
}
