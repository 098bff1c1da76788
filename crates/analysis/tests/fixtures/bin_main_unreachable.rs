// A binary crate root that fails fast on input its parser already rejected.
pub fn main() {
    let workload = std::env::args().nth(1).unwrap_or_default();
    match workload.as_str() {
        "a" | "b" => {}
        _ => unreachable!("workload names are validated by the parser"),
    }
}
