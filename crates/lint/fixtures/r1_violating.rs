//! R1 fixture: panicking calls in library code, no `#[expect]`.

pub fn head(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn lookup(m: &std::collections::HashMap<u32, u32>, k: u32) -> u32 {
    *m.get(&k).expect("key present")
}

pub fn later() -> ! {
    todo!("not yet written")
}

pub fn sign(x: i32) -> i32 {
    match x.signum() {
        -1 => panic!("negative input"),
        0 | 1 => x.signum(),
        _ => unreachable!("signum is -1, 0 or 1"),
    }
}
