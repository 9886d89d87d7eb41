//! The laundering helpers: read the host clock and draw entropy-seeded
//! randomness one or two frames below the kernel root.
pub fn stamp() {
    helper_now();
}

fn helper_now() {
    let _t = Instant::now();
}

pub fn draw() -> u64 {
    jitter() as u64 + entropy_seeded()
}

fn jitter() -> f64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}

fn entropy_seeded() -> u64 {
    SmallRng::from_entropy().next_u64()
}
