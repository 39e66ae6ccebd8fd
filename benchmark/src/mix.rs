//! The seeded request stream of the `serve-mixed` workload.

use crate::api;

/// SplitMix64: a small, well-mixed generator so the benchmark's inputs
/// depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is tiny here, so modulo bias is far
    /// below anything the mix shares could show).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The machines a request may name.
pub const MACHINES: [&str; 2] = ["gpu", "cell"];
/// Problem size of every served request.
pub const SIZE: i64 = 16;

/// One request of the mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub run: bool,
    pub kernel: &'static str,
    pub machine: &'static str,
}

impl Request {
    /// The wire form: one JSON object, default request fields.
    pub fn line(&self) -> String {
        format!(
            r#"{{"cmd":"{}","kernel":"{}","machine":"{}","size":{SIZE}}}"#,
            if self.run { "run" } else { "analyze" },
            self.kernel,
            self.machine
        )
    }
}

/// `run` and `analyze` copies of each (kernel, machine) pair in one
/// deck: 3 + 2 gives the 60 / 40 mix exactly.
const RUNS_PER_PAIR: usize = 3;
const ANALYZES_PER_PAIR: usize = 2;

/// Requests in one deck — one client sweep.
pub const DECK: usize = api::KERNELS.len() * MACHINES.len() * (RUNS_PER_PAIR + ANALYZES_PER_PAIR);

/// Client `client`'s request list under `seed`: a seeded shuffle of a
/// fixed deck holding every (kernel, machine) pair three times as
/// `run` and twice as `analyze`. The seed decides the order — and with
/// it how requests of the clients interleave on the daemon's LRU and
/// launch gate — but not the amount of work, so sweeps under different
/// seeds are comparable.
pub fn deck(seed: u64, client: u64) -> Vec<Request> {
    let mut out = Vec::with_capacity(DECK);
    for kernel in api::KERNELS {
        for machine in MACHINES {
            for k in 0..RUNS_PER_PAIR + ANALYZES_PER_PAIR {
                out.push(Request {
                    run: k < RUNS_PER_PAIR,
                    kernel,
                    machine,
                });
            }
        }
    }
    let mut rng = Rng::new(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f));
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_or_client_differs() {
        assert_eq!(deck(42, 0), deck(42, 0));
        assert_ne!(deck(42, 0), deck(43, 0));
        assert_ne!(deck(42, 0), deck(42, 1));
    }

    #[test]
    fn shares_are_within_two_percent_of_the_mix() {
        for seed in [1u64, 42, 0xdead_beef] {
            let reqs = deck(seed, 0);
            assert_eq!(reqs.len(), DECK);
            let share = |f: &dyn Fn(&Request) -> bool| {
                reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64
            };
            let runs = share(&|r| r.run);
            assert!((runs - 0.60).abs() < 0.02, "run share {runs}");
            for m in MACHINES {
                assert!((share(&|r| r.machine == m) - 0.5).abs() < 0.02);
            }
            for k in api::KERNELS {
                assert!((share(&|r| r.kernel == k) - 0.2).abs() < 0.02);
            }
            // Shuffled, not sorted: the deck order differs from the
            // order it was dealt in.
            assert!(reqs
                .windows(2)
                .any(|w| w[0].kernel != w[1].kernel && w[0].run != w[1].run));
        }
    }

    #[test]
    fn wire_form_is_one_json_object() {
        let r = Request {
            run: true,
            kernel: "me",
            machine: "cell",
        };
        assert_eq!(
            r.line(),
            r#"{"cmd":"run","kernel":"me","machine":"cell","size":16}"#
        );
        let v = api::Json::parse(&r.line()).unwrap();
        assert_eq!(v.get("cmd").and_then(api::Json::as_str), Some("run"));
    }
}
