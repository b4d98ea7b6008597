//! Seeded request mixes and send schedules.
//!
//! Every request is a pure function of the workload seed and its index,
//! so a run draws whatever prefix it has time for, and two runs with one
//! seed send byte-identical requests. The server only ever sees these
//! generated requests.

use sim_rt::rng::{derive_seed, Rng, SimRng};
use sim_serve::Request;

/// The campaign verbs the served mixes draw from (`fingerprint` is left
/// out on purpose: its 33 ms requests dominate any tail they join).
pub const CAMPAIGN_VERBS: [&str; 5] = ["quickstart", "covert", "characterize", "rsa", "defend"];

/// Tenants of the cold mix.
pub const COLD_TENANTS: u64 = 16;
/// Verb slots of one cold deck: 8/4/3/2/3 of 20 is the 40/20/15/10/15 %
/// split of [`CAMPAIGN_VERBS`], exact in every deck of 20 requests.
const COLD_DECK: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4];

/// Campaigns in the warm catalog.
pub const CATALOG: usize = 256;
/// Tenants of the warm mix.
pub const WARM_TENANTS: u64 = 64;
/// Tenants filling the catalog before a warm run: enough that the prep
/// burst stays inside every tenant's token bucket.
pub const PREP_TENANTS: u64 = 32;
/// One warm request in this many is a fresh miss (2 %).
const WARM_MISS_EVERY: u64 = 50;

/// Identical requests per burst.
pub const BURST_SIZE: u64 = 16;
/// Standard campaigns a burst draws from.
pub const BURST_CAMPAIGNS: u64 = 8;
/// Gap between bursts: 16 requests every 40 ms is 400 req/s.
pub const BURST_PERIOD_NS: u64 = 40_000_000;
/// Tenants of the burst open loop: one per request of a burst.
pub const BURST_TENANTS: u64 = BURST_SIZE;
/// Tenants the burst closed loop cycles over, so that no token bucket
/// sheds at closed-loop rates.
pub const BURST_CLOSED_TENANTS: u64 = 256;

// Stream tags: independent draws from one workload seed.
const COLD_VERB: u64 = 0xC01D_0001;
const COLD_SEED: u64 = 0xC01D_0002;
const WARM_CATALOG: u64 = 0x3A93_0001;
const WARM_PICK: u64 = 0x3A93_0003;
const WARM_MISS: u64 = 0x3A93_0004;
const WARM_FRESH: u64 = 0x3A93_0005;
const BURST_PICK: u64 = 0xB0B5_0001;
const BURST_SEED: u64 = 0xB0B5_0002;

fn stream(seed: u64, tag: u64, i: u64) -> u64 {
    derive_seed(derive_seed(seed, tag), i)
}

/// Tenant name for tenant number `n`.
pub fn tenant(n: u64) -> String {
    format!("t{n:03}")
}

fn request(id: u64, verb: &str, tenant_no: u64, seed: Option<u64>) -> Request {
    let mut req = Request::new(id as i64, verb);
    req.tenant = tenant(tenant_no);
    req.seed = seed;
    req
}

/// A Fisher-Yates permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_below(i as u64 + 1) as usize);
    }
    perm
}

/// Request `i` of the cold mix: verbs dealt from a shuffled 20-slot deck,
/// tenants round-robin over 16, and a seed of its own, so every request
/// is a distinct campaign and a store miss.
pub fn cold_request(seed: u64, i: u64) -> Request {
    let deck = permutation(stream(seed, COLD_VERB, i / 20), COLD_DECK.len());
    let verb = CAMPAIGN_VERBS[COLD_DECK[deck[(i % 20) as usize]]];
    request(i, verb, i % COLD_TENANTS, Some(stream(seed, COLD_SEED, i)))
}

/// The warm mix: a catalog of campaigns with Zipf(1) popularity, plus
/// fresh `quickstart` misses. Entry `k` is the `k`-th most popular, so the
/// verb mix weighted by popularity is the same for every seed; the seed
/// picks the campaigns' own seeds and the draw sequence.
#[derive(Debug, Clone)]
pub struct WarmMix {
    seed: u64,
    /// Cumulative Zipf(1) probability of entries `0..=k`.
    cdf: Vec<f64>,
}

impl WarmMix {
    /// The mix for `seed`.
    pub fn new(seed: u64) -> WarmMix {
        let weights: Vec<f64> = (1..=CATALOG).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        WarmMix { seed, cdf }
    }

    /// Catalog entry `k` as request `id` from `tenant_no`: verbs rotate
    /// through [`CAMPAIGN_VERBS`], each entry with a seed of its own.
    pub fn catalog_request(&self, k: usize, id: u64, tenant_no: u64) -> Request {
        let verb = CAMPAIGN_VERBS[k % CAMPAIGN_VERBS.len()];
        request(
            id,
            verb,
            tenant_no,
            Some(stream(self.seed, WARM_CATALOG, k as u64)),
        )
    }

    /// Whether request `i` is a fresh miss: one slot in every 50.
    pub fn is_miss(&self, i: u64) -> bool {
        let block = i / WARM_MISS_EVERY;
        i % WARM_MISS_EVERY == stream(self.seed, WARM_MISS, block) % WARM_MISS_EVERY
    }

    /// The catalog entry request `i` replays (`None` for a fresh miss).
    pub fn entry(&self, i: u64) -> Option<usize> {
        if self.is_miss(i) {
            return None;
        }
        let u = SimRng::seed_from_u64(stream(self.seed, WARM_PICK, i)).next_f64();
        Some(self.cdf.partition_point(|&c| c <= u).min(CATALOG - 1))
    }

    /// Request `i` of the warm mix.
    pub fn request(&self, i: u64) -> Request {
        let tenant_no = i % WARM_TENANTS;
        match self.entry(i) {
            Some(k) => self.catalog_request(k, i, tenant_no),
            None => request(
                i,
                "quickstart",
                tenant_no,
                Some(stream(self.seed, WARM_FRESH, i)),
            ),
        }
    }
}

/// Standard burst campaign `k` (< [`BURST_CAMPAIGNS`]) as (verb, pinned
/// seed). Campaigns 0 and 2 pin no seed, so they run on the farm's
/// default seed and take the board re-image path.
pub fn burst_campaign(seed: u64, k: u64) -> (&'static str, Option<u64>) {
    let verb = CAMPAIGN_VERBS[(k % CAMPAIGN_VERBS.len() as u64) as usize];
    let pinned = (k != 0 && k != 2).then(|| stream(seed, BURST_SEED, k));
    (verb, pinned)
}

/// Which standard campaign burst `b` requests: each run of 8 bursts
/// deals the 8 campaigns once, in a shuffled order.
pub fn burst_pick(seed: u64, b: u64) -> u64 {
    let n = BURST_CAMPAIGNS as usize;
    permutation(stream(seed, BURST_PICK, b / BURST_CAMPAIGNS), n)[b as usize % n] as u64
}

/// Request `i` of the burst mix: burst `i / 16` repeats one standard
/// campaign 16 times, from tenants cycling over `tenants`.
pub fn burst_request(seed: u64, i: u64, tenants: u64) -> Request {
    let (verb, pinned) = burst_campaign(seed, burst_pick(seed, i / BURST_SIZE));
    request(i, verb, i % tenants, pinned)
}

/// Send offsets (ns from the start of the open loop) of `n` requests at
/// a constant `rate_per_s`, evenly spaced as a constant-throughput load
/// generator sends them. Even spacing keeps the arrival process the same
/// for every seed, so the tail percentile moves with the server, not with
/// how a random draw happened to cluster arrivals.
pub fn fixed_schedule(rate_per_s: f64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| (i as f64 / rate_per_s * 1e9) as u64)
        .collect()
}

/// Send offsets of `n` burst requests: all 16 of burst `b` are due at
/// `b` × 40 ms.
pub fn burst_schedule(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i / BURST_SIZE * BURST_PERIOD_NS)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn lines(f: impl Fn(u64) -> Request, n: u64) -> Vec<String> {
        (0..n).map(|i| f(i).to_json_line()).collect()
    }

    #[test]
    fn mixes_are_deterministic_per_seed() {
        let warm1 = WarmMix::new(1);
        let warm2 = WarmMix::new(2);
        for (a, b, c) in [
            (
                lines(|i| cold_request(1, i), 200),
                lines(|i| cold_request(1, i), 200),
                lines(|i| cold_request(2, i), 200),
            ),
            (
                lines(|i| warm1.request(i), 200),
                lines(|i| WarmMix::new(1).request(i), 200),
                lines(|i| warm2.request(i), 200),
            ),
            (
                lines(|i| burst_request(1, i, 16), 200),
                lines(|i| burst_request(1, i, 16), 200),
                lines(|i| burst_request(2, i, 16), 200),
            ),
        ] {
            assert_eq!(a, b, "same seed, same requests");
            assert_ne!(a, c, "another seed, other requests");
        }
    }

    #[test]
    fn cold_mix_hits_its_verb_tenant_and_seed_proportions() {
        let n = 2_000u64;
        let reqs: Vec<Request> = (0..n).map(|i| cold_request(7, i)).collect();
        let mut verbs: BTreeMap<&str, u64> = BTreeMap::new();
        let mut tenants: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &reqs {
            *verbs.entry(r.verb.as_str()).or_default() += 1;
            *tenants.entry(r.tenant.as_str()).or_default() += 1;
        }
        let pct = |v: &str| verbs[v] * 100 / n;
        assert_eq!(
            [
                pct("quickstart"),
                pct("covert"),
                pct("characterize"),
                pct("rsa"),
                pct("defend")
            ],
            [40, 20, 15, 10, 15]
        );
        assert_eq!(tenants.len(), COLD_TENANTS as usize);
        assert!(tenants.values().all(|&c| c == n / COLD_TENANTS));
        let seeds: BTreeSet<u64> = reqs.iter().map(|r| r.seed.unwrap()).collect();
        assert_eq!(
            seeds.len(),
            n as usize,
            "every request is a distinct campaign"
        );
    }

    #[test]
    fn warm_mix_is_zipf_over_the_catalog_with_two_percent_misses() {
        let mix = WarmMix::new(3);
        let n = 50_000u64;
        let mut hits: BTreeMap<usize, u64> = BTreeMap::new();
        let mut misses = 0u64;
        let mut tenants = BTreeSet::new();
        for i in 0..n {
            tenants.insert(mix.request(i).tenant);
            match mix.entry(i) {
                Some(k) => *hits.entry(k).or_default() += 1,
                None => misses += 1,
            }
        }
        assert_eq!(misses * 100, n * 2, "exactly one miss per 50 requests");
        assert_eq!(tenants.len(), WARM_TENANTS as usize);
        assert!(hits.keys().all(|&k| k < CATALOG));
        // Zipf(1) over 256 ranks: the top entry draws 1/H(256) ≈ 16.3 %
        // of hits, the second half.
        let mut counts: Vec<u64> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let served = (n - misses) as f64;
        let top = counts[0] as f64 / served;
        assert!((top - 0.1633).abs() < 0.01, "top share {top}");
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.2, "rank-1/rank-2 ratio {ratio}");
        // Distinct seeds make distinct catalog entries.
        let seeds: BTreeSet<u64> = (0..CATALOG)
            .map(|k| mix.catalog_request(k, 0, 0).seed.unwrap())
            .collect();
        assert_eq!(seeds.len(), CATALOG);
    }

    #[test]
    fn bursts_repeat_one_campaign_sixteen_times_across_tenants() {
        let n = 16 * 800;
        let mut picks: BTreeMap<u64, u64> = BTreeMap::new();
        for b in 0..n / BURST_SIZE {
            let first = burst_request(9, b * BURST_SIZE, BURST_TENANTS);
            let tenants: BTreeSet<String> = (0..BURST_SIZE)
                .map(|j| {
                    let r = burst_request(9, b * BURST_SIZE + j, BURST_TENANTS);
                    assert_eq!((r.verb.as_str(), r.seed), (first.verb.as_str(), first.seed));
                    r.tenant
                })
                .collect();
            assert_eq!(tenants.len(), BURST_SIZE as usize, "16 tenants per burst");
            *picks.entry(burst_pick(9, b)).or_default() += 1;
        }
        assert_eq!(picks.len(), BURST_CAMPAIGNS as usize);
        let expect = n / BURST_SIZE / BURST_CAMPAIGNS;
        assert!(
            picks.values().all(|&c| c == expect),
            "each campaign once per 8 bursts"
        );
        let unpinned = (0..BURST_CAMPAIGNS)
            .filter(|&k| burst_campaign(9, k).1.is_none())
            .count();
        assert_eq!(unpinned, 2);
        let sched = burst_schedule(40);
        assert_eq!(sched[15], 0);
        assert_eq!(sched[16], BURST_PERIOD_NS);
    }

    #[test]
    fn fixed_schedule_keeps_its_rate() {
        let sched = fixed_schedule(150.0, 1_351);
        assert_eq!(sched[0], 0);
        assert_eq!(sched[150], 1_000_000_000);
        assert_eq!(sched[1_350], 9_000_000_000);
    }
}
