//! The board farm: N lazily-constructed platforms behind a checkout /
//! checkin free list.
//!
//! Each board's seed is split off the farm seed with
//! [`sim_rt::rng::derive_seed`]`(farm_seed, board_index)`, so board
//! identity — not scheduling order — decides every stochastic component.
//! Requests that pin a seed get a platform booted from that seed
//! wherever they land; requests that don't adopt the farm's default seed
//! (board 0's), fixed at admission so the result never depends on board
//! placement.

use std::sync::{Condvar, Mutex};

use amperebleed::Platform;
use sim_rt::rng::derive_seed;

use crate::exec::{self, ExecError};

/// One slot of the farm. Platforms are constructed lazily, one pristine
/// image per campaign run — booting a board is the expensive part, and a
/// farm sized for peak load shouldn't pay for boards that only ever
/// serve platform-free verbs (rsa/fingerprint/covert build their own).
///
/// Campaign runs consume the image: a characterization sweep drives the
/// power-virus activation timeline, so a used platform answers slightly
/// differently than a fresh one and must never be reused (the same
/// reason a physical farm re-flashes the bitstream between jobs).
#[derive(Debug)]
pub struct Board {
    /// Slot index (stable across checkouts).
    pub id: usize,
    /// This board's split seed: `derive_seed(farm_seed, id)`.
    pub seed: u64,
}

impl Board {
    /// Boots a pristine platform image for this board.
    ///
    /// # Errors
    ///
    /// Propagates deployment failures.
    pub fn image(&self) -> Result<Platform, ExecError> {
        obs::counter!("serve.farm.platform_inits").inc();
        exec::ready_platform(self.seed)
    }
}

#[derive(Debug)]
struct FarmInner {
    /// `Some(board)` = free, `None` = checked out.
    slots: Vec<Option<Board>>,
    free: usize,
}

/// The farm itself: a bounded pool of boards with blocking checkout.
#[derive(Debug)]
pub struct Farm {
    farm_seed: u64,
    inner: Mutex<FarmInner>,
    freed: Condvar,
}

impl Farm {
    /// Creates a farm of `boards` lazily-booted boards.
    ///
    /// # Panics
    ///
    /// Panics if `boards` is zero — a farm with no boards can serve
    /// nothing and would deadlock every checkout.
    pub fn new(farm_seed: u64, boards: usize) -> Farm {
        assert!(boards > 0, "a farm needs at least one board");
        let slots = (0..boards)
            .map(|id| {
                Some(Board {
                    id,
                    seed: derive_seed(farm_seed, id as u64),
                })
            })
            .collect();
        obs::gauge!("serve.farm.boards").set(boards as f64);
        Farm {
            farm_seed,
            inner: Mutex::new(FarmInner {
                slots,
                free: boards,
            }),
            freed: Condvar::new(),
        }
    }

    /// Number of board slots.
    pub fn boards(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .slots
            .len()
    }

    /// The seed of board `id` (what a request landing there would adopt
    /// if it pinned nothing and the farm default were per-board).
    pub fn board_seed(&self, id: usize) -> u64 {
        derive_seed(self.farm_seed, id as u64)
    }

    /// The seed unpinned requests adopt (board 0's), fixed at admission
    /// so results never depend on which board a request lands on.
    pub fn default_seed(&self) -> u64 {
        self.board_seed(0)
    }

    /// Checks out a free board, blocking until one is available. Prefers
    /// the board whose split seed equals `seed`, so a request lands on the
    /// board booted from its own seed when that board is free. No platform
    /// is cached either way: every campaign run re-images (see [`Board`]).
    pub fn checkout(&self, seed: u64) -> Board {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if inner.free > 0 {
                let idx = inner
                    .slots
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|b| b.seed == seed))
                    .or_else(|| inner.slots.iter().position(Option::is_some));
                let board = idx
                    .and_then(|i| inner.slots.get_mut(i))
                    .and_then(Option::take);
                if let Some(board) = board {
                    inner.free -= 1;
                    obs::counter!("serve.farm.checkouts").inc();
                    obs::gauge!("serve.farm.free").set(inner.free as f64);
                    return board;
                }
                // free > 0 with no occupied slot means the count drifted;
                // fall through and re-wait rather than panic the server.
                debug_assert!(false, "free count {} but no free slot", inner.free);
            }
            obs::counter!("serve.farm.waits").inc();
            inner = self
                .freed
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Returns a board to the free list and wakes one waiter.
    pub fn checkin(&self, board: Board) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let idx = board.id;
        if let Some(slot) = inner.slots.get_mut(idx) {
            debug_assert!(slot.is_none(), "double checkin of board {idx}");
            *slot = Some(board);
            inner.free += 1;
        }
        obs::gauge!("serve.farm.free").set(inner.free as f64);
        drop(inner);
        self.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rt::ser::Value::Null;

    #[test]
    fn seeds_are_split_per_board() {
        let farm = Farm::new(99, 4);
        let seeds: Vec<u64> = (0..4).map(|i| farm.board_seed(i)).collect();
        for (i, s) in seeds.iter().enumerate() {
            assert_eq!(*s, derive_seed(99, i as u64));
            for other in &seeds[..i] {
                assert_ne!(s, other, "board seeds must be distinct");
            }
        }
        assert_eq!(farm.default_seed(), seeds[0]);
    }

    #[test]
    fn checkout_prefers_matching_seed_and_exhausts() {
        let farm = Farm::new(7, 2);
        let want = farm.board_seed(1);
        let b = farm.checkout(want);
        assert_eq!(b.id, 1, "checkout should prefer the seed-matching board");
        let other = farm.checkout(want);
        assert_eq!(other.id, 0, "fall back to any free board");
        farm.checkin(b);
        farm.checkin(other);
        assert_eq!(farm.boards(), 2);
    }

    #[test]
    fn images_are_pristine_per_run() {
        let farm = Farm::new(3, 1);
        let b = farm.checkout(farm.default_seed());
        // Each image answers like a freshly-seeded platform; a consumed
        // image is never handed out again.
        let a = crate::exec::execute_on(&b.image().unwrap(), "quickstart", b.seed, &Null).unwrap();
        let c = crate::exec::execute_on(&b.image().unwrap(), "quickstart", b.seed, &Null).unwrap();
        assert_eq!(a.to_json(), c.to_json());
        farm.checkin(b);
    }
}
