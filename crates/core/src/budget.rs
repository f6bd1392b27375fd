//! Cooperative step/fuel budgets for bounding untrusted work.
//!
//! Every long-running computation in the workspace — emulated programs,
//! trace replays, refill storms — is structurally terminating for
//! well-formed inputs, but the service layer cannot assume well-formed
//! inputs. [`StepBudget`] is the shared guard: callers charge it one
//! unit per step (or per simulated cycle, for deadline-aware refill
//! accounting), and it fails with a typed [`BudgetExhausted`] once the
//! fuel runs out or an external watchdog raises the cancellation flag.
//!
//! Fuel exhaustion is *deterministic*: for a fixed budget the failing
//! step depends only on the computation, never on wall clock, so
//! campaign outcomes stay bit-identical across machines and worker
//! counts. The cancellation flag is the non-deterministic backstop — a
//! watchdog thread sets it when a wall-clock deadline passes, and the
//! budget observes it at the next poll interval.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How often [`StepBudget::charge`] polls the cancellation flag, in
/// charges. A power of two so the check is a mask, not a division.
const CANCEL_POLL_INTERVAL: u64 = 1024;

/// A budget was exhausted before the computation finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Units charged before exhaustion.
    pub spent: u64,
    /// `true` when the cancellation flag (a watchdog deadline), not the
    /// fuel counter, stopped the computation.
    pub cancelled: bool,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cancelled {
            write!(f, "cancelled by deadline after {} steps", self.spent)
        } else {
            write!(f, "step budget exhausted after {} steps", self.spent)
        }
    }
}

impl Error for BudgetExhausted {}

/// A cooperative fuel counter with an optional cancellation flag.
///
/// # Examples
///
/// ```
/// use ccrp::StepBudget;
///
/// let mut budget = StepBudget::limited(2);
/// assert!(budget.charge(1).is_ok());
/// assert!(budget.charge(1).is_ok());
/// let err = budget.charge(1).unwrap_err();
/// assert_eq!(err.spent, 2);
/// assert!(!err.cancelled);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StepBudget {
    /// Remaining fuel; `None` is unlimited.
    remaining: Option<u64>,
    /// Units charged so far.
    spent: u64,
    /// Charges since the cancellation flag was last polled.
    since_poll: u64,
    /// External cancellation (set by a watchdog thread).
    cancel: Option<Arc<AtomicBool>>,
}

impl StepBudget {
    /// A budget that never exhausts (and never polls a flag).
    pub fn unlimited() -> StepBudget {
        StepBudget::default()
    }

    /// A budget of `fuel` units.
    pub fn limited(fuel: u64) -> StepBudget {
        StepBudget {
            remaining: Some(fuel),
            ..StepBudget::default()
        }
    }

    /// Attaches a cancellation flag, polled every 1024 charges (and on
    /// the first charge), so a watchdog can stop a computation whose
    /// fuel has not yet run out.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> StepBudget {
        self.cancel = Some(cancel);
        self
    }

    /// Units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Remaining fuel; `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        self.remaining
    }

    /// Whether the attached cancellation flag has been raised. Unlike
    /// [`charge`](Self::charge) this polls immediately.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Consumes `amount` units of fuel.
    ///
    /// # Errors
    ///
    /// [`BudgetExhausted`] when the fuel runs out, or when the
    /// cancellation flag is observed raised at a poll interval.
    #[inline]
    pub fn charge(&mut self, amount: u64) -> Result<(), BudgetExhausted> {
        if let Some(remaining) = self.remaining {
            let Some(left) = remaining.checked_sub(amount) else {
                self.remaining = Some(0);
                return Err(BudgetExhausted {
                    spent: self.spent,
                    cancelled: false,
                });
            };
            self.remaining = Some(left);
        }
        self.spent = self.spent.saturating_add(amount);
        if self.cancel.is_some() {
            if self.since_poll == 0 && self.cancelled() {
                return Err(BudgetExhausted {
                    spent: self.spent,
                    cancelled: true,
                });
            }
            self.since_poll = (self.since_poll + 1) % CANCEL_POLL_INTERVAL;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut budget = StepBudget::unlimited();
        for _ in 0..10_000 {
            budget.charge(u64::MAX / 4).expect("unlimited");
        }
        assert_eq!(budget.remaining(), None);
        assert!(budget.spent() > 0);
    }

    #[test]
    fn fuel_exhaustion_is_exact() {
        let mut budget = StepBudget::limited(5);
        for i in 0..5 {
            assert!(budget.charge(1).is_ok(), "charge {i}");
        }
        let err = budget.charge(1).unwrap_err();
        assert_eq!(err.spent, 5);
        assert!(!err.cancelled);
        assert_eq!(budget.remaining(), Some(0));
        // Exhaustion is sticky.
        assert!(budget.charge(1).is_err());
    }

    #[test]
    fn oversized_charge_exhausts_without_wrap() {
        let mut budget = StepBudget::limited(10);
        assert!(budget.charge(7).is_ok());
        let err = budget.charge(100).unwrap_err();
        assert_eq!(err.spent, 7);
    }

    #[test]
    fn cancellation_flag_observed_at_poll() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut budget = StepBudget::unlimited().with_cancel(flag.clone());
        for _ in 0..100 {
            budget.charge(1).expect("not cancelled yet");
        }
        flag.store(true, Ordering::Relaxed);
        assert!(budget.cancelled());
        // Raised mid-interval: observed no later than the next poll
        // boundary.
        let mut tripped = None;
        for i in 0..2048u64 {
            if let Err(err) = budget.charge(1) {
                assert!(err.cancelled);
                tripped = Some(i);
                break;
            }
        }
        assert!(tripped.is_some(), "cancellation observed within interval");
    }

    #[test]
    fn display_distinguishes_causes() {
        let fuel = BudgetExhausted {
            spent: 9,
            cancelled: false,
        };
        let deadline = BudgetExhausted {
            spent: 9,
            cancelled: true,
        };
        assert!(fuel.to_string().contains("budget exhausted"));
        assert!(deadline.to_string().contains("deadline"));
    }
}
