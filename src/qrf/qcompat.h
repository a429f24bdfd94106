// The paper's Q-Compatibility test (Theorem 1.1).
//
// Two periodic lifetimes may share one FIFO queue iff their instances are
// always pushed and popped in the same relative order, with no two pushes
// (or pops) of the queue in the same cycle.
//
// Derivation used here (tests prove it equivalent to brute-force FIFO
// simulation): take production times Pa, Pb and residency lengths
// La = Ca - Pa >= Lb = Cb - Pb.  A conflicting pair of instances exists
// iff some integer x with x ≡ (Pb - Pa) (mod II) lies in [0, La - Lb]:
//   x = 0         -> simultaneous pushes;
//   x = La - Lb   -> simultaneous pops;
//   0 < x < La-Lb -> b's instance is pushed after a's but popped before it
//                    (FIFO order violated).
// Hence the lifetimes are Q-compatible iff
//
//     (Pb - Pa) mod II  >  La - Lb,
//
// the compatibility equation of Theorem 1.1 expressed on production times.
#pragma once

#include <utility>

#include "qrf/lifetime.h"

namespace qvliw {

/// O(1) compatibility test on spans (phase_span under the same `ii`):
/// (Pb - Pa) mod II equals (phase_b - phase_a) mod II, so no division.
/// Inline because queue allocation's first-fit scan calls it per pair.
[[nodiscard]] inline bool q_compatible(PhaseSpan a, PhaseSpan b, int ii) {
  // Order so that a has the longer residency.
  if (a.length < b.length) std::swap(a, b);
  const int d = a.length - b.length;
  if (d >= ii) return false;  // some instance pair always collides
  int x = b.phase - a.phase;  // both phases lie in [0, II)
  if (x < 0) x += ii;
  return x > d;
}

/// The same test on (push, pop) representatives, through phase_span.
[[nodiscard]] bool q_compatible(int push_a, int pop_a, int push_b, int pop_b, int ii);

/// Convenience overload on lifetimes (domains are not inspected).
[[nodiscard]] bool q_compatible(const Lifetime& a, const Lifetime& b, int ii);

/// Ground-truth oracle: simulates the two lifetimes sharing one FIFO from
/// an empty queue over enough periods to reach steady state, checking
/// FIFO pop order and the one-push/one-pop-per-cycle port limits.
/// Intended for tests; quadratic in the number of simulated instances.
[[nodiscard]] bool q_compatible_bruteforce(int push_a, int pop_a, int push_b, int pop_b, int ii);

}  // namespace qvliw
