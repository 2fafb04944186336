// Package core implements the paper's primary contribution: exact
// incremental SimRank for unit link updates.
//
//   - IncUSR (Algorithm 1) characterizes the SimRank update ΔS via the
//     rank-one Sylvester equation M = C·Q̃·M·Q̃ᵀ + C·u·wᵀ (Eq. 13) and
//     computes M with only matrix-vector and vector-vector kernels,
//     giving O(Kn²) per update.
//   - IncSR (Algorithm 2) additionally prunes "unaffected areas"
//     (Theorem 4): the auxiliary vectors ξ_k, η_k and the update matrix M
//     are kept sparse, so only node-pairs inside the affected frontier
//     A_k×B_k are ever touched, giving O(K(nd + |AFF|)).
//
// Both algorithms take the graph *before* the update, the old similarity
// matrix S (matrix form, Eq. 2), and the unit update, and return the new
// similarity matrix for the updated graph. They are exact in the paper's
// sense: the result converges to the new fixed point as K grows. IncSR
// agrees with IncUSR to within 1e-9 rather than bit for bit: its
// support compaction drops entries below ZeroTol that IncUSR keeps.
package core

// ZeroTol is the tolerance below which a similarity or update entry is
// treated as structurally zero when building the Theorem-4 affected sets.
// Exact arithmetic would use 0; floats need a little slack.
const ZeroTol = 1e-12
