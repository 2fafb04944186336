package core

// SimStore is the similarity-store surface the incremental update
// algorithms write through. It is the minimal subset of
// internal/simstore.Store that Inc-SR/Inc-uSR need, declared here (and
// satisfied structurally) so core does not depend on the store package:
// *matrix.Dense implements it directly, as do the dense and packed
// backends of internal/simstore.
//
// Contract notes:
//
//   - S must be exactly symmetric: At(a, b) == At(b, a) bit for bit.
//     The algorithms read row i wherever the paper reads the column
//     [S]_{·,i}, which is only the same vector when the two triangles
//     agree. The batch kernel (internal/batch.MatrixFormScratch) mirrors
//     its upper triangle onto the lower one, and AddSym keeps the two
//     equal, so a store that starts from either stays symmetric.
//   - Row may return a view aliasing store-internal scratch that is only
//     valid until the next Row/mutation call — the algorithms below
//     respect that (each row's reads complete before the next row is
//     fetched, or the row is copied first), which is what lets a
//     packed-triangular store serve rows from one reusable buffer with
//     zero allocations.
//   - AddSym(i, j, v) applies v·(e_i·e_jᵀ + e_j·e_iᵀ): both mirror
//     entries accumulate v (the diagonal twice). It is the only
//     off-diagonal mutation the update write-backs perform, so a
//     symmetric store applies it to one backing cell.
type SimStore interface {
	N() int
	At(i, j int) float64
	Add(i, j int, v float64)
	AddSym(i, j int, v float64)
	Row(i int) []float64
}
