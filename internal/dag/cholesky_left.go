package dag

// CholeskyLeft is the task graph of the *left-looking* tiled Cholesky
// variant: instead of eagerly updating the whole trailing matrix after each
// panel (right-looking), column k accumulates all its updates just before
// its panel is factorized:
//
//	for k = 0..mt-1:
//	    SYRK(k, j):      A[k][k] -= A[k][j]·A[k][j]ᵀ   for j < k
//	    POTRF(k)
//	    GEMMChol(i,k,j): A[i][k] -= A[i][j]·A[k][j]ᵀ   for j < k < i
//	    TRSMChol(k, i):  A[i][k] := A[i][k]·L(k,k)⁻ᵀ   for i > k
//
// The task set is a relabeling of the right-looking one (same kinds, same
// kernels, same per-tile update order — so results are bitwise identical),
// and the owner-computes communication *volume* is identical too; what
// changes is *when* tiles are needed, i.e. the overlap structure. The graph
// exists to show that the paper's distribution comparisons do not hinge on
// the right-looking variant.
//
// Task encodings: SYRK{L:j, I:k} updates (k,k) with column j;
// GEMMChol{L:j, I:i, J:k} updates (i,k) with column j; POTRF and TRSMChol
// match the right-looking encodings.
type CholeskyLeft struct{ *Built }

// NewCholeskyLeft builds the left-looking Cholesky graph for an mt×mt tile
// matrix: the right-looking tasks, tiles and kernels, submitted in the
// left-looking order.
func NewCholeskyLeft(mt int) *CholeskyLeft {
	p := NewCholesky(mt).Program()
	p.Name = "Cholesky-left"
	p.Tasks = func(submit func(Task)) {
		for k := 0; k < mt; k++ {
			k32 := int32(k)
			for j := 0; j < k; j++ {
				submit(Task{Kind: SYRK, L: int32(j), I: k32})
			}
			submit(Task{Kind: POTRF, L: k32, I: k32, J: k32})
			for i := k + 1; i < mt; i++ {
				for j := 0; j < k; j++ {
					submit(Task{Kind: GEMMChol, L: int32(j), I: int32(i), J: k32})
				}
				submit(Task{Kind: TRSMChol, L: k32, I: int32(i)})
			}
		}
	}
	return &CholeskyLeft{Build(p)}
}

// TotalFlops implements Graph: the right-looking task set's closed-form
// total, which a sum in left-looking order would only match to rounding.
func (g *CholeskyLeft) TotalFlops(b int) float64 { return NewCholesky(g.Tiles()).TotalFlops(b) }
