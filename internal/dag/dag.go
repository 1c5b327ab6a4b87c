// Package dag describes the task graphs of the tiled factorizations — the
// DAGs that Chameleon submits to StarPU. There are five: right-looking LU and
// Cholesky, each of them followed by its triangular solves (LUSolve,
// CholeskySolve), and the replicated 2.5D LU (ReplicatedLU). An algorithm is
// a Program: its tasks in sequential order, each naming the tile it writes
// and the tiles it reads. Build infers every dependency from that order, the
// way the runtime the paper ran on does at submission, and stores the edges.
//
// The right-looking LU and Cholesky are Programs too, but the graphs the
// simulator and the runtime execute for them are closed forms: tasks,
// dependencies and successors computed from the task coordinates (kind,
// iteration, row, column), nothing stored per edge, so a paper-scale graph
// of hundreds of thousands of tasks occupies a few prefix-sum arrays. Their
// algebra is checked against Build of their own programs.
//
// Dependencies encode both data flow and the in-place owner-computes
// serialization: the update of tile (i, j) at iteration ℓ must follow its
// update at iteration ℓ−1 because both write the same tile.
package dag

import "fmt"

// Kind enumerates the task kernels of both factorizations.
type Kind uint8

// Task kinds. The LU factorization uses GETRF/TRSMRow/TRSMCol/GEMMLU; the
// Cholesky factorization uses POTRF/TRSMChol/SYRK/GEMMChol.
const (
	// GETRF factorizes diagonal tile (ℓ, ℓ) at iteration ℓ.
	GETRF Kind = iota
	// TRSMCol solves the column panel: A[i][ℓ] := A[i][ℓ]·U(ℓ,ℓ)⁻¹.
	TRSMCol
	// TRSMRow solves the row panel: A[ℓ][j] := L(ℓ,ℓ)⁻¹·A[ℓ][j].
	TRSMRow
	// GEMMLU updates A[i][j] -= A[i][ℓ]·A[ℓ][j].
	GEMMLU
	// POTRF factorizes diagonal tile (ℓ, ℓ) (Cholesky).
	POTRF
	// TRSMChol solves the panel: A[i][ℓ] := A[i][ℓ]·L(ℓ,ℓ)⁻ᵀ.
	TRSMChol
	// SYRK updates the diagonal: A[i][i] -= A[i][ℓ]·A[i][ℓ]ᵀ.
	SYRK
	// GEMMChol updates A[i][j] -= A[i][ℓ]·A[j][ℓ]ᵀ (ℓ < j < i).
	GEMMChol
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case GETRF:
		return "GETRF"
	case TRSMCol:
		return "TRSM-col"
	case TRSMRow:
		return "TRSM-row"
	case GEMMLU:
		return "GEMM"
	case POTRF:
		return "POTRF"
	case TRSMChol:
		return "TRSM"
	case SYRK:
		return "SYRK"
	case GEMMChol:
		return "GEMM-sym"
	case GEMMPart:
		return "GEMM-part"
	case ReduceAdd:
		return "REDUCE"
	default:
		if s, ok := solveKindString(k); ok {
			return s
		}
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Task identifies one kernel invocation. The meaning of I and J depends on
// the kind: panel tasks use I only; update tasks use both. L is the
// iteration.
type Task struct {
	Kind    Kind
	L, I, J int32
}

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t.Kind {
	case GETRF, POTRF:
		return fmt.Sprintf("%s(%d)", t.Kind, t.L)
	case TRSMCol, TRSMRow, TRSMChol, SYRK:
		return fmt.Sprintf("%s(l=%d,%d)", t.Kind, t.L, t.I)
	default:
		return fmt.Sprintf("%s(l=%d,%d,%d)", t.Kind, t.L, t.I, t.J)
	}
}

// Graph is a structural task DAG over an mt×mt tile matrix.
type Graph interface {
	// Name identifies the algorithm ("LU" or "Cholesky").
	Name() string
	// Tiles returns mt, the tile dimension of the matrix.
	Tiles() int
	// NumTasks returns the total task count.
	NumTasks() int
	// ID maps a task to a dense identifier in [0, NumTasks()).
	ID(t Task) int
	// TaskOf inverts ID.
	TaskOf(id int) Task
	// Dependencies visits every direct predecessor of t.
	Dependencies(t Task, visit func(Task))
	// Successors visits every direct successor of t.
	Successors(t Task, visit func(Task))
	// NumDependencies returns the predecessor count (cheaper than visiting).
	NumDependencies(t Task) int
	// OutputTile returns the tile t writes (owner-computes maps t there).
	OutputTile(t Task) (i, j int)
	// InputTiles visits the tiles t reads besides its output tile; these are
	// the tiles that may need to be communicated.
	InputTiles(t Task, visit func(i, j int))
	// Flops returns the floating-point operations of t for tile size b.
	Flops(t Task, b int) float64
	// TotalFlops returns the flop count of the whole factorization for tile
	// size b.
	TotalFlops(b int) float64
}

// SizedGraph is implemented by graphs whose tasks produce tiles of varying
// sizes (e.g. the factor-and-solve graphs, whose RHS tiles are b×nrhs).
// OutputBytes returns the wire size of the task's output tile for tile size
// b. Graphs that do not implement it produce uniform 8·b² byte tiles.
type SizedGraph interface {
	Graph
	OutputBytes(t Task, b int) int
}

// locate inverts a prefix-sum table, the step both closed forms' TaskOf share:
// it returns the largest l with prefix[l] <= v — searched over
// [0, len(prefix)-2], since the last entry is the grand total — and the
// offset v - prefix[l] within that block.
func locate(prefix []int, v int) (l, off int) {
	lo, hi := 0, len(prefix)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if prefix[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, v - prefix[lo]
}
