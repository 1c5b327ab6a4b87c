// Package dag describes the task graphs of the tiled factorizations — the
// DAGs that Chameleon submits to StarPU. There are three: right-looking LU
// and Cholesky, and the replicated 2.5D LU (ReplicatedLU). An algorithm is
// a Program: its tasks in sequential order, each naming the tile it writes
// and the tiles it reads. Every dependency is inferred from that order, the
// way the runtime the paper ran on does at submission, in one place: Infer.
//
// A Program may state that it runs in iterations whose outputs are read only
// in their own iteration and the next, as LU and Cholesky do. The inference
// then hands the program out one iteration at a time, and a consumer that is
// done with the early iterations lets it forget them: the simulator runs a
// paper-scale graph of hundreds of thousands of tasks holding a few
// iterations of it, and plan.Compile copies every task into its plan the same
// way.
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

// Graph is a structural task DAG over an mt×mt tile matrix: a Program and
// what its inference yields. The queries by Task value (ID, TaskOf,
// Dependencies, Successors, NumDependencies) infer and keep the whole graph on
// first use; the simulator, plan.Compile and the analyses of this package read
// Program and run the inference themselves.
type Graph interface {
	// Name identifies the algorithm ("LU" or "Cholesky").
	Name() string
	// Tiles returns mt, the tile dimension of the matrix.
	Tiles() int
	// NumTasks returns the total task count.
	NumTasks() int
	// ID maps a task to its position in the program, in [0, NumTasks()).
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
	// Program returns the algorithm the graph is inferred from.
	Program() Program
}
