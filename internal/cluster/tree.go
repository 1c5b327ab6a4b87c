package cluster

// TreeFanout splits an ordered broadcast destination list into the binomial
// tree rooted at the sender: children are the sender's direct recipients —
// ⌈log₂(len(dsts)+1)⌉ of them — and subtrees[i] is the slice of dsts that
// children[i] must relay onward (possibly empty). Every destination appears
// exactly once across children and subtrees, and applying TreeFanout
// recursively to each subtree reproduces the classic binomial broadcast:
// with virtual ranks 0..k (sender = 0), rank 2^j receives from the sender
// and covers ranks [2^j, min(2^{j+1}, k+1)). The subtree slices alias dsts.
func TreeFanout(dsts []int) (children []int, subtrees [][]int) {
	n := len(dsts) + 1 // participants: the sender plus every destination
	for step := 1; step < n; step <<= 1 {
		end := 2 * step
		if end > n {
			end = n
		}
		children = append(children, dsts[step-1])
		subtrees = append(subtrees, dsts[step:end-1])
	}
	return children, subtrees
}

// ReduceChildren defines the binomial combine schedule of a reduction over n
// group members, member 0 being the root that accumulates the final value —
// the mirror image of TreeFanout's broadcast. It returns the members whose
// contributions member s absorbs, in combine order (ascending): s + 2^j for
// every 2^j < lowbit(s) (with lowbit(0) unbounded) that stays below n; member
// s in turn sends to its binomial parent s − lowbit(s). The task graph
// (internal/dag), the real runtime and the simulator all derive the combine
// order from this one schedule, which is what keeps their byte accounting
// identical.
func ReduceChildren(n, s int) []int {
	var kids []int
	for step := 1; s+step < n; step <<= 1 {
		if s != 0 && step >= s&(-s) {
			break
		}
		kids = append(kids, s+step)
	}
	return kids
}
