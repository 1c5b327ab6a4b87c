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
